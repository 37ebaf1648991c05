"""Traced memory of one training step, one inference forward, one pooled
slice and one checkpoint save, load and restore.

Full-width `danet-fcn2` in float32 on 80x120 tiles, as the README's
"Memory" paragraph quotes it: one train step on a batch of 8 tiles
(forward with the tape, loss, backward, RMSProp update), what the tape
holds once that forward and loss are done, one inference forward of 9
tiles with no tape open, one 160x1080 slice of 18 tiles through
`predict_slice_mask` (two 9-tile forwards at once on a pool of two or more
workers: the work of one `eval-full` unit), then the model's checkpoint
saved, loaded, and loaded and restored into a new model. tracemalloc
starts after the model, the optimizer, the inputs and the in-memory
checkpoint exist, so a peak is what the step itself allocates on top of
them.

With a 16 MB im2col budget in place of 8 MB, the step, the 9-tile forward
and the pooled slice read 103.8, 39.0 and 77-79 MB.

Load + restore reads about the payload (26.7 MB): the restored model holds
the loaded arrays. It read 53.7 MB when restore copied the checkpoint into
a Xavier-initialised model, and 79.6 MB when load also copied each tensor
out of the whole file.
"""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from seistile.layers import softmax_cross_entropy
from seistile.metrics import predict_slice_mask, worker_count
from seistile.network import build_model
from seistile.tensor import Tensor, backward, recording
from seistile.topology import preset
from seistile.train import (OptimizerConfig, RMSProp, checkpoint_from_model, load_checkpoint,
                            restore_model, save_checkpoint)

rng = np.random.default_rng(0)
model = build_model(preset("danet-fcn2"), seed=0, dtype=np.float32)
optimizer = RMSProp(model.parameters(), OptimizerConfig())
x_train = Tensor(rng.normal(size=(8, 80, 120, 1)).astype(np.float32))
labels = rng.integers(0, model.num_classes, size=(8, 80, 120))
x_eval = Tensor(rng.normal(size=(9, 80, 120, 1)).astype(np.float32))
eval_slice = rng.normal(size=(160, 1080)).astype(np.float32)


def traced_peak_mb(step) -> float:
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def train_step():
    model.zero_grads()
    with recording() as tape:
        loss = softmax_cross_entropy(model.forward(x_train, train=True), labels)
    backward(loss, tape)
    optimizer.step(0.01)


def tape_after_forward_mb() -> float:
    tracemalloc.start()
    try:
        with recording() as tape:  # the tape and the loss are alive when the memory is read
            loss = softmax_cross_entropy(model.forward(x_train, train=True), labels)
        return tracemalloc.get_traced_memory()[0] / 1e6
    finally:
        tracemalloc.stop()


def inference_forward():
    model.forward(x_eval, train=False)


print(f"danet-fcn2, full width, float32, 80x120 tiles, {sum(t.size for _, t, _ in model.parameters()):,} parameters")
print(f"train step, 8 tiles:        {traced_peak_mb(train_step):6.1f} MB traced peak")
print(f"tape after that forward:    {tape_after_forward_mb():6.1f} MB traced")
print(f"inference forward, 9 tiles: {traced_peak_mb(inference_forward):6.1f} MB traced peak")
workers = min(worker_count(), 2)
print(f"pooled slice, 18 tiles:     {traced_peak_mb(lambda: predict_slice_mask(model, eval_slice, 80, 120)):6.1f} MB "
      f"traced peak (its two 9-tile forwards on {workers} worker{'s' if workers > 1 else ''})")

ckpt = checkpoint_from_model(model)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "danet-fcn2.ckpt"
    print(f"checkpoint save:            {traced_peak_mb(lambda: save_checkpoint(ckpt, path)):6.1f} MB traced peak"
          f" ({path.stat().st_size / 1e6:.1f} MB file)")
    print(f"checkpoint load:            {traced_peak_mb(lambda: load_checkpoint(path)):6.1f} MB traced peak")
    print(f"checkpoint load + restore:  {traced_peak_mb(lambda: restore_model(load_checkpoint(path))):6.1f} MB "
          "traced peak")
