"""Training: RMSProp with momentum, the stepwise learning-rate schedule,
epoch loop with seeded shuffling, best-validation-mIOU checkpointing, and
the binary checkpoint container.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TileSet, atomic_open
from .errors import ConfigError, CorruptionError, DivergenceError, FormatError, ParseError, TopologyError
from .layers import softmax_cross_entropy
# predict_slice_mask is not called here; the name stays because bench/spans.py patches it in this module
from .metrics import iou_per_class, miou_image, mmiou, predict_slice_mask, predict_slice_masks
from .network import Model, build_model
from .tensor import Tensor, backward, recording
from .topology import parse_topology

__all__ = [
    "OptimizerConfig",
    "TrainConfig",
    "RMSProp",
    "lr_at_epoch",
    "Checkpoint",
    "checkpoint_from_model",
    "save_checkpoint",
    "load_checkpoint",
    "restore_model",
    "train",
]

DEFAULT_LR_SCHEDULE = ((0, 0.01), (50, 0.001), (100, 5e-4), (150, 1e-5))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class OptimizerConfig:
    decay: float = 0.9  # mean-square accumulator decay
    momentum: float = 0.9
    epsilon: float = 1.0  # added inside the square root
    weight_decay: float = 5e-4  # L2 term, convolution kernels only

    def __post_init__(self):
        if not 0.0 <= self.decay < 1.0:
            raise ConfigError("decay must lie in [0, 1)")
        if self.momentum < 0.0:
            raise ConfigError("momentum must be >= 0")
        if self.epsilon <= 0.0:
            raise ConfigError("epsilon must be > 0")


@dataclass
class TrainConfig:
    batch_size: int = 64
    max_epochs: int = 200
    lr_schedule: tuple = DEFAULT_LR_SCHEDULE
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self):
        for entry in self.lr_schedule:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and _is_int(entry[0])
                    and (_is_int(entry[1]) or isinstance(entry[1], float))):
                raise ConfigError(f"lr_schedule entry {entry!r} is not an [epoch, rate] pair")
        thresholds = [e for e, _ in self.lr_schedule]
        if thresholds != sorted(set(thresholds)):
            raise ConfigError("lr schedule epochs must be strictly increasing")
        if not all(lr > 0 for _, lr in self.lr_schedule):  # NaN fails too
            raise ConfigError("learning rates must be positive")
        if self.batch_size < 1 or self.max_epochs < 1 or self.eval_every < 1:
            raise ConfigError("batch_size, max_epochs and eval_every must be >= 1")


def lr_at_epoch(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate of the largest schedule threshold <= epoch."""
    lr = None
    for threshold, value in cfg.lr_schedule:
        if epoch >= threshold:
            lr = value
    if lr is None:
        raise ConfigError(f"epoch {epoch} precedes the first schedule entry")
    return lr


class RMSProp:
    """Per element: g += wd*w (kernels only); ms = d*ms + (1-d)*g^2;
    mom = m*mom + lr*g/sqrt(ms + eps); w -= mom."""

    def __init__(self, params, cfg: OptimizerConfig):
        # params: iterable of (name, Tensor, weight_decay_eligible)
        self.cfg = cfg
        self.params = [(name, t, bool(decay)) for name, t, decay in params]
        self.ms = {name: np.zeros_like(t.data) for name, t, _ in self.params}
        self.mom = {name: np.zeros_like(t.data) for name, t, _ in self.params}
        self._scratch = {name: np.empty_like(t.data) for name, t, _ in self.params}
        self.step_count = 0

    def step(self, lr: float) -> None:
        """One update in place. The operations and their order are those of
        the class docstring, so results match its direct form bitwise."""
        cfg = self.cfg
        self.step_count += 1
        for name, tensor, decays in self.params:
            g = tensor.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient in {name} at step {self.step_count}")
            buf = self._scratch[name]
            if decays and cfg.weight_decay:
                g = np.add(g, np.multiply(tensor.data, cfg.weight_decay, out=buf), out=buf)
            ms = self.ms[name]
            ms *= cfg.decay
            tmp = np.multiply(g, 1.0 - cfg.decay)
            tmp *= g
            ms += tmp
            mom = self.mom[name]
            mom *= cfg.momentum
            np.multiply(g, lr, out=tmp)
            tmp /= np.sqrt(np.add(ms, cfg.epsilon, out=buf), out=buf)  # g is dead: buf is free
            mom += tmp
            tensor.data -= mom


# ------------------------------------------------------------- checkpointing

CKPT_MAGIC = b"DNCKPT1\n"


@dataclass
class Checkpoint:
    topology_text: str
    epoch: int
    val_miou: float
    params: dict[str, np.ndarray]
    buffers: dict[str, np.ndarray]


def checkpoint_from_model(model: Model, optimizer: RMSProp | None = None,
                          epoch: int = -1, val_miou: float = float("nan")) -> Checkpoint:
    """Copy the model's parameters and running statistics. ``optimizer`` is
    accepted for callers that pass one and is not stored."""
    return Checkpoint(
        topology_text=model.topology_text(),
        epoch=epoch,
        val_miou=val_miou,
        params={name: t.data.copy() for name, t, _ in model.parameters()},
        buffers={name: a.copy() for name, a in model.buffers()},
    )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Binary layout: magic, u32 little-endian JSON header length, JSON
    header, then raw little-endian f32 blobs. Learnable parameters come
    first so their section length is exactly 4 * count_parameters.

    The file is written through ``atomic_open``, so a failed write leaves the
    previous file as it was."""
    directory = []
    blobs = []
    offset = 0
    for kind, tensors in (("param", ckpt.params), ("running", ckpt.buffers)):
        for name, arr in tensors.items():
            blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
            directory.append({"name": name, "kind": kind, "shape": list(arr.shape),
                              "offset": offset, "nbytes": len(blob)})
            blobs.append(blob)
            offset += len(blob)
    header = json.dumps({
        "topology": ckpt.topology_text,
        "epoch": ckpt.epoch,
        "val_miou": None if np.isnan(ckpt.val_miou) else ckpt.val_miou,
        "tensors": directory,
    }).encode()
    with atomic_open(path) as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint. Files written before checkpoints dropped the
    optimizer state still load: their ``opt_ms``/``opt_mom`` tensors are
    bounds-checked like the others and then discarded."""
    blob = Path(path).read_bytes()
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    start = len(CKPT_MAGIC) + 4
    if len(blob) < start:
        raise CorruptionError(f"{path}: file ends before the header length field")
    (header_len,) = struct.unpack_from("<I", blob, len(CKPT_MAGIC))
    if len(blob) < start + header_len:
        raise CorruptionError(f"{path}: header of {header_len} bytes runs past the end of the file")
    payload = memoryview(blob)[start + header_len :]
    sections: dict[str, dict[str, np.ndarray] | None] = {
        "param": {}, "running": {}, "opt_ms": None, "opt_mom": None,
    }
    try:
        header = json.loads(blob[start : start + header_len].decode())
        for entry in header["tensors"]:
            raw = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
            if len(raw) != entry["nbytes"]:
                raise CorruptionError(f"{path}: truncated tensor {entry['name']}")
            arr = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"])
            kept = sections[entry["kind"]]
            if kept is not None:
                kept[entry["name"]] = arr.copy()
        val = header["val_miou"]
        return Checkpoint(
            topology_text=header["topology"],
            epoch=header["epoch"],
            val_miou=float("nan") if val is None else float(val),
            params=sections["param"],
            buffers=sections["running"],
        )
    except (KeyError, TypeError, ValueError) as err:  # ValueError covers JSON and UTF-8 decoding
        raise FormatError(f"{path}: malformed checkpoint header ({type(err).__name__}: {err})") from None


def _stored_tensor(stored: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """The checkpoint's tensor for one model slot, which must have its shape:
    a reshape would scramble a tensor of the right size but another shape."""
    if name not in stored:
        raise FormatError(f"checkpoint does not match topology; missing tensor {name}")
    if stored[name].shape != shape:
        raise FormatError(f"checkpoint tensor {name} has shape {stored[name].shape}, "
                          f"the topology needs {shape}")
    return stored[name]


def restore_model(ckpt: Checkpoint, name: str = "restored") -> Model:
    """Rebuild the model a checkpoint describes; forward passes reproduce
    the saved model bitwise (checkpoints are f32)."""
    try:
        spec = parse_topology(ckpt.topology_text, name=name)
    except (ParseError, TopologyError) as err:  # the text is data read from the file
        raise FormatError(f"checkpoint stores an invalid topology: {err}") from None
    model = build_model(spec, seed=0, dtype=np.float32)
    expected = {n for n, _, _ in model.parameters()}
    if expected != set(ckpt.params):
        missing = expected ^ set(ckpt.params)
        raise FormatError(f"checkpoint does not match topology; mismatched tensors: {sorted(missing)[:4]}")
    for pname, t, _ in model.parameters():
        t.data = _stored_tensor(ckpt.params, pname, t.data.shape).astype(np.float32)
    for bname, arr in model.buffers():
        arr[...] = _stored_tensor(ckpt.buffers, bname, arr.shape)
    return model


# -------------------------------------------------------------- training loop


def _batch_tensors(tiles: TileSet, idx: np.ndarray, dtype) -> tuple[Tensor, np.ndarray]:
    images = tiles.images[idx][..., None].astype(dtype, copy=False)
    labels = tiles.masks[idx]
    return Tensor(images), labels


def _validation_miou(model: Model, val_data, tile_h: int, tile_w: int) -> float:
    """mmIOU of the reassembled validation slices, as ``evaluate_testset`` scores them."""
    preds = predict_slice_masks(model, [image for image, _ in val_data], tile_h, tile_w)
    per_image = []
    for pred, (_, mask) in zip(preds, val_data):
        ious = iou_per_class(pred, mask[: pred.shape[0], : pred.shape[1]], model.num_classes)
        per_image.append(miou_image(ious))
    return mmiou(per_image)


def train(model: Model, train_tiles: TileSet, val_data, cfg: TrainConfig,
          opt_cfg: OptimizerConfig, log_path=None, checkpoint_path=None,
          progress=None):
    """Run the epoch loop and return (best_checkpoint, log_rows).

    ``val_data`` is a sequence of (image, mask) slice pairs; validation
    reassembles full slices with batch norm frozen. The checkpoint with the
    highest validation mIOU is retained (earliest epoch wins ties). On
    divergence it is attached to the raised error; before the first
    validation, the last finished epoch's unscored checkpoint is attached.
    """
    if len(train_tiles) == 0:
        raise ConfigError("empty training tile set")
    if not val_data:
        raise ConfigError("need at least one validation slice")
    tile_h, tile_w = train_tiles.tile_h, train_tiles.tile_w

    rng = np.random.default_rng(cfg.seed)
    optimizer = RMSProp(model.parameters(), opt_cfg)
    best: Checkpoint | None = None
    validated = False  # until the first validation, best is the last finished epoch
    log_rows: list[dict] = []
    n = len(train_tiles)
    if log_path is not None:
        Path(log_path).write_text(_LOG_HEADER)

    for epoch in range(cfg.max_epochs):
        t0 = time.perf_counter()
        lr = lr_at_epoch(epoch, cfg)
        order = rng.permutation(n)
        loss_sum = 0.0
        try:
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                x, labels = _batch_tensors(train_tiles, idx, model.dtype)
                model.zero_grads()
                with recording() as tape:
                    logits = model.forward(x, train=True)
                    loss = softmax_cross_entropy(logits, labels)
                loss_value = loss.data.item()
                if not np.isfinite(loss_value):
                    raise DivergenceError(f"loss became {loss_value} at epoch {epoch}")
                backward(loss, tape)
                optimizer.step(lr)
                loss_sum += loss_value * len(idx)
        except DivergenceError as err:
            err.checkpoint = best
            raise
        mean_loss = loss_sum / n

        val_miou = None
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.max_epochs - 1:
            val_miou = _validation_miou(model, val_data, tile_h, tile_w)
            if not validated or val_miou > best.val_miou:
                best = checkpoint_from_model(model, epoch=epoch, val_miou=val_miou)
            validated = True
        elif not validated:
            best = checkpoint_from_model(model, epoch=epoch)

        row = {"epoch": epoch, "loss": mean_loss,
               "val_miou": val_miou, "lr": lr,
               "seconds": time.perf_counter() - t0}
        log_rows.append(row)
        if log_path is not None:  # one row per epoch, so a divergence keeps the rows before it
            with open(log_path, "a") as fh:
                fh.write(_log_line(row))
        if progress is not None:
            progress(row)

    assert validated  # max_epochs >= 1 and the final epoch always validates
    if checkpoint_path is not None:
        save_checkpoint(best, checkpoint_path)
    return best, log_rows


_LOG_HEADER = "epoch,loss,val_miou,lr,seconds\n"


def _log_line(row: dict) -> str:
    val = "" if row["val_miou"] is None else f"{row['val_miou']:.6f}"
    return f"{row['epoch']},{row['loss']:.9g},{val},{row['lr']:.9g},{row['seconds']:.3f}\n"
