"""Training: RMSProp with momentum, the stepwise learning-rate schedule,
epoch loop with seeded shuffling, best-validation-mIOU checkpointing, and
the binary checkpoint container.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TileSet, atomic_open, is_int, read_json
from .errors import ConfigError, CorruptionError, DivergenceError, FormatError, ParseError, TopologyError
from .layers import softmax_cross_entropy
# predict_slice_mask and build_model are not called here; the names stay because bench/spans.py patches them here
from .metrics import miou_image, mmiou, predict_slice_mask, predict_slice_masks, score_masks
from .network import Model, build_model
from .tensor import Tensor, backward, recording
from .topology import count_parameters, parse_topology

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
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and is_int(entry[0])
                    and (is_int(entry[1]) or isinstance(entry[1], float))):
                raise ConfigError(f"lr_schedule entry {entry!r} is not an [epoch, rate] pair")
        thresholds = [e for e, _ in self.lr_schedule]
        if thresholds != sorted(set(thresholds)):
            raise ConfigError("lr schedule epochs must be strictly increasing")
        if not thresholds or thresholds[0] > 0:
            raise ConfigError(f"lr schedule {list(self.lr_schedule)} sets no rate for epoch 0")
        if not all(lr > 0 and math.isfinite(lr) for _, lr in self.lr_schedule):  # NaN fails too
            raise ConfigError("learning rates must be positive and finite")
        if self.batch_size < 1 or self.max_epochs < 1 or self.eval_every < 1:
            raise ConfigError("batch_size, max_epochs and eval_every must be >= 1")


def lr_at_epoch(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate of the largest schedule threshold <= epoch; ``TrainConfig``
    makes sure there is one for every epoch >= 0."""
    return [lr for threshold, lr in cfg.lr_schedule if threshold <= epoch][-1]


# elements per RMSProp update chunk: two rows of this length are all the
# scratch the optimizer holds, whatever the model's size
_STEP_CHUNK = 1 << 16


class RMSProp:
    """Per element: g += wd*w (kernels only); ms = d*ms + (1-d)*g^2;
    mom = m*mom + lr*g/sqrt(ms + eps); w -= mom.

    ``step`` walks each parameter's flat view in chunks of ``_STEP_CHUNK``
    elements through two scratch rows per dtype, so the optimizer holds
    ``ms``, ``mom`` and those rows and nothing parameter-sized besides. An
    element's result does not depend on the chunk it falls in: every chunk
    runs the same ufuncs in the same order."""

    def __init__(self, params, cfg: OptimizerConfig):
        # params: iterable of (name, Tensor, weight_decay_eligible)
        self.cfg = cfg
        self.params = [(name, t, bool(decay)) for name, t, decay in params]
        # np.zeros takes pages the OS has zeroed (calloc) where zeros_like writes every zero itself
        self.ms = {name: np.zeros(t.shape, t.dtype) for name, t, _ in self.params}
        self.mom = {name: np.zeros(t.shape, t.dtype) for name, t, _ in self.params}
        self._rows = {dt: np.empty((2, _STEP_CHUNK), dt) for dt in {t.dtype for _, t, _ in self.params}}
        self.step_count = 0

    def step(self, lr: float) -> None:
        """One update in place. Every gradient is checked before any
        parameter moves, so a ``DivergenceError`` leaves the parameters, ``ms``
        and ``mom`` as they were. The operations and their order are those
        of the class docstring, so results match its direct form bitwise."""
        cfg = self.cfg
        for name, tensor, _ in self.params:
            if tensor.grad is not None and not np.isfinite(tensor.grad).all():
                raise DivergenceError(f"non-finite gradient in {name} at step {self.step_count + 1}")
        self.step_count += 1
        for name, tensor, decays in self.params:
            if tensor.grad is None:
                continue
            if not tensor.data.flags.c_contiguous:  # the flat view below must alias the parameter
                tensor.data = np.ascontiguousarray(tensor.data)
            w, grad = tensor.data.reshape(-1), tensor.grad.reshape(-1)
            ms, mom = self.ms[name].reshape(-1), self.mom[name].reshape(-1)
            rows = self._rows[tensor.dtype]
            for lo in range(0, w.size, _STEP_CHUNK):
                part = slice(lo, lo + _STEP_CHUNK)
                wc, g, msc, momc = w[part], grad[part], ms[part], mom[part]
                a, tmp = rows[:, : len(wc)]
                if decays and cfg.weight_decay:
                    g = np.add(g, np.multiply(wc, cfg.weight_decay, out=a), out=a)
                msc *= cfg.decay
                np.multiply(g, 1.0 - cfg.decay, out=tmp)
                tmp *= g
                msc += tmp
                momc *= cfg.momentum
                np.multiply(g, lr, out=tmp)
                tmp /= np.sqrt(np.add(msc, cfg.epsilon, out=a), out=a)  # g is dead: a is free
                momc += tmp
                wc -= momc


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
    offset = 0
    for kind, tensors in (("param", ckpt.params), ("running", ckpt.buffers)):
        for name, arr in tensors.items():
            directory.append({"name": name, "kind": kind, "shape": list(arr.shape),
                              "offset": offset, "nbytes": 4 * arr.size})
            offset += 4 * arr.size
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
        for tensors in (ckpt.params, ckpt.buffers):
            for arr in tensors.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f4"))  # a float32 array's own buffer: no copy


# the JSON type of each header field and of each field of a tensor's directory entry
_STRING, _INT = (lambda v: isinstance(v, str), "a string"), (is_int, "an integer")
_HEADER_TYPES = {"topology": _STRING, "epoch": _INT,
                 "val_miou": (lambda v: v is None or is_int(v) or isinstance(v, float), "a number or null")}
_TENSOR_TYPES = {"name": _STRING, "kind": _STRING, "offset": _INT, "nbytes": _INT,
                 "shape": (lambda v: isinstance(v, list) and all(is_int(d) and d >= 0 for d in v),
                           "a list of integers >= 0")}


def _check_types(doc: dict, types: dict, path, where: str) -> None:
    for key, (ok, wanted) in types.items():
        if not ok(doc[key]):
            raise FormatError(f"{path}: checkpoint {where}{key!r} is {doc[key]!r}, not {wanted}")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint. The payload is read once and every tensor returned
    is a view of it; a NaN or infinite value is refused. Files written
    before checkpoints dropped the optimizer state still load: their
    ``opt_ms``/``opt_mom`` tensors are bounds-checked like the others and
    then discarded, and the kept tensors are returned as copies so the
    discarded bytes are not held."""
    with open(path, "rb") as fh:
        head = fh.read(len(CKPT_MAGIC) + 4)
        if head[: len(CKPT_MAGIC)] != CKPT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file")
        if len(head) < len(CKPT_MAGIC) + 4:
            raise CorruptionError(f"{path}: file ends before the header length field")
        (header_len,) = struct.unpack_from("<I", head, len(CKPT_MAGIC))
        if os.fstat(fh.fileno()).st_size < len(head) + header_len:  # checked before the header is read
            raise CorruptionError(f"{path}: header of {header_len} bytes runs past the end of the file")
        raw_header = fh.read(header_len)
        payload = memoryview(np.fromfile(fh, np.uint8))  # read once: every tensor below is a view of it
    sections: dict[str, dict[str, np.ndarray] | None] = {
        "param": {}, "running": {}, "opt_ms": None, "opt_mom": None,
    }
    header = read_json(raw_header, path, "checkpoint header")
    try:
        _check_types(header, _HEADER_TYPES, path, "")
        end, legacy = 0, False  # each tensor starts where the previous one ends
        for i, entry in enumerate(header["tensors"]):
            _check_types(entry, _TENSOR_TYPES, path, f"tensor {i} ")
            if entry["offset"] != end:
                raise CorruptionError(f"{path}: tensor {entry['name']} starts at payload byte "
                                      f"{entry['offset']}, not where the previous one ends ({end})")
            raw = payload[end : end + entry["nbytes"]]
            if len(raw) != entry["nbytes"]:
                raise CorruptionError(f"{path}: truncated tensor {entry['name']}")
            end += entry["nbytes"]
            arr = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"])
            kept = sections[entry["kind"]]
            if kept is None:
                legacy = True
                continue
            with np.errstate(invalid="ignore"):  # inf + -inf sums to NaN: refused all the same
                if not np.isfinite(np.sum(arr, dtype=np.float64)):  # finite exactly when every f32 value is
                    raise CorruptionError(f"{path}: tensor {entry['name']} holds a NaN or infinite value")
            kept[entry["name"]] = arr
        if len(payload) != end:
            raise CorruptionError(f"{path}: {len(payload) - end} bytes after the last tensor")
        if legacy:  # copies, so the dropped optimizer state's bytes go with the payload
            sections = {kind: {name: arr.copy() for name, arr in kept.items()}
                        for kind, kept in sections.items() if kept is not None}
        val = header["val_miou"]
        return Checkpoint(
            topology_text=header["topology"],
            epoch=header["epoch"],
            val_miou=float("nan") if val is None else float(val),
            params=sections["param"],
            buffers=sections["running"],
        )
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"{path}: malformed checkpoint header ({type(err).__name__}: {err})") from None


def restore_model(ckpt: Checkpoint) -> Model:
    """Rebuild the model a checkpoint describes; forward passes reproduce the saved model bitwise
    (checkpoints are f32). The model holds the checkpoint's float32 arrays, not copies, so training
    it changes them; only an in-memory float64 checkpoint is cast."""
    try:
        spec = parse_topology(ckpt.topology_text, name="restored")
    except (ParseError, TopologyError) as err:  # the text is data read from the file
        raise FormatError(f"checkpoint stores an invalid topology: {err}") from None
    stored = sum(a.size for a in ckpt.params.values())
    if stored != count_parameters(spec):  # checked before building: the text may ask for any size
        raise FormatError(f"checkpoint holds {stored} parameters, its topology needs {count_parameters(spec)}")
    sections = {"param": iter(ckpt.params.values()), "running": iter(ckpt.buffers.values())}

    def source(kind, shape, fill):  # a missing or misshapen tensor is named by the comparison below
        arr = next(sections[kind], None)
        return np.zeros(shape, np.float32) if arr is None or arr.shape != shape else arr.astype(np.float32, copy=False)

    model = Model(spec, source, np.dtype(np.float32))
    params = [(name, t.data) for name, t, _ in model.parameters()]
    # DNCKPT1 fixes each section's tensor names, order and shapes: one ordered comparison checks them all
    for kind, tensors, slots in (("parameter", ckpt.params, params), ("buffer", ckpt.buffers, model.buffers())):
        have = [(name, arr.shape) for name, arr in tensors.items()]
        need = [(name, arr.shape) for name, arr in slots]
        for i, (got, wanted) in enumerate(itertools.zip_longest(have, need)):
            if got != wanted:
                raise FormatError(f"checkpoint does not match topology: {kind} {i} is {got or 'missing'}, "
                                  f"the topology needs {wanted or 'nothing'}")
    return model


# -------------------------------------------------------------- training loop


def _batch_tensors(tiles: TileSet, idx: np.ndarray, dtype) -> tuple[Tensor, np.ndarray]:
    images = tiles.images[idx][..., None].astype(dtype, copy=False)
    labels = tiles.masks[idx]
    return Tensor(images), labels


def _validation_miou(model: Model, val_data, tile_h: int, tile_w: int) -> float:
    """mmIOU of the reassembled validation slices, as ``evaluate_testset`` scores them."""
    preds = predict_slice_masks(model, [image for image, _ in val_data], tile_h, tile_w)
    _, ious = score_masks(preds, [mask for _, mask in val_data], model.num_classes)
    return mmiou(miou_image(v) for v in ious)


def train(model: Model, train_tiles: TileSet, val_data, cfg: TrainConfig,
          opt_cfg: OptimizerConfig, log_path=None, checkpoint_path=None,
          progress=None):
    """Run the epoch loop and return (best_checkpoint, log_rows).

    ``val_data`` is a sequence of (image, mask) slice pairs; validation
    reassembles full slices with batch norm frozen. The checkpoint with the
    highest validation mIOU is retained (earliest epoch wins ties). Until the
    first validation, the last finished epoch's checkpoint is retained,
    unscored (``val_miou`` NaN). The retained checkpoint is written to
    ``checkpoint_path`` each time it changes, so a run that diverges, is
    interrupted or is killed leaves its best epoch so far on disk.
    """
    if len(train_tiles) == 0:
        raise ConfigError("empty training tile set")
    if not val_data:
        raise ConfigError("need at least one validation slice")
    tile_h, tile_w = train_tiles.tile_h, train_tiles.tile_w

    rng = np.random.default_rng(cfg.seed)
    optimizer = RMSProp(model.parameters(), opt_cfg)
    best: Checkpoint | None = None
    log_rows: list[dict] = []
    n = len(train_tiles)
    if log_path is not None:
        Path(log_path).write_text(_LOG_HEADER)

    for epoch in range(cfg.max_epochs):
        t0 = time.perf_counter()
        lr = lr_at_epoch(epoch, cfg)
        order = rng.permutation(n)
        loss_sum = 0.0
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
        mean_loss = loss_sum / n

        val_miou = float("nan")  # unscored
        if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.max_epochs - 1:
            val_miou = _validation_miou(model, val_data, tile_h, tile_w)
        # an unscored best gives way to every later epoch, a scored one only to a higher score
        if best is None or np.isnan(best.val_miou) or val_miou > best.val_miou:
            best = checkpoint_from_model(model, epoch=epoch, val_miou=val_miou)
            if checkpoint_path is not None:
                save_checkpoint(best, checkpoint_path)

        row = {"epoch": epoch, "loss": mean_loss,
               "val_miou": None if np.isnan(val_miou) else val_miou, "lr": lr,
               "seconds": time.perf_counter() - t0}
        log_rows.append(row)
        if log_path is not None:  # one row per epoch, so a divergence keeps the rows before it
            with open(log_path, "a") as fh:
                fh.write(_log_line(row))
        if progress is not None:
            progress(row)

    return best, log_rows


_LOG_HEADER = "epoch,loss,val_miou,lr,seconds\n"


def _log_line(row: dict) -> str:
    val = "" if row["val_miou"] is None else f"{row['val_miou']:.6f}"
    return f"{row['epoch']},{row['loss']:.9g},{val},{row['lr']:.9g},{row['seconds']:.3f}\n"
