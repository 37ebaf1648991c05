"""Tile-reassembly evaluation: per-class IOU, per-image mIOU, test-set mmIOU.

The test protocol per image: break it into non-overlapping tiles, predict
each tile's mask, unite the predictions, then score the reassembled mask
against ground truth on the covered region (the residual border that does
not fit a whole tile is excluded rather than padded).

One thread pool serves both levels of the work: evaluation, validation and
export-masks predict one slice per worker through `predict_slice_masks`, and
`predict_slice_mask` called on its own maps its tile batches through it.
While it runs, the OpenBLAS numpy loaded is held at one thread, so each
worker's GEMMs stay on its own core and one batch's im2col copies, batch
norm and ReLU overlap another batch's GEMMs instead of competing with BLAS's
own threads. A worker that reaches the pool again runs its items inline.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import io
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import MaskVolume, TileConfig, Volume, cut_tiles, tile_grid, write_pgm
from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor

__all__ = [
    "worker_count",
    "predict_slice_mask",
    "predict_slice_masks",
    "iou_per_class",
    "miou_image",
    "mmiou",
    "confusion_matrix",
    "ImageResult",
    "SegmentationReport",
    "evaluate_testset",
    "report_to_json",
    "report_to_csv",
    "export_mask_pgm",
]


def worker_count() -> int:
    """Worker-thread cap: SEISTILE_THREADS, defaulting to the CPUs this
    process may run on."""
    env = os.environ.get("SEISTILE_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"SEISTILE_THREADS={env!r} is not an integer") from None
        if n < 1:
            raise ConfigError("SEISTILE_THREADS must be >= 1")
        return n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or
    None where there is none to find (MKL, Accelerate, not Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            path = next((line.split()[-1] for line in fh if "openblas" in line.lower()), None)
        if path is None:
            return None
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _OneBlasThread:
    """Holds OpenBLAS at one thread while any caller is inside.

    The count is process-wide, so one instance guards it: the first caller
    in saves it and the last one out restores it, also when the block
    raises. Without OpenBLAS it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self):
        blas = _openblas_threads()
        if blas is not None:
            with self._lock:
                if self._depth == 0:
                    self._saved = blas[0]()
                    blas[1](1)
                self._depth += 1

    def __exit__(self, *exc):
        blas = _openblas_threads()
        if blas is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    blas[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


_POOL_WORKER = threading.local()


def _mark_pool_worker():
    _POOL_WORKER.active = True


def _pool_map(fn, items) -> list:
    """``[fn(x) for x in items]``, in order, on ``min(worker_count(), len(items))``
    threads with OpenBLAS held at one thread.

    It runs inline for one worker or one item, and on a thread that is
    already one of its workers, so there is never a nested pool.
    """
    workers = min(worker_count(), len(items))
    if workers <= 1 or getattr(_POOL_WORKER, "active", False):
        return [fn(x) for x in items]
    # pool shutdown waits for every worker before the BLAS count returns
    with _ONE_BLAS_THREAD, ThreadPoolExecutor(max_workers=workers, initializer=_mark_pool_worker) as pool:
        return list(pool.map(fn, items))


def predict_slice_mask(model, image: np.ndarray, tile_h: int, tile_w: int,
                       batch_size: int = 16) -> np.ndarray:
    """Reassembled class mask for one slice, u8, covering
    floor(H/tile_h)*tile_h x floor(W/tile_w)*tile_w pixels.

    The T tiles run in ceil(T / batch_size) batches whose sizes differ by at
    most one, so the batches depend on T and ``batch_size`` alone, never on
    the thread count. Ties in the per-pixel argmax go to the lowest class
    index; batch norm runs in inference mode.
    """
    cfg = TileConfig(tile_h, tile_w, overlap_fraction=0.0)
    rows, cols = tile_grid(*image.shape, cfg)
    tiles = cut_tiles(image, cfg)[..., None].astype(model.dtype, copy=False)  # T x th x tw x 1

    def classify(batch):
        logits = model.forward(Tensor(batch), train=False).data
        return np.argmax(logits, axis=3).astype(np.uint8)

    batches = np.array_split(tiles, -(-len(tiles) // batch_size))
    classes = np.concatenate(_pool_map(classify, batches))
    return classes.reshape(rows, cols, tile_h, tile_w).swapaxes(1, 2).reshape(rows * tile_h, cols * tile_w)


def predict_slice_masks(model, images, tile_h: int, tile_w: int) -> list[np.ndarray]:
    """``predict_slice_mask`` of each image, in order, one image per pool worker."""
    return _pool_map(lambda image: predict_slice_mask(model, image, tile_h, tile_w), images)


def iou_per_class(pred: np.ndarray, gt: np.ndarray, num_classes: int = 7) -> np.ndarray:
    """IOU_c = |pred==c and gt==c| / |pred==c or gt==c|; empty union scores 1.

    The vacuous 1.0 keeps all-class averaging well defined on images where a
    class is absent and correctly predicted absent.
    """
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"pred {pred.shape} and gt {gt.shape} disagree")
    ious = np.empty(num_classes, dtype=np.float64)
    for c in range(num_classes):
        p, g = pred == c, gt == c
        union = np.logical_or(p, g).sum()
        ious[c] = 1.0 if union == 0 else np.logical_and(p, g).sum() / union
    return ious


def miou_image(ious) -> float:
    ious = np.asarray(ious, dtype=np.float64)
    if ious.size == 0:
        raise ContractError("mIOU of an empty IOU vector")
    # fsum: correctly-rounded, so the mean is exactly permutation-invariant
    return math.fsum(ious) / ious.size


def mmiou(mious) -> float:
    mious = np.asarray(list(mious), dtype=np.float64)
    if mious.size == 0:
        raise ContractError("mmIOU of an empty image list")
    return math.fsum(mious) / mious.size


def confusion_matrix(pred: np.ndarray, gt: np.ndarray, num_classes: int = 7) -> np.ndarray:
    """Pixel counts indexed [gt_class, pred_class]."""
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"pred {pred.shape} and gt {gt.shape} disagree")
    idx = gt.astype(np.int64).ravel() * num_classes + pred.astype(np.int64).ravel()
    counts = np.bincount(idx, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


@dataclass
class ImageResult:
    index: int
    ious: np.ndarray  # per-class, length num_classes
    miou: float


@dataclass
class SegmentationReport:
    images: list[ImageResult]
    mmiou: float
    per_class_mean: np.ndarray  # mean over images of per-image per-class IOU
    confusion: np.ndarray  # num_classes x num_classes, [gt, pred]
    coverage_h: int
    coverage_w: int
    num_classes: int = 7
    tile_h: int = 0
    tile_w: int = 0
    extra: dict = field(default_factory=dict)


def evaluate_testset(model, volume: Volume, masks: MaskVolume, test_indices,
                     tile_h: int, tile_w: int) -> SegmentationReport:
    """Run the reassembly protocol over the given slices.

    Per-image metrics are computed on the covered region only; images are
    predicted on the evaluation pool, one slice per worker, and always
    aggregated in ascending index order.
    """
    test_indices = sorted(int(i) for i in test_indices)
    if not test_indices:
        raise ContractError("empty test-slice list")
    for i in test_indices:
        if not 0 <= i < volume.num_slices:
            raise ConfigError(f"test slice {i} outside volume with {volume.num_slices} slices")
    num_classes = masks.num_classes
    preds = predict_slice_masks(model, [volume.slice(i) for i in test_indices], tile_h, tile_w)
    images, confusion = [], np.zeros((num_classes, num_classes), dtype=np.int64)
    for i, pred in zip(test_indices, preds):
        gt = masks.slice(i)[: pred.shape[0], : pred.shape[1]]
        ious = iou_per_class(pred, gt, num_classes)
        images.append(ImageResult(index=i, ious=ious, miou=miou_image(ious)))
        confusion += confusion_matrix(pred, gt, num_classes)
    return SegmentationReport(
        images=images,
        mmiou=mmiou([r.miou for r in images]),
        per_class_mean=np.stack([r.ious for r in images]).mean(axis=0),
        confusion=confusion,
        coverage_h=preds[0].shape[0], coverage_w=preds[0].shape[1],  # every slice has one shape
        num_classes=num_classes,
        tile_h=tile_h,
        tile_w=tile_w,
    )


def report_to_json(report: SegmentationReport) -> str:
    doc = {
        "mmiou": report.mmiou,
        "num_classes": report.num_classes,
        "tile": [report.tile_h, report.tile_w],
        "coverage": [report.coverage_h, report.coverage_w],
        "per_class_mean_iou": [float(v) for v in report.per_class_mean],
        "confusion": report.confusion.tolist(),
        "images": [
            {"index": r.index, "ious": [float(v) for v in r.ious], "miou": r.miou}
            for r in report.images
        ],
    }
    doc.update(report.extra)
    return json.dumps(doc, indent=2, sort_keys=True)


def report_to_csv(report: SegmentationReport) -> str:
    """One row per image: index, IOU per class, mIOU; final row the mmIOU."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["image"] + [f"iou_{c}" for c in range(report.num_classes)] + ["miou"])
    for r in report.images:
        writer.writerow([r.index] + [f"{v:.6f}" for v in r.ious] + [f"{r.miou:.6f}"])
    writer.writerow(["mmiou"] + [""] * report.num_classes + [f"{report.mmiou:.6f}"])
    return buf.getvalue()


def export_mask_pgm(path, mask: np.ndarray, num_classes: int = 7) -> None:
    """Write a class mask as PGM with classes spread over the gray range."""
    step = 255 // (num_classes - 1) if num_classes > 1 else 255
    write_pgm(path, mask.astype(np.uint16) * step)
