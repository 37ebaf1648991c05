import itertools
import os
import sys
import threading

import numpy as np
import pytest

import seistile.metrics as metrics_mod
from seistile.data import (
    MaskVolume,
    SynthConfig,
    Volume,
    generate_synthetic_volume,
    preprocess_rescale,
)
from seistile.errors import ConfigError, ContractError, DimensionError, LabelError
from seistile.metrics import (
    confusion_matrix,
    evaluate_testset,
    export_mask_pgm,
    iou_per_class,
    miou_image,
    mmiou,
    predict_slice_mask,
    report_to_csv,
    report_to_json,
    worker_count,
)
from seistile.network import build_model
from seistile.tensor import Tensor
from seistile.topology import parse_topology, preset, scale_widths


class OracleModel:
    """Emits one-hot logits of the class id stored in the image pixel."""

    dtype = np.float64

    def __init__(self, num_classes=7):
        self.num_classes = num_classes

    def forward(self, x, train=False):
        values = x.data[..., 0].astype(np.int64)
        logits = np.zeros(values.shape + (self.num_classes,))
        np.put_along_axis(logits, values[..., None], 1.0, axis=3)
        return Tensor(logits)


class ConstantModel:
    """Always predicts class 0 (all logits equal, argmax tie -> 0)."""

    dtype = np.float64

    def __init__(self, num_classes=7):
        self.num_classes = num_classes

    def forward(self, x, train=False):
        return Tensor(np.zeros(x.data.shape[:3] + (self.num_classes,)))


# ------------------------------------------------------------------ raw IOUs

def test_iou_identity_is_all_ones():
    gt = np.random.default_rng(0).integers(0, 7, size=(30, 40))
    np.testing.assert_array_equal(iou_per_class(gt, gt, 7), np.ones(7))


def test_iou_hand_counted_case():
    gt = np.array([[0, 0], [1, 1]])
    pred = np.array([[0, 1], [1, 1]])
    ious = iou_per_class(pred, gt, num_classes=2)
    np.testing.assert_allclose(ious, [1 / 2, 2 / 3])
    assert abs(miou_image(ious) - 0.5833) < 1e-4


def test_iou_absent_class_scores_one():
    gt = np.zeros((4, 4), dtype=np.uint8)
    pred = np.zeros((4, 4), dtype=np.uint8)
    ious = iou_per_class(pred, gt, num_classes=3)
    np.testing.assert_array_equal(ious, [1.0, 1.0, 1.0])


def test_iou_shape_mismatch():
    with pytest.raises(DimensionError):
        iou_per_class(np.zeros((2, 2)), np.zeros((2, 3)))


def test_iou_symmetric_under_joint_relabeling():
    rng = np.random.default_rng(1)
    gt = rng.integers(0, 5, size=(20, 20))
    pred = rng.integers(0, 5, size=(20, 20))
    perm = rng.permutation(5)
    base = iou_per_class(pred, gt, 5)
    relabeled = iou_per_class(perm[pred], perm[gt], 5)
    np.testing.assert_allclose(sorted(base), sorted(relabeled))


# -------------------------------------------------------------- aggregation

TABLE_ROWS = [
    # per-class IOUs, published mIOU
    ([0.888, 0.531, 0.983, 0.887, 0.997, 0.989, 0.998], 0.896),
    ([0.889, 0.350, 0.897, 0.596, 0.968, 0.855, 0.989], 0.792),
    ([0.991, 0.991, 0.999, 0.990, 1.000, 0.998, 1.000], 0.995),
    ([0.970, 0.983, 0.994, 0.981, 0.999, 0.995, 0.995], 0.988),
]


@pytest.mark.parametrize("ious,expected", TABLE_ROWS)
def test_published_per_class_rows_average_to_their_miou(ious, expected):
    assert abs(miou_image(ious) - expected) < 0.001


def test_five_slice_best_row_tight_tolerance():
    ious, expected = TABLE_ROWS[0]
    assert abs(miou_image(ious) - expected) < 0.0005


def test_mmiou_of_constants_and_permutation_invariance():
    assert mmiou([0.75, 0.75, 0.75]) == 0.75
    values = [0.1, 0.9, 0.4, 0.7]
    assert mmiou(values) == mmiou(list(reversed(values)))


def test_empty_aggregations_rejected():
    with pytest.raises(ContractError):
        miou_image([])
    with pytest.raises(ContractError):
        mmiou([])


def test_confusion_row_sums_are_gt_counts():
    rng = np.random.default_rng(2)
    gt = rng.integers(0, 7, size=(50, 60))
    pred = rng.integers(0, 7, size=(50, 60))
    cm = confusion_matrix(pred, gt, 7)
    np.testing.assert_array_equal(cm.sum(axis=1), np.bincount(gt.ravel(), minlength=7))
    assert cm.sum() == gt.size


def _boolean_ious(pred, gt, num_classes):
    """IOU by its definition: one pair of boolean masks per class."""
    ious = np.empty(num_classes)
    for c in range(num_classes):
        p, g = pred == c, gt == c
        union = np.logical_or(p, g).sum()
        ious[c] = 1.0 if union == 0 else np.logical_and(p, g).sum() / union
    return ious


@pytest.mark.parametrize("num_classes", [2, 7, 9])
@pytest.mark.parametrize("seed", range(4))
def test_ious_off_the_confusion_matrix_equal_the_boolean_definition_bitwise(num_classes, seed):
    rng = np.random.default_rng(seed)
    present = rng.choice(num_classes, size=max(1, num_classes - seed), replace=False)  # some classes absent
    gt = rng.choice(present, size=(48, 72)).astype(np.uint8)
    pred = np.where(rng.random(gt.shape) < 0.7, gt, rng.choice(present, size=gt.shape)).astype(np.uint8)
    got = iou_per_class(pred, gt, num_classes)
    want = _boolean_ious(pred, gt, num_classes)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(confusion_matrix(pred, gt, num_classes).sum(axis=0),
                                  np.bincount(pred.ravel(), minlength=num_classes))


@pytest.mark.parametrize("pred, gt", [
    ([[7, 7], [2, 3]], [[0, 1], [2, 3]]),  # would count as (gt 1, pred 0) and (gt 2, pred 0)
    ([[0, 1], [2, 3]], [[0, 1], [2, 9]]),
    ([[0, -1], [2, 3]], [[0, 1], [2, 3]]),
])
def test_class_outside_the_range_raises_label_error(pred, gt):
    for score in (confusion_matrix, iou_per_class):
        with pytest.raises(LabelError, match=r"outside \[0, 7\)"):
            score(np.array(pred), np.array(gt), 7)


# ---------------------------------------------------------------- reassembly

def test_predict_slice_mask_oracle_reproduces_gt():
    rng = np.random.default_rng(3)
    gt = rng.integers(0, 7, size=(50, 70)).astype(np.uint8)
    pred = predict_slice_mask(OracleModel(), gt.astype(np.float64), 20, 30)
    assert pred.shape == (40, 60)  # covered region only
    np.testing.assert_array_equal(pred, gt[:40, :60])


def test_predict_covered_region_dims():
    img = np.zeros((481, 1501))
    pred = predict_slice_mask(ConstantModel(), img, 80, 120)
    assert pred.shape == (480, 1440)


def test_predict_tiles_disjoint_and_exhaustive(monkeypatch):
    # a model that stamps a running tile counter proves each covered pixel
    # is written exactly once; the counter needs the batches in order
    monkeypatch.setenv("SEISTILE_THREADS", "1")
    monkeypatch.setattr(metrics_mod, "TILE_BATCH", 2)

    class StampModel:
        dtype = np.float64
        count = 0

        def forward(self, x, train=False):
            n = x.data.shape[0]
            logits = np.zeros(x.data.shape[:3] + (7,))
            for i in range(n):
                logits[i, :, :, (StampModel.count + i) % 7] = 1.0
            StampModel.count += n
            return Tensor(logits)

    pred = predict_slice_mask(StampModel(), np.zeros((40, 60)), 20, 20)
    want = np.block([[np.full((20, 20), 0), np.full((20, 20), 1), np.full((20, 20), 2)],
                     [np.full((20, 20), 3), np.full((20, 20), 4), np.full((20, 20), 5)]])
    np.testing.assert_array_equal(pred, want)


def test_pooled_predict_puts_each_tile_at_its_origin(monkeypatch):
    # each tile carries its own index as its pixel value, so the check
    # holds whatever order the pooled batches run in
    monkeypatch.setenv("SEISTILE_THREADS", "2")
    monkeypatch.setattr(metrics_mod, "TILE_BATCH", 2)
    want = np.block([[np.full((20, 20), 3 * row + col) for col in range(3)] for row in range(2)])
    pred = predict_slice_mask(OracleModel(), want.astype(np.float64), 20, 20)
    np.testing.assert_array_equal(pred, want)


class BatchRecordingModel(ConstantModel):
    """ConstantModel that notes (on the main thread, batch size, BLAS thread
    count or None) per forward."""

    def __init__(self, blas_threads=None):
        super().__init__()
        self.seen = []
        self.blas_threads = blas_threads

    def forward(self, x, train=False):
        on_main = threading.current_thread() is threading.main_thread()
        self.seen.append((on_main, x.data.shape[0], self.blas_threads and self.blas_threads()))
        return super().forward(x, train)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_predict_splits_tiles_into_even_batches(monkeypatch, threads):
    monkeypatch.setenv("SEISTILE_THREADS", threads)
    model = BatchRecordingModel()
    predict_slice_mask(model, np.zeros((40, 180)), 20, 20)  # 18 tiles
    assert [size for _, size, _ in model.seen] == [9, 9]


def test_predict_is_deterministic():
    rng = np.random.default_rng(4)
    img = rng.normal(size=(40, 40))
    a = predict_slice_mask(ConstantModel(), img, 20, 20)
    b = predict_slice_mask(ConstantModel(), img, 20, 20)
    np.testing.assert_array_equal(a, b)


def test_predict_rejects_oversized_tile():
    with pytest.raises(ConfigError):
        predict_slice_mask(ConstantModel(), np.zeros((16, 16)), 32, 32)


def test_predict_rejects_a_tile_the_model_returns_at_another_size():
    model = build_model(parse_topology("c3 s2 4\ntc3 s2 4\nout 7"), seed=0)  # 9 -> 5 -> 10
    with pytest.raises(ConfigError, match="8x9 tiles into 8x10"):
        predict_slice_mask(model, np.zeros((16, 18)), 8, 9)


# ------------------------------------------------------------- full test set

def _synthetic_eval_setup():
    vol, masks = generate_synthetic_volume(
        SynthConfig(slices=4, height=60, width=80, num_classes=7, horizon_waviness=1.5)
    )
    oracle_vol = Volume(data=masks.data.astype(np.float32))  # image pixel == class id
    return oracle_vol, masks


def test_evaluate_testset_gt_oracle_is_perfect():
    oracle_vol, masks = _synthetic_eval_setup()
    report = evaluate_testset(OracleModel(), oracle_vol, masks, [0, 2, 3], 30, 40)
    assert report.mmiou == 1.0
    for r in report.images:
        np.testing.assert_array_equal(r.ious, np.ones(7))
    assert np.all(report.confusion == np.diag(np.diag(report.confusion)))


def test_evaluate_constant_model_hand_case():
    # four equal horizontal bands of classes 0..3
    gt = np.repeat(np.arange(4, dtype=np.uint8), 10)[None, :, None]
    gt = np.broadcast_to(gt, (1, 40, 40)).copy()
    masks = MaskVolume(data=gt, num_classes=7)
    vol = Volume(data=np.zeros((1, 40, 40), dtype=np.float32))
    report = evaluate_testset(ConstantModel(), vol, masks, [0], 40, 40)
    np.testing.assert_allclose(report.images[0].ious, [0.25, 0, 0, 0, 1, 1, 1])
    np.testing.assert_allclose(report.mmiou, 3.25 / 7)


def test_evaluate_single_image_mmiou_equals_its_miou():
    oracle_vol, masks = _synthetic_eval_setup()
    report = evaluate_testset(OracleModel(), oracle_vol, masks, [1], 30, 40)
    assert report.mmiou == report.images[0].miou


def test_evaluate_parallel_matches_serial(monkeypatch):
    oracle_vol, masks = _synthetic_eval_setup()
    monkeypatch.setenv("SEISTILE_THREADS", "1")
    serial = evaluate_testset(OracleModel(), oracle_vol, masks, [0, 1, 2, 3], 30, 40)
    monkeypatch.setenv("SEISTILE_THREADS", "3")
    parallel = evaluate_testset(OracleModel(), oracle_vol, masks, [0, 1, 2, 3], 30, 40)
    assert serial.mmiou == parallel.mmiou
    np.testing.assert_array_equal(serial.confusion, parallel.confusion)


def test_evaluation_builds_one_pool_for_slices_and_tile_batches(monkeypatch):
    oracle_vol, masks = _synthetic_eval_setup()
    monkeypatch.setenv("SEISTILE_THREADS", "2")
    built = []

    class CountingPool(metrics_mod.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(threading.current_thread() is threading.main_thread())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(metrics_mod, "ThreadPoolExecutor", CountingPool)
    report = evaluate_testset(OracleModel(), oracle_vol, masks, [0, 1, 2, 3], 10, 10)  # 48 tiles a slice
    assert built == [True]
    assert report.mmiou == 1.0


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SEISTILE_THREADS", "5")
    assert worker_count() == 5
    monkeypatch.setenv("SEISTILE_THREADS", "zero")
    with pytest.raises(ConfigError):
        worker_count()


def test_worker_count_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("SEISTILE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert worker_count() == 3
    monkeypatch.setenv("SEISTILE_THREADS", "5")
    assert worker_count() == 5
    monkeypatch.delenv("SEISTILE_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_count() == 64


# ------------------------------------------------------- BLAS in the slice pool

@pytest.fixture
def blas_threads(monkeypatch):
    """OpenBLAS thread-count getter. The test runs with the count at 2 and
    two evaluation workers; the process's own count is restored after it."""
    blas = metrics_mod._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count symbol; evaluation leaves it alone")
    get, set_ = blas
    before = get()
    set_(2)
    monkeypatch.setenv("SEISTILE_THREADS", "2")
    yield get
    set_(before)


def _recording_blas_threads(monkeypatch, get, on_slice=None):
    """Patch predict_slice_mask to note (thread, BLAS count) per slice."""
    inner = metrics_mod.predict_slice_mask
    calls = itertools.count()
    seen = []

    def noting(model, image, *args, **kwargs):
        n = next(calls)
        seen.append((threading.current_thread() is threading.main_thread(), get()))
        if on_slice is not None:
            on_slice(n)
        return inner(model, image, *args, **kwargs)

    monkeypatch.setattr(metrics_mod, "predict_slice_mask", noting)
    return seen


def test_pooled_evaluation_runs_blas_single_threaded_then_restores(blas_threads, monkeypatch):
    oracle_vol, masks = _synthetic_eval_setup()
    seen = _recording_blas_threads(monkeypatch, blas_threads)
    evaluate_testset(OracleModel(), oracle_vol, masks, [0, 1, 2, 3], 30, 40)
    assert seen == [(False, 1)] * 4
    assert blas_threads() == 2


def test_predict_alone_runs_batches_on_workers_at_one_blas_thread_then_restores(blas_threads):
    model = BatchRecordingModel(blas_threads)
    predict_slice_mask(model, np.zeros((40, 180)), 20, 20)
    assert model.seen == [(False, 9, 1)] * 2
    assert blas_threads() == 2


def test_sequential_evaluation_leaves_blas_threads_alone(blas_threads, monkeypatch):
    oracle_vol, masks = _synthetic_eval_setup()
    monkeypatch.setenv("SEISTILE_THREADS", "1")
    seen = _recording_blas_threads(monkeypatch, blas_threads)
    evaluate_testset(OracleModel(), oracle_vol, masks, [0, 1], 30, 40)
    assert seen == [(True, 2)] * 2


def test_blas_threads_restored_when_a_worker_raises(blas_threads, monkeypatch):
    oracle_vol, masks = _synthetic_eval_setup()

    def fail_on_third(n):
        if n == 2:
            raise DimensionError("injected")

    _recording_blas_threads(monkeypatch, blas_threads, fail_on_third)
    with pytest.raises(DimensionError, match="injected"):
        evaluate_testset(OracleModel(), oracle_vol, masks, [0, 1, 2, 3], 30, 40)
    assert blas_threads() == 2


def test_nested_evaluations_restore_blas_threads_once(blas_threads, monkeypatch):
    oracle_vol, masks = _synthetic_eval_setup()
    inner_done = []

    def nested_on_first(n):
        if n == 0:
            evaluate_testset(OracleModel(), oracle_vol, masks, [0, 1], 30, 40)
            inner_done.append(blas_threads())

    seen = _recording_blas_threads(monkeypatch, blas_threads, nested_on_first)
    evaluate_testset(OracleModel(), oracle_vol, masks, [0, 1, 2], 30, 40)
    assert inner_done == [1]  # the outer pool still runs
    assert len(seen) == 5 and all(count == 1 for _, count in seen)
    assert blas_threads() == 2


def test_concurrent_evaluations_hold_one_blas_thread_until_the_last_ends(blas_threads, monkeypatch):
    oracle_vol, masks = _synthetic_eval_setup()
    seen = _recording_blas_threads(monkeypatch, blas_threads)
    errors = []

    def evaluate_repeatedly():
        try:
            for _ in range(5):
                evaluate_testset(OracleModel(), oracle_vol, masks, [0, 1, 2, 3], 30, 40)
        except Exception as err:  # reported by the main thread below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=evaluate_repeatedly) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert errors == []
    assert len(seen) == 4 * 5 * 4 and all(count == 1 for _, count in seen)
    assert blas_threads() == 2


def test_real_model_evaluation_is_bitwise_independent_of_the_thread_count(monkeypatch):
    volume, masks = generate_synthetic_volume(SynthConfig(
        slices=3, height=48, width=64, num_classes=7, horizon_waviness=1.0))
    volume = preprocess_rescale(volume)
    spec = scale_widths(preset("danet-fcn2"), 0.05, name="danet-fcn2-w0.05")
    model = build_model(spec, seed=4, dtype=np.float32)
    inner = metrics_mod.predict_slice_mask
    slice_at = {volume.slice(i).ctypes.data: i for i in range(3)}
    runs, alone = [], []
    for threads in ("1", "2"):
        monkeypatch.setenv("SEISTILE_THREADS", threads)
        with monkeypatch.context() as batches_of_two:
            # four tiles a slice in two batches, which run on the pool under 2 workers
            batches_of_two.setattr(metrics_mod, "TILE_BATCH", 2)
            alone.append([inner(model, volume.slice(i), 24, 32) for i in range(3)])
        predicted = {}

        def keeping(model, image, *args, **kwargs):
            mask = inner(model, image, *args, **kwargs)
            predicted[slice_at[image.ctypes.data]] = mask
            return mask

        monkeypatch.setattr(metrics_mod, "predict_slice_mask", keeping)
        runs.append((evaluate_testset(model, volume, masks, [0, 1, 2], 24, 32), predicted))
    (serial, serial_masks), (pooled, pooled_masks) = runs
    assert serial_masks.keys() == pooled_masks.keys() == {0, 1, 2}
    for i in serial_masks:
        np.testing.assert_array_equal(serial_masks[i], pooled_masks[i])
    np.testing.assert_array_equal(serial.confusion, pooled.confusion)
    assert serial.mmiou == pooled.mmiou
    for serial_mask, pooled_mask in zip(*alone):
        np.testing.assert_array_equal(serial_mask, pooled_mask)


# ------------------------------------------------------------------- reports

def test_report_csv_layout():
    oracle_vol, masks = _synthetic_eval_setup()
    report = evaluate_testset(OracleModel(), oracle_vol, masks, [0, 1], 30, 40)
    lines = report_to_csv(report).strip().splitlines()
    assert lines[0].startswith("image,iou_0")
    assert len(lines) == 4  # header + 2 images + mmiou row
    assert lines[-1].startswith("mmiou")
    assert lines[-1].endswith("1.000000")


def test_report_json_fields():
    import json

    oracle_vol, masks = _synthetic_eval_setup()
    report = evaluate_testset(OracleModel(), oracle_vol, masks, [0], 30, 40)
    doc = json.loads(report_to_json(report))
    assert doc["mmiou"] == 1.0
    assert len(doc["per_class_mean_iou"]) == 7
    assert doc["coverage"] == [60, 80]


def test_export_mask_pgm_scales_classes(tmp_path):
    mask = np.arange(7, dtype=np.uint8).reshape(1, 7)
    mask = np.repeat(mask, 2, axis=0)
    path = tmp_path / "m.pgm"
    export_mask_pgm(path, mask, num_classes=7)
    row = bytes(range(0, 7 * 42, 42))  # floor(255/6) per class
    assert path.read_bytes() == b"P5\n7 2\n255\n" + row + row
