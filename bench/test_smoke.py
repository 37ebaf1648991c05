"""Smoke test for the benchmark: every workload runs on a tiny topology and
tiny inputs, reports every metric BENCHMARK.json names with its unit, and
passes its correctness checks. Timings are not gated.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from seistile import layers, metrics, network, tensor  # noqa: E402
from spans import Instrumentation, Tracer, self_times  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--profile", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_passes_its_checks(workload, trace):
    result, text = _run(workload, trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], text
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), text


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-full", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_eval_check_catches_masks_that_depend_on_the_thread(tmp_path, monkeypatch):
    monkeypatch.delenv("SEISTILE_THREADS", raising=False)
    wl = W.EvalFull(1, W.SMOKE, tmp_path)
    wl.setup()
    inner = metrics.predict_slice_mask

    def off_by_one_on_main(*args, **kwargs):
        mask = inner(*args, **kwargs)
        return mask ^ 1 if threading.current_thread() is threading.main_thread() else mask

    monkeypatch.setattr(metrics, "predict_slice_mask", off_by_one_on_main)
    for _ in range(1 + len(wl.indices)):  # the pooled pass, then each slice alone
        wl.unit()
    assert wl.failed == len(wl.indices)
    assert wl.attempted == 2 * len(wl.indices)


def _tiny_grads():
    spec = W._spec(0.05)
    model = network.build_model(spec, seed=5, dtype=np.float64)
    rng = np.random.default_rng(5)
    x = tensor.Tensor(rng.uniform(0, 255, (2, 16, 24, 1)))
    labels = rng.integers(0, 7, (2, 16, 24))
    with tensor.recording() as tape:
        loss = layers.softmax_cross_entropy(model.forward(x, train=True), labels)
    tensor.backward(loss, tape)
    return model, {n: t.grad.copy() for n, t, _ in model.parameters()}


def test_traced_backward_returns_the_same_gradients():
    _, plain = _tiny_grads()
    originals = (layers.conv2d, layers.record_op, tensor.backward)
    tracer = Tracer("smoke")
    inst = Instrumentation(tracer, 16, 24).install()
    try:
        model, traced = _tiny_grads()
    finally:
        inst.close()
    assert (layers.conv2d, layers.record_op, tensor.backward) == originals
    assert all("forward" not in vars(b) for b in model.blocks)
    assert plain.keys() == traced.keys()
    assert all(np.array_equal(plain[n], traced[n]) for n in plain)
    names = {sp.name for sp in tracer.spans}
    assert {"layers.conv2d.bwd", "layers.conv2d_transposed.bwd", "network.block0",
            "tensor.backward"} <= names
    assert all(sp.attrs.get("block") is not None for sp in tracer.spans
               if sp.name.startswith("layers.conv2d") and sp.name.endswith(".bwd"))


def test_tracer_keeps_a_stack_per_thread():
    tracer = Tracer("stress")
    threads, depth, rounds = 8, 3, 200
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def work():
        for _ in range(rounds):
            with tracer.span("a"), tracer.span("b"), tracer.span("c"):
                pass

    try:
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(old)
    spans = tracer.spans
    assert len(spans) == threads * depth * rounds
    assert len({sp.id for sp in spans}) == len(spans)
    by_id = {sp.id: sp for sp in spans}
    for sp in spans:
        if sp.name == "a":
            assert sp.parent is None
        else:
            parent = by_id[sp.parent]
            assert parent.thread == sp.thread
            assert parent.name == {"b": "a", "c": "b"}[sp.name]
            assert parent.start <= sp.start and sp.end <= parent.end
    assert all(t >= 0 for t in self_times(spans).values())
