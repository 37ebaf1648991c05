"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files around calls into
seistile's public functions, as callers inside the library see them: each
patch replaces the name in the module the caller looks it up in, so
``Conv2D.forward`` reaches the traced ``layers.conv2d`` and ``cmd_train``
reaches the traced ``train.save_checkpoint``. Nothing under ``src/`` changes.

A span holds name, start, end, parent span, workload and thread. Each thread
keeps its own span stack, because ``evaluate_testset`` predicts slices in a
thread pool; worker-thread spans that open with an empty stack take the
open ``metrics.evaluate_testset`` span as parent. Spans stay in memory and
are written out when the run ends.

Backward time per op and per block comes from wrapping each backward rule
where it is registered: at the ``record_op`` that ``layers`` imports, and at
the one ``tensor``'s elementwise ops use. The wrapper times the rule and
returns its gradients unchanged.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from seistile import cli, data, layers, metrics, network, tensor, train
from seistile.topology import TABLE_OPS_PER_MAC, TopologySpec, count_operations

CONV_OPS = ("conv2d", "conv2d_transposed")
LAYER_OPS = CONV_OPS + ("batch_norm", "softmax_cross_entropy")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    phase: str
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self, workload: str):
        self.workload = workload
        self.phase = "setup"
        self.spans: list[Span] = []
        self.adopting: int | None = None  # parent for spans opened on an empty stack
        self.muted = False  # set while the benchmark checks outputs, so checks leave no spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if self.muted:
            yield Span(-1, name, 0.0, 0.0, None, self.workload, self.phase, 0, attrs)
            return
        stack = self.stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1].id if stack else self.adopting
        sp = Span(sid, name, time.perf_counter(), 0.0, parent, self.workload, self.phase,
                  threading.get_ident(), attrs)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sp in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": sp.id, "name": sp.name, "start": sp.start, "end": sp.end,
                    "parent": sp.parent, "workload": sp.workload, "phase": sp.phase, "thread": sp.thread,
                    **{k: v for k, v in sp.attrs.items() if isinstance(v, (int, float, str))},
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children on other threads may overlap each other, so the covered part is
    the union of the child intervals, clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered, reach = 0.0, sp.start
        for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, reach), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.id] = sp.duration - covered
    return out


# ------------------------------------------------------------ instrumentation


def block_ops(spec: TopologySpec, tile_h: int, tile_w: int) -> list[int]:
    """Counted forward ops per tile of each block: prefix i+1 minus prefix i."""
    prefix = [count_operations(TopologySpec(spec.name, spec.layers[:i], spec.input_channels),
                               tile_h, tile_w, TABLE_OPS_PER_MAC)
              for i in range(len(spec.layers) + 1)]
    return [b - a for a, b in zip(prefix, prefix[1:])]


def _conv_attrs(transposed: bool, x, kernel, out) -> dict:
    """Counted MACs (1 op/MAC) and bytes computed from array sizes."""
    n, h, w, _ = x.shape
    kh, kw, a, b = kernel.shape
    oh, ow = (h, w) if transposed else out.shape[1:3]  # coarse side of the geometry
    macs = n * oh * ow * kh * kw * a * b * TABLE_OPS_PER_MAC
    grads = 1 + int(x.requires_grad)  # kernel gradient, plus the input gradient if needed
    return {"ops": macs, "bwd_ops": macs * grads,
            "bytes_computed": x.data.nbytes + kernel.data.nbytes + out.data.nbytes}


class Instrumentation:
    """Patches seistile's entry points with traced versions; ``close`` undoes it."""

    def __init__(self, tracer: Tracer, tile_h: int, tile_w: int):
        self.tracer = tracer
        self.tile = (tile_h, tile_w)
        self._saved: list[tuple[object, str, object]] = []
        self._models: list = []

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_all(self, attr: str, value, *owners) -> None:
        for owner in owners:
            self._patch(owner, attr, value)

    def install(self) -> "Instrumentation":
        tr = self.tracer
        for op in LAYER_OPS:
            self._patch(layers, op, self._layer_op(op, getattr(layers, op)))
        self._patch(train, "softmax_cross_entropy", layers.softmax_cross_entropy)
        self._patch(layers, "record_op", self._record_op(layers.record_op))
        self._patch(tensor, "record_op", self._record_op(tensor.record_op))
        self._patch(layers, "add", tr.wrap("tensor.elementwise", layers.add))
        self._patch(layers, "relu", tr.wrap("tensor.elementwise", layers.relu))
        self._patch(network, "relu", layers.relu)
        self._patch_all("backward", self._backward(tensor.backward), tensor, train)

        self._patch_all("build_model", self._model_factory("network.build_model", network.build_model),
                        network, cli, train)
        self._patch_all("restore_model", self._model_factory("train.restore_model", train.restore_model),
                        train, cli)
        self._patch(train.RMSProp, "step", tr.wrap("train.rmsprop_step", train.RMSProp.step))
        self._patch(train, "checkpoint_from_model",
                    tr.wrap("train.checkpoint_copy", train.checkpoint_from_model))
        self._patch(train, "save_checkpoint", self._save_checkpoint(train.save_checkpoint))
        self._patch_all("load_checkpoint", tr.wrap("train.load_checkpoint", train.load_checkpoint),
                        train, cli)
        self._patch(train, "_validation_miou", tr.wrap("train.validation", train._validation_miou))

        self._patch_all("predict_slice_mask", self._predict(metrics.predict_slice_mask), metrics, train)
        self._patch_all("evaluate_testset", self._evaluate(metrics.evaluate_testset), metrics, cli)
        for name in ("iou_per_class", "confusion_matrix"):
            self._patch_all(name, tr.wrap("metrics.scoring", getattr(metrics, name)),
                            *(m for m in (metrics, train) if name in m.__dict__))

        for name, span in (("load_volume", "data.load"), ("load_masks", "data.load"),
                           ("preprocess_rescale", "data.preprocess_rescale"),
                           ("merge_classes", "data.merge_classes"),
                           ("split_blocks", "data.split_blocks"),
                           ("save_volume", "data.write"), ("save_masks", "data.write"),
                           ("generate_synthetic_volume", "data.generate_synthetic_volume")):
            self._patch(data, name, tr.wrap(span, getattr(data, name)))
        self._patch(data, "tile_volume", self._tile_volume(data.tile_volume))
        self._patch(data.TileSet, "save", tr.wrap("data.write", data.TileSet.save))
        load = data.TileSet.__dict__["load"].__func__
        self._patch(data.TileSet, "load", classmethod(tr.wrap("data.tileset_load", load)))
        return self

    def instrument_model(self, model) -> None:
        if any(m is model for m in self._models):  # restore_model builds through build_model
            return
        ops = block_ops(model.spec, *self.tile)
        for i, block in enumerate(model.blocks):
            block.forward = self._block(i, ops[i], block.forward)
        self._models.append(model)

    def close(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        for model in self._models:
            for block in model.blocks:
                block.__dict__.pop("forward", None)
        self._models.clear()

    # -- wrappers

    def _layer_op(self, op: str, fn):
        tr = self.tracer

        def traced(x, *args, **kwargs):
            with tr.span(f"layers.{op}") as sp:
                out = fn(x, *args, **kwargs)
                if op in CONV_OPS:
                    kernel = args[0] if args else kwargs["kernel"]
                    sp.attrs.update(_conv_attrs(op == "conv2d_transposed", x, kernel, out))
                return out
        return traced

    def _record_op(self, fn):
        tr = self.tracer

        def traced(out, inputs, backward_fn):
            stack = tr.stack()
            op = stack[-1] if stack else None
            block = next((sp.attrs["block"] for sp in reversed(stack) if "block" in sp.attrs), None)
            name = (op.name if op is not None else "untraced") + ".bwd"

            def timed_backward(g):
                # the op's counts are set once its forward returned, after this record
                ops = op.attrs.get("bwd_ops", 0) if op is not None else 0
                with tr.span(name, block=block, ops=ops):
                    return backward_fn(g)
            return fn(out, inputs, timed_backward)
        return traced

    def _backward(self, fn):
        tr = self.tracer

        def traced(loss, tape):
            with tr.span("tensor.backward", records=len(tape)):
                return fn(loss, tape)
        return traced

    def _block(self, i: int, ops_per_tile: int, fn):
        tr = self.tracer

        def traced(x, train):
            with tr.span(f"network.block{i}", block=i, ops=ops_per_tile * x.shape[0]):
                return fn(x, train)
        return traced

    def _model_factory(self, name: str, fn):
        tr = self.tracer

        def traced(*args, **kwargs):
            with tr.span(name):
                model = fn(*args, **kwargs)
            self.instrument_model(model)
            return model
        return traced

    def _save_checkpoint(self, fn):
        tr = self.tracer

        def traced(ckpt, path):
            with tr.span("train.save_checkpoint") as sp:
                fn(ckpt, path)
            sp.attrs["bytes"] = os.path.getsize(path)
        return traced

    def _predict(self, fn):
        tr = self.tracer

        def traced(model, image, tile_h, tile_w, *args, **kwargs):
            tiles = (image.shape[0] // tile_h) * (image.shape[1] // tile_w)
            with tr.span("metrics.predict_slice_mask", tiles=tiles):
                return fn(model, image, tile_h, tile_w, *args, **kwargs)
        return traced

    def _evaluate(self, fn):
        tr = self.tracer

        def traced(model, volume, masks, test_indices, *args, **kwargs):
            slices = len(test_indices)
            workers = min(metrics.worker_count(), slices)
            with tr.span("metrics.evaluate_testset", workers=workers, slices=slices) as sp:
                tr.adopting = sp.id
                try:
                    return fn(model, volume, masks, test_indices, *args, **kwargs)
                finally:
                    tr.adopting = None
        return traced

    def _tile_volume(self, fn):
        tr = self.tracer

        def traced(*args, **kwargs):
            with tr.span("data.tile_volume") as sp:
                tiles = fn(*args, **kwargs)
            sp.attrs["tiles"] = len(tiles)
            return tiles
        return traced


# ------------------------------------------------------- per-module metrics


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def step_waits(spans: list[Span]) -> list[float]:
    """Time each training step spends outside forward, backward and optimizer.

    A step runs from the end of one ``RMSProp.step`` to the end of the next
    under the same parent. Intervals that contain anything else at that
    level (validation, checkpoint copies, another stage) are not steps.
    """
    parts = ("network.block", "layers.softmax_cross_entropy", "tensor.backward", "train.rmsprop_step")
    by_parent: dict[int | None, list[Span]] = {}
    main = {sp.thread for sp in spans if sp.name == "train.rmsprop_step"}
    for sp in spans:
        if sp.thread in main:
            by_parent.setdefault(sp.parent, []).append(sp)
    waits = []
    for siblings in by_parent.values():
        siblings.sort(key=lambda s: s.start)
        prev_end = None
        inside: list[Span] = []
        for sp in siblings:
            if prev_end is not None and sp.start >= prev_end:
                inside.append(sp)
            if sp.name != "train.rmsprop_step":
                continue
            if prev_end is not None and all(s.name.startswith(parts) for s in inside):
                waits.append((sp.end - prev_end) - sum(s.duration for s in inside))
            prev_end, inside = sp.end, []
    return waits


def per_module_metrics(run: list[Span], setup: list[Span], units: int,
                       ops_per_step: int, block_count: int) -> dict[str, tuple[float, str]]:
    """The per-module table: seconds per unit of work unless named per call.

    ``run`` holds the traced measurement phase, ``setup`` one traced set-up.
    """
    units = max(units, 1)
    selfs = self_times(run)
    by_name: dict[str, list[Span]] = {}
    for sp in run:
        by_name.setdefault(sp.name, []).append(sp)

    def total(name):
        return sum(sp.duration for sp in by_name.get(name, ()))

    def per_call(name, spans=run):
        return _median([sp.duration for sp in spans if sp.name == name])

    m: dict[str, tuple[float, str]] = {}
    backward = by_name.get("tensor.backward", [])
    m["tensor.backward.self_s"] = (sum(selfs[sp.id] for sp in backward) / units, "s")
    m["tensor.records"] = (_median([sp.attrs["records"] for sp in backward]), "count")
    elementwise = by_name.get("tensor.elementwise", []) + by_name.get("tensor.elementwise.bwd", [])
    m["tensor.elementwise.self_s"] = (sum(selfs[sp.id] for sp in elementwise) / units, "s")

    for op in LAYER_OPS:
        fwd, bwd = by_name.get(f"layers.{op}", []), by_name.get(f"layers.{op}.bwd", [])
        fwd_s, bwd_s = sum(sp.duration for sp in fwd), sum(sp.duration for sp in bwd)
        m[f"layers.{op}.fwd_s"] = (fwd_s / units, "s")
        m[f"layers.{op}.bwd_s"] = (bwd_s / units, "s")
        m[f"layers.{op}.calls"] = (len(fwd) / units, "count")
        if op in CONV_OPS:
            ops = sum(sp.attrs["ops"] for sp in fwd)
            m[f"layers.{op}.fwd_gops"] = (_rate(ops, fwd_s) / 1e9, "G/s")
            m[f"layers.{op}.bwd_gops"] = (_rate(sum(sp.attrs["ops"] for sp in bwd), bwd_s) / 1e9, "G/s")
            m[f"layers.{op}.ops_per_byte"] = (_rate(ops, sum(sp.attrs["bytes_computed"] for sp in fwd)),
                                              "ops/B_computed")

    bwd_by_block: dict[int, float] = {}
    for sp in run:
        if sp.name.endswith(".bwd") and sp.attrs.get("block") is not None:
            bwd_by_block[sp.attrs["block"]] = bwd_by_block.get(sp.attrs["block"], 0.0) + sp.duration
    for i in range(block_count):
        fwd = by_name.get(f"network.block{i}", [])
        fwd_s = sum(sp.duration for sp in fwd)
        m[f"network.block{i}.fwd_s"] = (fwd_s / units, "s")
        m[f"network.block{i}.bwd_s"] = (bwd_by_block.get(i, 0.0) / units, "s")
        m[f"network.block{i}.gops"] = (_rate(sum(sp.attrs["ops"] for sp in fwd), fwd_s) / 1e9, "G/s")
    m["network.build_model_s"] = (_median([sp.duration for sp in setup + run
                                           if sp.name == "network.build_model"]), "s")
    m["topology.ops_per_step"] = (float(ops_per_step), "count")

    m["train.step_wait_s"] = (_median(step_waits(run)), "s")
    for key, name in (("rmsprop_step_s", "train.rmsprop_step"),
                      ("checkpoint_copy_s", "train.checkpoint_copy"),
                      ("save_checkpoint_s", "train.save_checkpoint"),
                      ("load_checkpoint_s", "train.load_checkpoint"),
                      ("restore_model_s", "train.restore_model"),
                      ("validation_s", "train.validation")):
        m[f"train.{key}"] = (per_call(name), "s")
    m["train.ckpt_bytes"] = (_median([sp.attrs["bytes"] for sp in by_name.get("train.save_checkpoint", [])]),
                             "bytes")

    predicts = by_name.get("metrics.predict_slice_mask", [])
    m["metrics.predict_slice_mask_s"] = (per_call("metrics.predict_slice_mask"), "s")
    m["metrics.tiles_per_s"] = (_rate(sum(sp.attrs["tiles"] for sp in predicts),
                                      sum(sp.duration for sp in predicts)), "1/s")
    m["metrics.scoring_s"] = (_rate(total("metrics.scoring"), len(predicts)), "s")
    evals = by_name.get("metrics.evaluate_testset", [])
    m["metrics.workers"] = (_median([sp.attrs["workers"] for sp in evals]), "count")
    m["metrics.parallel_efficiency"] = (_parallel_efficiency(run, evals), "ratio")

    for key in ("load", "preprocess_rescale", "merge_classes", "split_blocks", "tile_volume",
                "write", "tileset_load"):
        m[f"data.{key}_s"] = (total(f"data.{key}") / units, "s")
    m["data.tiles"] = (sum(sp.attrs["tiles"] for sp in by_name.get("data.tile_volume", [])) / units,
                       "count")
    m["data.generate_synthetic_volume_s"] = (per_call("data.generate_synthetic_volume", setup), "s")
    for stage in ("prepare", "train", "eval", "export_masks"):
        m[f"cli.{stage}_s"] = (per_call(f"cli.{stage}"), "s")
    return m


def _parallel_efficiency(spans: list[Span], evals: list[Span]) -> float:
    """Busy time of the evaluated slices over wall time x workers.

    A slice's busy time is what ``predict_slice_mask`` takes on it when it
    runs alone, the median of the calls made outside any evaluation (all
    slices of a workload have one size). Oversubscribed BLAS and worker
    threads show as efficiency well below 1.
    """
    inside = {sp.id for sp in evals}
    alone = [sp.duration for sp in spans
             if sp.name == "metrics.predict_slice_mask" and sp.parent not in inside]
    busy = _median(alone) * sum(ev.attrs["slices"] for ev in evals)
    return _rate(busy, sum(ev.duration * ev.attrs["workers"] for ev in evals))
