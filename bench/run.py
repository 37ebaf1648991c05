"""Run one seistile benchmark workload and print its metrics.

    python3 bench/run.py --workload train-full --seed 1 --seconds 20 --trace 0

Workloads: train-full, eval-full, desk-e2e, prepare-survey (NOTES.md says
why each exists). The benchmark imports seistile from ``src/`` next to this
directory, clears inherited BLAS/OpenMP/seistile thread settings so the
program runs at its defaults, and keeps every artefact in a temporary
directory under the checkout that it removes on exit.

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
``--trace 1`` measures the first half of the time untraced and the second
half traced, prints the per-module metrics with the tracing overhead, and
writes the spans to ``bench-results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when the run completed, whether or not every check passed, and 2 when the
sources are missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench-results"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SEISTILE_THREADS")
WORKLOAD_NAMES = ("train-full", "eval-full", "desk-e2e", "prepare-survey")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "smoke"), default="full",
                   help="input sizes; smoke is tiny and exists for the smoke test")
    return p.parse_args(argv)


# ---------------------------------------------------------------- provenance


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "seistile").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _openblas():
    """(runtime config string, thread count) of the OpenBLAS numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            path = next((line.split()[-1] for line in fh if "openblas" in line.lower()), None)
    except OSError:
        path = None
    if path is None:
        return None, None
    lib = ctypes.CDLL(path)
    config = threads = None
    for suffix in ("64_", "_64_", ""):
        for prefix in ("scipy_openblas", "openblas"):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and config is None:
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                config = get_config().decode()
            if get_threads is not None and threads is None:
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                threads = int(get_threads())
    return config, threads


def provenance(wl, args, cleared: dict) -> dict:
    import numpy as np
    from seistile import metrics

    config, threads = _openblas()
    return {
        "seistile_commit": _git_commit(),
        "seistile_source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "SEISTILE_THREADS": os.environ.get("SEISTILE_THREADS"),
        "eval_worker_cap": metrics.worker_count(),
        "cleared_env": cleared,
        "workload": wl.name,
        "seed": args.seed,
        "config_digest": wl.digest(),
        "profile": args.profile,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --------------------------------------------------------------- measurement


def measure(wl, seconds: float) -> None:
    """Closed loop: start another unit while it is expected to end in time."""
    from workloads import median

    wl.reset()
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        wl.unit()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= wl.min_units and elapsed + median(durations) > seconds:
            break
    wl.finish()


def run(args, cleared: dict):
    """Set up and measure one workload; returns (metrics, table rows, provenance, workload)."""
    import workloads as W
    from spans import Instrumentation, Tracer, per_module_metrics

    profile = W.FULL if args.profile == "full" else W.SMOKE
    workdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        wl = W.WORKLOADS[args.workload](args.seed, profile, workdir)
        setup_times = []
        for _ in range(wl.setup_reps):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

        if not args.trace:
            measure(wl, args.seconds)
            metrics = {
                "setup_s": (W.median(setup_times), "s"),
                "op_s": (wl.op_s(), "s"),
                "throughput": (wl.rate(), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            rows = [("setup_s", metrics["setup_s"][0], "s", f"median of {len(setup_times)} set-ups")]
            rows += wl.table()
            rows.append(("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "whole process"))
        else:
            measure(wl, args.seconds / 2)
            untraced = wl.op_s()
            tracer = Tracer(wl.name)
            inst = Instrumentation(tracer, *profile.tile).install()
            wl.tracer = tracer
            try:
                wl.setup()
                tracer.phase = "run"
                measure(wl, args.seconds / 2)
            finally:
                inst.close()
                wl.tracer = None
            traced = wl.op_s()
            metrics = per_module_metrics(
                [sp for sp in tracer.spans if sp.phase == "run"],
                [sp for sp in tracer.spans if sp.phase == "setup"],
                wl.units, wl.ops_per_step(), W.BLOCKS)
            metrics["data.bytes_written"] = (wl.bytes_written(), "bytes")
            # tracemalloc slows every Python allocation, so it gets one unit of its own
            tracemalloc.start()
            wl.unit()
            metrics["peak_traced_mb"] = (tracemalloc.get_traced_memory()[1] / 2**20, "MB")
            tracemalloc.stop()
            metrics["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
            RESULTS.mkdir(exist_ok=True)
            spans_path = RESULTS / f"spans-{wl.name}-seed{args.seed}.jsonl"
            tracer.write_jsonl(spans_path)
            rows = [(k, v, u, "") for k, (v, u) in sorted(metrics.items())]
            rows.append((f"{wl.unit_name} untraced / traced", untraced, "s", f"traced {traced!r} s"))
            rows.append(("spans", float(len(tracer.spans)), "count", str(spans_path.relative_to(ROOT))))
        return metrics, rows, provenance(wl, args, cleared), wl
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the temp dir is still removed
    cleared = {k: os.environ.pop(k) for k in THREAD_ENV if k in os.environ}
    if not (SRC / "seistile" / "__init__.py").is_file():
        print(f"error: seistile sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import seistile

    if Path(seistile.__file__).resolve().parent != (SRC / "seistile").resolve():
        print(f"error: imported seistile from {seistile.__file__}, not {SRC}", file=sys.stderr)
        return 2

    metrics, rows, prov, wl = run(args, cleared)
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            wl.fail(f"{name} was not measured")
            metrics[name] = (0.0, metrics[name][1])

    print(f"# seistile benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, value, unit, note in rows:
        print(f"{name:<36} {value!r:>24} {unit:<14} {note}")
    print(f"{'failure_ratio':<36} {wl.failed / max(wl.attempted, 1)!r:>24} {'ratio':<14} "
          f"{wl.failed} failed of {wl.attempted} attempted")
    for message in wl.failures:
        print(f"# FAILED {message}")
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
