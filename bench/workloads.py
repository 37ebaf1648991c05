"""The four benchmark workloads and the closed loop that measures them.

Each workload is one process and one calling thread: every call into
seistile starts after the previous one returned. A workload builds its
inputs from the seed alone in ``setup``, runs one unit of work per ``unit``
call, checks the outputs it produced, and counts each operation as
attempted and, when it raised, exited non-zero or failed a check, as failed.
NOTES.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seistile import cli, data, layers, metrics, network, tensor, train
from seistile.config import config_digest
from seistile.topology import TABLE_OPS_PER_MAC, count_operations, preset, scale_widths

PRESET = "danet-fcn2"
BLOCKS = len(preset(PRESET).layers)
PREPARE_OUTPUTS = ("volume_proc.segv", "masks_merged.segv", "split.json", "tiles_train.", "tiles_val.")


@dataclass(frozen=True)
class Profile:
    """Input sizes. FULL is the benchmark; SMOKE keeps every path but is tiny."""

    tile: tuple[int, int] = (80, 120)
    train_width: float = 1.0
    train_volume: tuple[int, int, int] = (4, 160, 240)  # slices, height, width
    train_batch: int = 8
    train_lr: float = 0.1
    eval_width: float = 1.0
    eval_volume: tuple[int, int, int] = (2, 160, 1080)  # 18 tiles a slice: two 16-tile batches
    desk: dict = field(default_factory=lambda: {
        "synth": {"slices": 8}, "split": {"test_count": 2, "n_blocks": 2},
        "model": {"width_scale": 0.2, "bn_momentum": 0.9},
        "train": {"max_epochs": 4, "batch_size": 8, "lr_schedule": [[0, 0.1], [20, 0.01]]},
    })
    survey_volume: tuple[int, int, int] = (6, 481, 1501)
    survey_split: dict = field(default_factory=lambda: {"test_count": 1, "n_blocks": 2})
    horizon_waviness: float = 5.0


FULL = Profile()
SMOKE = Profile(
    tile=(16, 24),
    train_width=0.05, train_volume=(2, 32, 48), train_batch=4,
    eval_width=0.05, eval_volume=(2, 32, 216),
    desk={
        "synth": {"slices": 6, "height": 32, "width": 48}, "split": {"test_count": 2, "n_blocks": 2},
        "model": {"width_scale": 0.05, "bn_momentum": 0.9},
        "train": {"max_epochs": 6, "batch_size": 4, "lr_schedule": [[0, 0.1]]},
    },
    survey_volume=(4, 48, 72), horizon_waviness=1.0,
)

# Four desk epochs leave the model far from converged: over 30 seeds the
# held-out mmIOU ranged 0.029-0.13, and a model that predicts one class
# everywhere scores about 0.02. So the mmIOU floor only catches a broken
# evaluation (0 or NaN), and learning is checked on the training loss, which
# fell to 0.67-0.80 of its first-epoch value on every one of those seeds.
DESK_MMIOU_FLOOR = 0.01
DESK_LOSS_RATIO = 0.9


def median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


def tail(values) -> tuple[float, int] | None:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return float(sorted(values)[k - 1]), 100 * k // n


def _spec(width: float):
    spec = preset(PRESET)
    return spec if width == 1.0 else scale_widths(spec, width, name=f"{PRESET}-w{width:g}")


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Workload:
    """Shared bookkeeping: samples, operation counts, failures."""

    name = ""
    unit_name = ""
    out: Path | None = None  # the `prepare` output directory, if the workload has one
    min_units = 1
    setup_reps = 5  # setup_s is the median of these

    def __init__(self, seed: int, profile: Profile, workdir: Path):
        self.seed = seed
        self.profile = profile
        self.workdir = workdir
        self.tracer = None  # set during the traced phase
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.units = 0  # units of work done; per-module figures are per unit

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    @contextlib.contextmanager
    def operation(self, what: str):
        """One attempted operation; an exception or a failed check fails it."""
        self.attempted += 1
        before = self.failed
        try:
            yield
        except Exception:  # the loop must keep running; the failure is counted and shown
            self.fail(f"{what}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}")
        if self.failed > before + 1:
            self.failed = before + 1  # several failed checks still fail one operation

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @contextlib.contextmanager
    def unchecked(self):
        """Output checks leave no spans in the traced run."""
        if self.tracer is None:
            yield
            return
        self.tracer.muted = True
        try:
            yield
        finally:
            self.tracer.muted = False

    @contextlib.contextmanager
    def stage_span(self, name: str):
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name):
                yield

    def config(self) -> dict:
        raise NotImplementedError

    def digest(self) -> str:
        return config_digest({"workload": self.name, "seed": self.seed, **self.config()})

    def ops_per_step(self) -> int:
        return 0

    def bytes_written(self) -> float:
        """Bytes of the files the last `prepare` wrote; 0 for workloads without one."""
        if self.out is None:
            return 0.0
        return float(sum(f.stat().st_size for f in self.out.iterdir()
                         if f.is_file() and f.name.startswith(PREPARE_OUTPUTS)))

    def finish(self) -> None:
        pass

    def op_s(self) -> float:
        """Median time of the workload's unit of work."""
        return median(self.samples.get(self.unit_name, []))


# --------------------------------------------------------------- train-full


class TrainFull(Workload):
    """Training steps on danet-fcn2 at full width, then one checkpoint save and load."""

    name = "train-full"
    unit_name = "train_step_s"
    min_units = 4  # the loss check compares the last three steps with the first

    def config(self):
        p = self.profile
        return {"preset": PRESET, "width": p.train_width, "volume": p.train_volume,
                "tile": p.tile, "batch": p.train_batch, "lr": p.train_lr, "dtype": "float32"}

    def setup(self):
        p = self.profile
        slices, h, w = p.train_volume
        volume, masks = data.generate_synthetic_volume(data.SynthConfig(
            slices=slices, height=h, width=w, num_classes=7,
            horizon_waviness=p.horizon_waviness, texture_seed=self.seed))
        volume = data.preprocess_rescale(volume)
        self.tiles = data.tile_volume(volume, masks, range(slices),
                                      data.TileConfig(*p.tile, overlap_fraction=0.5))
        self.model = network.build_model(_spec(p.train_width), seed=self.seed, dtype=np.float32)
        self.optimizer = train.RMSProp(self.model.parameters(), train.OptimizerConfig())
        self.order = np.random.default_rng(self.seed).permutation(len(self.tiles))
        self.cursor = 0
        self.losses: list[float] = []
        self.ckpt_mb = 0.0

    def ops_per_step(self):
        return count_operations(self.model.spec, *self.profile.tile, TABLE_OPS_PER_MAC) * self.profile.train_batch

    def _batch(self):
        b = self.profile.train_batch
        idx = np.take(self.order, range(self.cursor, self.cursor + b), mode="wrap")
        self.cursor = (self.cursor + b) % len(self.order)
        return tensor.Tensor(self.tiles.images[idx][..., None]), self.tiles.masks[idx]

    def unit(self):
        with self.operation("train step"):
            t0 = time.perf_counter()
            x, labels = self._batch()
            self.model.zero_grads()
            with tensor.recording() as tape:
                logits = self.model.forward(x, train=True)
                loss = layers.softmax_cross_entropy(logits, labels)
            tensor.backward(loss, tape)
            self.optimizer.step(self.profile.train_lr)
            self.sample("train_step_s", time.perf_counter() - t0)
            self.units += 1
            value = loss.data.item()
            self.losses.append(value)
            if not math.isfinite(value):
                self.fail(f"train step {len(self.losses)}: loss {value}")

    def finish(self):
        with self.operation("checkpoint save"):
            path = self.workdir / "train-full.ckpt"
            t0 = time.perf_counter()
            ckpt = train.checkpoint_from_model(self.model, self.optimizer, epoch=0)
            train.save_checkpoint(ckpt, path)
            self.sample("ckpt_save_s", time.perf_counter() - t0)
            self.ckpt_mb = path.stat().st_size / 1e6
        with self.operation("checkpoint load"):
            t0 = time.perf_counter()
            restored = train.restore_model(train.load_checkpoint(path))
            self.sample("ckpt_load_s", time.perf_counter() - t0)
            with self.unchecked():
                saved = {n: t.data for n, t, _ in self.model.parameters()}
                if not all(np.array_equal(saved[n], t.data) for n, t, _ in restored.parameters()):
                    self.fail("restored parameters differ from the saved ones")
        with self.operation("training checks"):
            if not all(np.isfinite(t.data).all() for _, t, _ in self.model.parameters()):
                self.fail("non-finite parameter after training")
            last = self.losses[-3:]
            if len(self.losses) < 2 or not np.mean(last) < self.losses[0]:
                self.fail(f"loss did not fall: first {self.losses[:1]}, last {last}")

    def rate(self):
        busy = sum(self.samples.get("train_step_s", [])) + sum(self.samples.get("ckpt_save_s", [])) \
            + sum(self.samples.get("ckpt_load_s", []))
        return self.units * self.profile.train_batch / busy if busy else float("nan")

    def table(self):
        steps = self.samples.get("train_step_s", [])
        return [
            ("train_tiles_per_s", self.units * self.profile.train_batch / sum(steps) if steps else 0.0,
             "tiles/s", "steps only"),
            ("train_step_s", median(steps), "s", f"median, n={len(steps)}"),
            _tail_row("train_step_tail_s", steps),
            ("ckpt_save_s", median(self.samples.get("ckpt_save_s", [])), "s",
             f"n=1, copy + save of {self.ckpt_mb:.1f} MB incl. optimizer state"),
            ("ckpt_load_s", median(self.samples.get("ckpt_load_s", [])), "s", "n=1, load + restore_model"),
            ("first_loss", self.losses[0] if self.losses else float("nan"), "nats", ""),
            ("last_loss", self.losses[-1] if self.losses else float("nan"), "nats", ""),
        ]


def _tail_row(name, values):
    t = tail(values)
    if t is None:
        return (name, float("nan"), "s", f"no percentile has 10 samples beyond it, n={len(values)}")
    return (name, t[0], "s", f"p{t[1]}, n={len(values)}")


# ---------------------------------------------------------------- eval-full


class EvalFull(Workload):
    """evaluate_testset over the test slices, then the same slices one at a
    time through predict_slice_mask (the export-masks path).

    A unit of work is either the pooled pass or one sequential slice, so a
    run can stop between any two of them.
    """

    name = "eval-full"
    unit_name = "mask_slice_s"
    min_units = 3  # one pooled pass and the two slices alone

    def config(self):
        p = self.profile
        return {"preset": PRESET, "width": p.eval_width, "volume": p.eval_volume, "tile": p.tile,
                "dtype": "float32"}

    def setup(self):
        p = self.profile
        slices, h, w = p.eval_volume
        volume, self.masks = data.generate_synthetic_volume(data.SynthConfig(
            slices=slices, height=h, width=w, num_classes=7,
            horizon_waviness=p.horizon_waviness, texture_seed=self.seed))
        self.volume = data.preprocess_rescale(volume)
        self.model = network.build_model(_spec(p.eval_width), seed=self.seed, dtype=np.float32)
        self.indices = list(range(slices))
        self.alone: list[int] = []  # slices still to predict alone after the last pooled pass
        self.pooled: dict[int, np.ndarray] = {}

    def ops_per_step(self):
        return count_operations(self.model.spec, *self.profile.tile, TABLE_OPS_PER_MAC) * 16

    @contextlib.contextmanager
    def _capture(self):
        """Keep the masks the pooled evaluation predicts, keyed by slice."""
        slice_of = {self.volume.slice(i).__array_interface__["data"][0]: i for i in self.indices}
        pooled: dict[int, np.ndarray] = {}
        inner = metrics.predict_slice_mask

        def capture(model, image, *args, **kwargs):
            mask = inner(model, image, *args, **kwargs)
            pooled[slice_of[image.__array_interface__["data"][0]]] = mask
            return mask

        metrics.predict_slice_mask = capture
        try:
            yield pooled
        finally:
            metrics.predict_slice_mask = inner

    def unit(self):
        th, tw = self.profile.tile
        if not self.alone:
            with self.operation("evaluate_testset"), self._capture() as self.pooled:
                t0 = time.perf_counter()
                report = metrics.evaluate_testset(self.model, self.volume, self.masks, self.indices, th, tw)
                self.sample("eval_pass_s", time.perf_counter() - t0)
                self.attempted += len(self.indices) - 1  # one operation per slice
                self.units += len(self.indices)
                if [r.index for r in report.images] != self.indices:
                    self.fail("report does not list the test slices in order")
            self.alone = list(self.indices)
            return
        i = self.alone.pop(0)
        with self.operation(f"predict_slice_mask slice {i}"):
            t0 = time.perf_counter()
            mask = metrics.predict_slice_mask(self.model, self.volume.slice(i), th, tw)
            self.sample("mask_slice_s", time.perf_counter() - t0)
            self.units += 1
            got = self.pooled.get(i)
            if got is None or got.dtype != mask.dtype or not np.array_equal(got, mask):
                self.fail(f"slice {i}: pooled mask differs from the sequential one")

    def rate(self):
        passes = self.samples.get("eval_pass_s", [])
        return len(passes) * len(self.indices) / sum(passes) if passes else float("nan")

    def table(self):
        seq = self.samples.get("mask_slice_s", [])
        passes = self.samples.get("eval_pass_s", [])
        return [
            ("eval_slices_per_s", self.rate(), "slices/s",
             f"{len(passes)} pooled passes, {metrics.worker_count()} worker cap"),
            ("mask_slice_s", median(seq), "s", f"median, n={len(seq)}"),
            _tail_row("mask_slice_tail_s", seq),
        ]


# ----------------------------------------------------------------- desk-e2e


class DeskE2E(Workload):
    """The README quick start in-process: prepare -> train -> eval -> export-masks."""

    name = "desk-e2e"
    unit_name = "experiment_s"
    STAGES = ("prepare", "train", "eval", "export-masks")

    def config(self):
        return {k: v for k, v in self.run_config.items() if k != "data"}  # data paths are temporary

    def setup(self):
        p = self.profile
        d = self.workdir / "desk"
        d.mkdir(exist_ok=True)
        cfg = json.loads(json.dumps(p.desk))
        cfg["seed"] = self.seed
        cfg["data"] = {"volume": str(d / "volume.segv"), "masks": str(d / "masks.segv"),
                       "out_dir": str(d / "run")}
        cfg["synth"].setdefault("horizon_waviness", p.horizon_waviness)
        cfg["tiles"] = {"tile_h": p.tile[0], "tile_w": p.tile[1]}
        cfg["eval"] = {"tile_h": p.tile[0], "tile_w": p.tile[1]}
        self.run_config = cfg
        self.cfg_path = d / "run.json"
        self.cfg_path.write_text(json.dumps(cfg))
        self.out = d / "run"
        with self.operation("synth"):
            if _quiet_cli(["synth", "--config", str(self.cfg_path)]) != 0:
                self.fail("synth exited non-zero")
        self.mmious: list[float] = []

    def ops_per_step(self):
        spec = _spec(self.profile.desk["model"]["width_scale"])
        return count_operations(spec, *self.profile.tile, TABLE_OPS_PER_MAC) * \
            self.profile.desk["train"]["batch_size"]

    @contextlib.contextmanager
    def _step_clock(self):
        """Record when each optimizer step ends; negligible next to a step."""
        ends: list[tuple[int, int, float]] = []
        inner = train.RMSProp.step

        def step(opt, lr):
            inner(opt, lr)
            ends.append((id(opt), opt.step_count, time.perf_counter()))

        train.RMSProp.step = step
        try:
            yield ends
        finally:
            train.RMSProp.step = inner

    def unit(self):
        total = 0.0
        with self._step_clock() as ends:
            for stage in self.STAGES:
                with self.operation(f"cli {stage}"), self.stage_span(f"cli.{stage.replace('-', '_')}"):
                    t0 = time.perf_counter()
                    rc = _quiet_cli([stage, "--config", str(self.cfg_path)])
                    elapsed = time.perf_counter() - t0
                    total += elapsed
                    self.sample(f"{stage}_s", elapsed)
                    if rc != 0:
                        self.fail(f"{stage} exited {rc}")
        self.sample("experiment_s", total)
        self.units += 1
        with self.operation("experiment checks"), self.unchecked():
            self._check_and_count(ends)

    def _check_and_count(self, ends):
        tiles = len(json.loads((self.out / "tiles_train.json").read_text())["tiles"])
        epochs = self.profile.desk["train"]["max_epochs"]
        self.sample("tiles_trained", tiles * epochs)
        per_epoch = -(-tiles // self.profile.desk["train"]["batch_size"])
        for (opt_a, _, t_a), (opt_b, k, t_b) in zip(ends, ends[1:]):
            if opt_a == opt_b and (k - 1) % per_epoch:  # a step inside one epoch
                self.sample("train_step_s", t_b - t_a)
        mmiou = json.loads((self.out / "report.json").read_text())["mmiou"]
        self.mmious.append(mmiou)
        if not mmiou >= DESK_MMIOU_FLOOR:
            self.fail(f"held-out mmIOU {mmiou:.4f} below the floor {DESK_MMIOU_FLOOR}")
        rows = (self.out / "log.csv").read_text().splitlines()[1:]
        first, last = float(rows[0].split(",")[1]), float(rows[-1].split(",")[1])
        if not last <= DESK_LOSS_RATIO * first:
            self.fail(f"training loss went from {first} to {last}")
        test = json.loads((self.out / "split.json").read_text())["test"]
        pgms = list((self.out / "masks").glob("*.pgm"))
        if len(pgms) != 2 * len(test):
            self.fail(f"export-masks wrote {len(pgms)} PGMs for {len(test)} test slices")

    def rate(self):
        busy = sum(self.samples.get("train_s", []))
        return sum(self.samples.get("tiles_trained", [])) / busy if busy else float("nan")

    def table(self):
        steps = self.samples.get("train_step_s", [])
        s = self.samples
        n = len(s.get("experiment_s", []))
        return [
            ("train_tiles_per_s", self.rate(), "tiles/s", "over the train stage incl. validation"),
            ("train_step_s", median(steps), "s", f"median, n={len(steps)}"),
            _tail_row("train_step_tail_s", steps),
            ("prepare_s", median(s.get("prepare_s", [])), "s", f"median, n={n}"),
            ("experiment_s", median(s.get("experiment_s", [])), "s", f"median, n={n}"),
            ("test_mmiou", median(self.mmious), "mmIOU",
             f"higher is better; floor {DESK_MMIOU_FLOOR}"),
        ]


# ----------------------------------------------------------- prepare-survey


class PrepareSurvey(Workload):
    """`prepare` on a survey-sized synthetic volume, no model."""

    name = "prepare-survey"
    unit_name = "prepare_s"
    setup_reps = 3  # each set-up generates a 35 MB survey, ~2 s

    def config(self):
        p = self.profile
        return {"volume": p.survey_volume, "split": p.survey_split, "tile": p.tile,
                "overlap_fraction": 0.5, "num_classes": 8}

    def setup(self):
        p = self.profile
        slices, h, w = p.survey_volume
        volume, masks = data.generate_synthetic_volume(data.SynthConfig(
            slices=slices, height=h, width=w, num_classes=8,
            horizon_waviness=p.horizon_waviness, texture_seed=self.seed))
        d = self.workdir / "survey"
        d.mkdir(exist_ok=True)
        data.save_volume(d / "volume.segv", volume)
        data.save_masks(d / "masks.segv", masks)
        self.out = d / "run"
        cfg = {"seed": self.seed, "split": dict(p.survey_split),
               "data": {"volume": str(d / "volume.segv"), "masks": str(d / "masks.segv"),
                        "out_dir": str(self.out)},
               "tiles": {"tile_h": p.tile[0], "tile_w": p.tile[1], "overlap_fraction": 0.5}}
        self.cfg_path = d / "run.json"
        self.cfg_path.write_text(json.dumps(cfg))
        self.tile_cfg = data.TileConfig(*p.tile, overlap_fraction=0.5)
        self.rng = np.random.default_rng(self.seed)

    def unit(self):
        with self.operation("prepare"), self.stage_span("cli.prepare"):
            t0 = time.perf_counter()
            rc = _quiet_cli(["prepare", "--config", str(self.cfg_path)])
            self.sample("prepare_s", time.perf_counter() - t0)
            self.units += 1
            if rc != 0:
                self.fail(f"prepare exited {rc}")
        with self.operation("prepare checks"):
            self._check()

    def _check(self):
        _, h, w = self.profile.survey_volume
        th, tw = self.profile.tile
        per_slice = data.tile_count(h, w, self.tile_cfg)
        ts = data.TileSet.load(self.out / "tiles_train")  # the load `train` starts with
        with self.unchecked():
            split = json.loads((self.out / "split.json").read_text())
            volume = data.load_volume(self.out / "volume_proc.segv")
            masks = data.load_masks(self.out / "masks_merged.segv")
            for stem, key in (("tiles_train", "train"), ("tiles_val", "val")):
                header = json.loads((self.out / f"{stem}.json").read_text())
                if len(header["tiles"]) != per_slice * len(split[key]):
                    self.fail(f"{stem}: {len(header['tiles'])} tiles, expected "
                              f"{per_slice} x {len(split[key])}")
            self.sample("tiles", len(ts) + per_slice * len(split["val"]))
            for t in self.rng.choice(len(ts), size=min(8, len(ts)), replace=False):
                s, r, c = (int(v) for v in ts.provenance[t])
                if not (np.array_equal(ts.images[t], volume.data[s, r:r + th, c:c + tw])
                        and np.array_equal(ts.masks[t], masks.data[s, r:r + th, c:c + tw])):
                    self.fail(f"tile {t} differs from the rescaled volume at {(s, r, c)}")
            ts.save(self.workdir / "survey" / "roundtrip")
            back = data.TileSet.load(self.workdir / "survey" / "roundtrip")
            same = all(np.array_equal(getattr(ts, a), getattr(back, a))
                       for a in ("images", "masks", "provenance"))
            if not same or (back.tile_h, back.tile_w) != (ts.tile_h, ts.tile_w):
                self.fail("TileSet does not round-trip through save and load")

    def rate(self):
        busy = sum(self.samples.get("prepare_s", []))
        return sum(self.samples.get("tiles", [])) / busy if busy else float("nan")

    def table(self):
        n = len(self.samples.get("prepare_s", []))
        return [
            ("prepare_s", median(self.samples.get("prepare_s", [])), "s", f"median, n={n}"),
            _tail_row("prepare_tail_s", self.samples.get("prepare_s", [])),
            ("prepare_tiles_per_s", self.rate(), "tiles/s", ""),
        ]


WORKLOADS = {w.name: w for w in (TrainFull, EvalFull, DeskE2E, PrepareSurvey)}
