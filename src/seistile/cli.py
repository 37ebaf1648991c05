"""Command-line front end.

Subcommands mirror the workflow stages: ``synth`` emits a synthetic volume,
``prepare`` turns a volume into tile sets, ``train`` fits a model, ``eval``
scores it with the reassembly protocol, ``count`` prints the analytic
resource table, ``export-masks`` writes predicted masks as PGM images, and
``config --defaults`` dumps the full default configuration.

Exit codes: 0 success, 1 configuration error, 2 data/format error,
3 runtime failure, 130 interrupted (Ctrl-C), 141 output pipe closed early.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import data as D
from . import layers as L
from . import topology as T
from .config import apply_overrides, config_digest, load_config, resolve_config
from .errors import ConfigError, FormatError, ParseError, SeistileError, TopologyError
from .metrics import evaluate_testset, export_mask_pgm, predict_slice_masks, report_to_csv, report_to_json
from .network import build_model
from .train import (
    OptimizerConfig,
    TrainConfig,
    load_checkpoint,
    restore_model,
    train,
)

# seed derivation offsets: every stage stream is a fixed function of the
# single config seed
SEED_SYNTH, SEED_SPLIT, SEED_BUILD, SEED_SHUFFLE = 0, 1, 2, 3


def _resolved(args) -> tuple[dict, dict]:
    """The run config of the command line, whose digest goes to stderr for
    provenance, and its synth, split, tiles, train, optimizer and model
    sections built into their settings and its clip percentiles checked, so
    that every command checks all of them first."""
    cfg = load_config(args.config) if getattr(args, "config", None) else resolve_config()
    overrides = list(getattr(args, "set", None) or ())
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")  # checked as --set seed=N is
    cfg = apply_overrides(cfg, overrides)
    if getattr(args, "out_dir", None):
        cfg["data"]["out_dir"] = args.out_dir
    D.check_clip_percentiles(cfg["data"]["clip_lo_pct"], cfg["data"]["clip_hi_pct"])
    seed, split = cfg["seed"], dict(cfg["split"])
    del split["test_count"]
    split["test_slices"] = split["test_slices"] or ()  # _split_indices fills in a null one
    run = {"synth": D.SynthConfig(**cfg["synth"], texture_seed=seed + SEED_SYNTH),
           "split": D.SplitConfig(**split, seed=seed + SEED_SPLIT),
           "tiles": D.TileConfig(**cfg["tiles"]),
           "train": TrainConfig(**cfg["train"], seed=seed + SEED_SHUFFLE),
           "optimizer": OptimizerConfig(**cfg["optimizer"]),
           "model": _model_spec(cfg)}
    print(f"config sha256={config_digest(cfg)}", file=sys.stderr)
    return cfg, run


def _read_dsl(path, source: str) -> T.TopologySpec:
    """The topology in the DSL file at ``path``, which the config key or flag ``source`` names."""
    path = Path(path)
    try:
        return T.parse_topology(path.read_text(encoding="utf-8"), name=path.stem)
    except (OSError, UnicodeDecodeError, ParseError, TopologyError) as err:
        raise ConfigError(f"{source} {path}: {err}") from None


def _model_spec(cfg: dict) -> T.TopologySpec:
    """The topology of the model section, with its batch-norm settings and the
    tiles and eval tile sizes checked against it."""
    m = cfg["model"]
    scale = m["width_scale"]
    if scale <= 0:
        raise ConfigError(f"model.width_scale must be > 0, got {scale}")
    if m["dsl_path"]:
        spec = _read_dsl(m["dsl_path"], "model.dsl_path")
    else:
        spec = T.preset(m["preset"])
    if scale != 1.0:
        spec = T.scale_widths(spec, scale, name=f"{spec.name}-w{scale:g}")
    L.check_batch_norm(m["bn_eps"], m["bn_momentum"], "model.bn_")
    for section in ("tiles", "eval"):
        T.check_tile(spec, cfg[section]["tile_h"], cfg[section]["tile_w"], section)
    return spec


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["data"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _split_indices(cfg: dict, split: D.SplitConfig, num_slices: int) -> dict:
    if cfg["split"]["test_slices"] is None:
        count = cfg["split"]["test_count"]
        if count is None:
            raise ConfigError("split.test_count is null and split.test_slices is not set")
        split = dataclasses.replace(split, test_slices=D.default_test_slices(num_slices, count))
    return D.split_blocks(num_slices, split)


# ---------------------------------------------------------------- commands


def cmd_config(args) -> int:
    if not args.defaults:
        raise ConfigError("config: only --defaults is supported")
    print(json.dumps(resolve_config(), indent=2, sort_keys=True))
    return 0


def cmd_synth(args) -> int:
    cfg, run = _resolved(args)
    volume, masks = D.generate_synthetic_volume(run["synth"])
    vol_path, mask_path = Path(cfg["data"]["volume"]), Path(cfg["data"]["masks"])
    for p in (vol_path, mask_path):
        p.parent.mkdir(parents=True, exist_ok=True)
    D.save_volume(vol_path, volume)
    D.save_masks(mask_path, masks)
    print(f"wrote {vol_path} ({volume.data.shape[0]} slices of "
          f"{volume.data.shape[1]}x{volume.data.shape[2]}) and {mask_path}")
    return 0


def cmd_prepare(args) -> int:
    cfg, run = _resolved(args)
    volume = D.load_volume(cfg["data"]["volume"])
    masks = D.load_masks(cfg["data"]["masks"])
    if volume.data.shape != masks.data.shape:
        raise FormatError(f"volume {volume.data.shape} and masks {masks.data.shape} disagree")

    volume = D.preprocess_rescale(volume, cfg["data"]["clip_lo_pct"], cfg["data"]["clip_hi_pct"])
    if masks.num_classes == 8:
        masks = D.merge_classes(masks)
    elif masks.num_classes != 7:
        raise FormatError(f"expected 7- or 8-class masks, got {masks.num_classes}")

    split = _split_indices(cfg, run["split"], volume.num_slices)
    out = _out_dir(cfg)
    D.save_volume(out / "volume_proc.segv", volume)
    D.save_masks(out / "masks_merged.segv", masks)
    with D.atomic_open(out / "split.json", "w") as fh:
        fh.write(json.dumps({**split, "config_digest": config_digest(cfg)}, indent=2, sort_keys=True))
    for name, indices in (("tiles_train", split["train"]), ("tiles_val", split["val"])):
        tiles = D.tile_volume(volume, masks, indices, run["tiles"])
        tiles.save(out / name)
        print(f"{name}: {len(tiles)} tiles from slices {indices}")
        del tiles  # so the val set is cut with no train set alive
    return 0


def _load_prepared(cfg: dict):
    out = _out_dir(cfg)
    for required in ("volume_proc.segv", "masks_merged.segv", "split.json"):
        if not (out / required).exists():
            raise ConfigError(f"{out / required} missing; run `seistile prepare` first")
    volume = D.load_volume(out / "volume_proc.segv")
    masks = D.load_masks(out / "masks_merged.segv")
    path = out / "split.json"
    doc = D.read_json(path.read_bytes(), path, "split")
    try:
        split = {part: doc[part] for part in ("train", "val", "test")}
        if not all(D.is_int(i) and 0 <= i < volume.num_slices for part in split.values() for i in part):
            raise ValueError(f"slice indices must be integers in [0, {volume.num_slices})")
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"{path}: malformed split ({type(err).__name__}: {err})") from None
    return out, volume, masks, split


def cmd_train(args) -> int:
    cfg, run = _resolved(args)
    out, volume, masks, split = _load_prepared(cfg)
    tiles = D.TileSet.load(out / "tiles_train")

    spec = run["model"]
    T.check_tile(spec, tiles.tile_h, tiles.tile_w, "tiles")  # the tiles on disk may predate the config
    if spec.num_classes != masks.num_classes:
        raise ConfigError(f"model emits {spec.num_classes} classes but masks have {masks.num_classes}")
    model = build_model(spec, seed=cfg["seed"] + SEED_BUILD, dtype=np.float32,
                        bn_eps=cfg["model"]["bn_eps"], bn_momentum=cfg["model"]["bn_momentum"])
    val_data = [(volume.slice(i), masks.slice(i)) for i in split["val"]]

    finished = []  # epochs done; train has saved its best checkpoint before reporting one

    def progress(row):
        finished.append(row["epoch"])
        val = "" if row["val_miou"] is None else f" val_miou={row['val_miou']:.4f}"
        print(f"epoch {row['epoch']:3d} loss={row['loss']:.4f}{val} lr={row['lr']:g}",
              file=sys.stderr)

    ckpt_path = out / "checkpoint.ckpt"
    try:
        best, _ = train(model, tiles, val_data, run["train"], run["optimizer"],
                        log_path=out / "log.csv", checkpoint_path=ckpt_path, progress=progress)
    except KeyboardInterrupt:
        kept = (f"{ckpt_path} holds the best of the {len(finished)} finished epochs" if finished
                else "no epoch finished, so no checkpoint was written")
        raise KeyboardInterrupt(kept) from None
    print(f"best epoch {best.epoch} val_miou={best.val_miou:.4f} -> {ckpt_path}")
    return 0


def _restored(args):
    """The config, the prepared run and the model of ``--checkpoint`` (default
    the run's own), checked against the eval tile and the masks' classes."""
    cfg, _ = _resolved(args)
    out, volume, masks, split = _load_prepared(cfg)
    model = restore_model(load_checkpoint(args.checkpoint or (out / "checkpoint.ckpt")), cfg["model"]["bn_eps"])
    T.check_tile(model.spec, cfg["eval"]["tile_h"], cfg["eval"]["tile_w"], "eval")
    if model.num_classes != masks.num_classes:
        raise ConfigError(f"checkpoint model emits {model.num_classes} classes but masks have {masks.num_classes}")
    return cfg, out, volume, masks, split, model


def cmd_eval(args) -> int:
    cfg, out, volume, masks, split, model = _restored(args)
    if not split["test"]:
        raise ConfigError("split has no test slices")
    report = evaluate_testset(model, volume, masks, split["test"],
                              cfg["eval"]["tile_h"], cfg["eval"]["tile_w"])
    report.extra["config_digest"] = config_digest(cfg)
    for name, text in (("report.json", report_to_json(report)), ("report.csv", report_to_csv(report))):
        with D.atomic_open(out / name, "w") as fh:
            fh.write(text)
    print(report_to_csv(report), end="")
    print(f"mmIOU {report.mmiou:.6f} over {len(report.images)} test slices", file=sys.stderr)
    return 0


def cmd_count(args) -> int:
    _resolved(args)  # checks the config and prints its digest, as every command does
    if args.dsl:
        specs = [_read_dsl(args.dsl, "--dsl")]
    elif args.preset:
        specs = [T.preset(args.preset)]
    else:
        specs = [T.preset(name) for name in T.preset_names()]

    ops_per_mac = args.ops_per_mac
    sizes = [(80, 120), (128, 128)]
    if args.input:
        try:
            h, w = (int(v) for v in args.input.lower().split("x"))
        except ValueError:
            raise ConfigError(f"--input must look like 80x120, got {args.input!r}") from None
        if min(h, w) < 1:
            raise ConfigError(f"--input sides must be >= 1, got {args.input!r}")
        if (h, w) in sizes:  # a repeated column name would hide one of the two from a CSV reader
            print(f"--input {h}x{w} is already a column; not repeated", file=sys.stderr)
        else:
            sizes.insert(2, (h, w))

    print(",".join(["name", "parameters", *(f"ops_{h}x{w}" for h, w in sizes), "ops_per_mac"]))
    for spec in specs:
        ops = [str(T.count_operations(spec, h, w, ops_per_mac)) for h, w in sizes]
        print(",".join([spec.name, str(T.count_parameters(spec)), *ops, str(ops_per_mac)]))
    return 0


def cmd_export_masks(args) -> int:
    cfg, out, volume, masks, split, model = _restored(args)
    mask_dir = out / "masks"
    mask_dir.mkdir(exist_ok=True)
    indices = split["test"] or split["val"]
    preds = predict_slice_masks(model, [volume.slice(i) for i in indices],
                                cfg["eval"]["tile_h"], cfg["eval"]["tile_w"])
    for i, pred in zip(indices, preds):
        export_mask_pgm(mask_dir / f"pred_{i:04d}.pgm", pred, masks.num_classes)
        gt = masks.slice(i)[: pred.shape[0], : pred.shape[1]]
        export_mask_pgm(mask_dir / f"gt_{i:04d}.pgm", gt, masks.num_classes)
    print(f"wrote {2 * len(indices)} PGM masks to {mask_dir}")
    return 0


# ------------------------------------------------------------------ plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run config (defaults used when omitted)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field, e.g. --set train.batch_size=8")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out-dir", help="override data.out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seistile", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("config", help="print configuration defaults")
    p.add_argument("--defaults", action="store_true")
    p.set_defaults(fn=cmd_config)

    p = sub.add_parser("synth", help="generate a synthetic volume + masks")
    _add_common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("prepare", help="rescale, merge, split, and tile a volume")
    _add_common(p)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train a model on prepared tiles")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="run the tile-reassembly test protocol")
    _add_common(p)
    p.add_argument("--checkpoint", help="checkpoint path (default <out_dir>/checkpoint.ckpt)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("count", help="print parameter/operation counts as CSV")
    _add_common(p)
    p.add_argument("--preset", help="preset name (default: all presets)")
    p.add_argument("--dsl", help="topology DSL file instead of a preset")
    p.add_argument("--input", help="extra HxW column, e.g. 80x120")
    p.add_argument("--ops-per-mac", type=int, default=T.TABLE_OPS_PER_MAC, choices=(1, 2),
                   help="operation counting mode (default: %(default)s, the published-table calibration)")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("export-masks", help="write predicted masks as PGM images")
    _add_common(p)
    p.add_argument("--checkpoint", help="checkpoint path (default <out_dir>/checkpoint.ckpt)")
    p.set_defaults(fn=cmd_export_masks)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a pipe buffers a short output until exit, so a closed one fails here
        return code
    except BrokenPipeError:  # the reader left early (`| head`): 141 is the shell's 128 + SIGPIPE
        # the interpreter flushes what stdout still buffers at exit; into the closed pipe
        # that would print an error, into os.devnull it stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (SeistileError, OSError) as err:  # an OSError's text names its path
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, OSError) else err.exit_code
    except MemoryError as err:  # numpy's names the size it could not allocate
        print(f"error: out of memory{f': {err}' if str(err) else ''}", file=sys.stderr)
        return 3
    except KeyboardInterrupt as err:  # one line, not a traceback; 130 is the shell's 128 + SIGINT
        print(f"interrupted: {err}" if str(err) else "interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
