import json
import os
import shlex
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import seistile.train as train_mod
from seistile import cli, errors
from seistile.cli import main
from seistile.data import TileSet, load_masks, load_segv, load_volume, save_segv
from seistile.metrics import evaluate_testset, export_mask_pgm, predict_slice_mask
from seistile.network import build_model
from seistile.topology import parse_topology, preset, scale_widths
from seistile.train import Checkpoint, checkpoint_from_model, load_checkpoint, save_checkpoint


def desk_config(tmp_path, **tweaks):
    cfg = {
        "seed": 3,
        "data": {"volume": str(tmp_path / "vol.segv"), "masks": str(tmp_path / "m.segv"),
                 "out_dir": str(tmp_path / "out")},
        "synth": {"slices": 10, "height": 48, "width": 64, "num_classes": 8,
                  "horizon_waviness": 1.0},
        "split": {"n_blocks": 2, "test_count": 0},
        "tiles": {"tile_h": 24, "tile_w": 32},
        "model": {"preset": "danet-fcn2", "width_scale": 0.05},
        "train": {"batch_size": 16, "max_epochs": 2},
        "eval": {"tile_h": 24, "tile_w": 32},
    }
    for key, value in tweaks.items():
        section, _, field = key.partition(".")
        if field:
            cfg.setdefault(section, {})[field] = value
        else:
            cfg[section] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_defaults_prints_full_document(capsys):
    assert main(["config", "--defaults"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"seed", "data", "synth", "split", "tiles", "model", "train",
                        "optimizer", "eval"}


def test_count_preset_csv(capsys):
    assert main(["count", "--preset", "danet-fcn", "--input", "64x96"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "name,parameters,ops_80x120,ops_128x128,ops_64x96,ops_per_mac"
    row = out[1].split(",")
    assert row[0] == "danet-fcn"
    assert abs(int(row[1]) - 4.46e6) / 4.46e6 < 0.02
    assert row[-1] == "1"  # recorded counting mode


@pytest.mark.parametrize("size", ["80x120", "128X128"])
def test_count_input_that_is_a_fixed_column_is_not_repeated(capsys, size):
    assert main(["count", "--preset", "danet-fcn2", "--input", size]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header == "name,parameters,ops_80x120,ops_128x128,ops_per_mac"
    assert len(row.split(",")) == 5


def test_count_all_presets(capsys):
    assert main(["count"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    names = [l.split(",")[0] for l in lines[1:]]
    assert names == ["danet-fcn", "danet-fcn2", "danet-fcn3"]


def test_count_unknown_preset_exits_1(capsys):
    assert main(["count", "--preset", "vgg16"]) == 1


def test_missing_config_file_exits_1_with_no_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["synth", "--config", str(tmp_path / "absent.json"),
                 "--out-dir", str(out_dir)])
    assert code == 1
    assert not out_dir.exists()


def test_unknown_config_key_exits_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tiles": {"tile_height": 32}}))
    assert main(["synth", "--config", str(path)]) == 1


def test_prepare_without_volume_exits_2(tmp_path):
    cfg = desk_config(tmp_path)
    assert main(["prepare", "--config", str(cfg)]) == 2


def test_full_pipeline_smoke(tmp_path, capsys):
    cfg = desk_config(tmp_path, **{"split.test_slices": [9], "split.test_count": None})

    assert main(["synth", "--config", str(cfg)]) == 0
    vol = load_volume(tmp_path / "vol.segv")
    masks = load_masks(tmp_path / "m.segv")
    assert vol.data.shape == (10, 48, 64)
    assert masks.num_classes == 8

    assert main(["prepare", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    split = json.loads((out / "split.json").read_text())
    assert split["test"] == [9]
    merged = load_masks(out / "masks_merged.segv")
    assert merged.num_classes == 7
    proc, _ = load_segv(out / "volume_proc.segv")
    assert proc.min() >= 0.0 and proc.max() <= 255.0
    tiles = TileSet.load(out / "tiles_train")
    assert sorted(set(tiles.provenance[:, 0].tolist())) == split["train"]
    assert len(tiles) == 9 * len(split["train"])  # 3x3 grid per 48x64 slice

    assert main(["train", "--config", str(cfg)]) == 0
    assert (out / "checkpoint.ckpt").exists()
    log_lines = (out / "log.csv").read_text().strip().splitlines()
    assert log_lines[0] == "epoch,loss,val_miou,lr,seconds"
    assert len(log_lines) == 3

    assert main(["eval", "--config", str(cfg)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["mmiou"] <= 1.0
    assert len(report["images"]) == 1
    csv_text = (out / "report.csv").read_text()
    assert csv_text.splitlines()[0].startswith("image,iou_0")

    assert main(["export-masks", "--config", str(cfg)]) == 0
    pgms = sorted((out / "masks").glob("*.pgm"))
    assert [p.name for p in pgms] == ["gt_0009.pgm", "pred_0009.pgm"]

    err = capsys.readouterr().err
    assert "config sha256=" in err


def test_eval_and_export_masks_restore_with_the_configured_bn_eps(tmp_path, monkeypatch):
    """The CLI scores and exports what the trained model predicts in memory. Restored with
    the default eps 1e-5 instead of 0.01, this model changes about 2% of the test pixels."""
    cfg = desk_config(tmp_path, **{"split.test_slices": [9], "split.test_count": None,
                                   "train.max_epochs": 1, "model.bn_eps": 0.01})
    trained, real_train = [], cli.train
    monkeypatch.setattr(cli, "train", lambda model, *a, **k: trained.append(model) or real_train(model, *a, **k))
    for command in ("synth", "prepare", "train", "eval", "export-masks"):
        assert main([command, "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    volume, masks = load_volume(out / "volume_proc.segv"), load_masks(out / "masks_merged.segv")
    # one epoch: the saved checkpoint is the model as training left it
    report = evaluate_testset(trained[0], volume, masks, [9], 24, 32)
    assert json.loads((out / "report.json").read_text())["confusion"] == report.confusion.tolist()
    export_mask_pgm(tmp_path / "want.pgm", predict_slice_mask(trained[0], volume.slice(9), 24, 32))
    assert (out / "masks" / "pred_0009.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()


def test_prepare_hand_enumerated_split_and_idempotence(tmp_path):
    cfg = desk_config(tmp_path)  # test_count 0: pure 2-block split of 10 slices
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    split = json.loads((out / "split.json").read_text())
    assert split["train"] == [0, 1, 2, 5, 6, 7]
    assert split["val"] == [3, 4, 8, 9]
    for name, want in (("tiles_train", split["train"]), ("tiles_val", split["val"])):
        tiles = TileSet.load(out / name)
        assert sorted(set(tiles.provenance[:, 0].tolist())) == want

    files = sorted(p for p in out.iterdir() if p.is_file())
    before = {p.name: p.read_bytes() for p in files}
    assert main(["prepare", "--config", str(cfg)]) == 0
    after = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
    assert before == after  # byte-identical rerun


def test_prepare_holds_one_tile_set_at_a_time(tmp_path):
    """prepare's traced peak: the rescaled volume, the merged masks and the larger of the
    two tile sets, each cut slice by slice into place and saved with its sidecar streamed.
    Holding the train set while the val set is cut would add the val set's 3.4 MB."""
    cfg = desk_config(tmp_path, **{"synth.height": 96, "synth.width": 144,
                                   "tiles": {"tile_h": 16, "tile_w": 24, "overlap_fraction": 0.75}})
    for command in ("synth", "prepare"):  # the first prepare makes the imports and caches it keeps
        assert main([command, "--config", str(cfg)]) == 0
    tracemalloc.start()
    try:
        assert main(["prepare", "--config", str(cfg)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = tmp_path / "out"
    sets = [TileSet.load(out / name) for name in ("tiles_train", "tiles_val")]
    assert [len(ts) for ts in sets] == [6 * 21 * 21, 4 * 21 * 21]
    volume_and_masks = 10 * 96 * 144 * (4 + 1)  # f32 volume, u8 masks
    assert peak <= volume_and_masks + max(ts.images.nbytes + ts.masks.nbytes for ts in sets) + (1 << 20)


def test_cli_set_overrides(tmp_path, capsys):
    cfg = desk_config(tmp_path)
    assert main(["synth", "--config", str(cfg), "--set", "synth.slices=4"]) == 0
    vol = load_volume(tmp_path / "vol.segv")
    assert vol.data.shape[0] == 4


def test_train_before_prepare_exits_1(tmp_path):
    cfg = desk_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("schedule", ["[]", "[[3, 0.1]]"])
def test_train_with_no_rate_for_epoch_0_exits_1_before_touching_the_run(tmp_path, capsys, schedule):
    cfg = desk_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 0
    log = tmp_path / "out" / "log.csv"
    log.write_text("epoch,loss,val_miou,lr,seconds\n0,1.5,,0.1,0.010\n")  # a previous run's log
    assert main(["train", "--config", str(cfg), "--set", f"train.lr_schedule={schedule}"]) == 1
    assert "no rate for epoch 0" in capsys.readouterr().err
    assert log.read_text() == "epoch,loss,val_miou,lr,seconds\n0,1.5,,0.1,0.010\n"
    assert not (tmp_path / "out" / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("assignment, words", [("optimizer.decay=5.0", "decay must lie in [0, 1)"),
                                              ("train.lr_schedule=[[3,0.1]]", "no rate for epoch 0")])
def test_count_and_prepare_check_the_train_and_optimizer_sections(tmp_path, capsys, assignment, words):
    cfg = desk_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    capsys.readouterr()
    for command in ("count", "prepare"):
        assert main([command, "--config", str(cfg), "--set", assignment]) == 1
        assert words in capsys.readouterr().err
    assert not (tmp_path / "out" / "split.json").exists()


# setup (None, "synth", or "prepare": synth, prepare and a 7-class checkpoint
# at tiny.ckpt) with its --set values, a file edit after it, the environment,
# the command ({tmp} is the test's directory), its exit code and a message fragment
CLI_EXITS = {
    "config_without_defaults": (None, [], None, {}, ["config"], 1, "only --defaults"),
    "count_input_not_hxw": (None, [], None, {}, ["count", "--input", "80by120"], 1, "--input must look like 80x120"),
    "count_input_negative": (None, [], None, {}, ["count", "--preset", "danet-fcn2", "--input=-80x120"], 1,
                             "--input sides must be >= 1, got '-80x120'"),
    "count_input_zero": (None, [], None, {}, ["count", "--preset", "danet-fcn2", "--input", "0x0"], 1,
                         "--input sides must be >= 1, got '0x0'"),
    "count_input_zero_width": (None, [], None, {}, ["count", "--input", "80x0"], 1,
                               "--input sides must be >= 1, got '80x0'"),
    "count_input_already_a_column": (None, [], None, {}, ["count", "--preset", "danet-fcn2", "--input", "80x120"], 0,
                                     "--input 80x120 is already a column; not repeated"),
    "count_clip_percentiles_reversed": (None, [], None, {}, ["count", "--set", "data.clip_lo_pct=99",
                                                             "--set", "data.clip_hi_pct=1"], 1,
                                        "data.clip_lo_pct=99 and data.clip_hi_pct=1 must satisfy"),
    "count_clip_hi_past_100": (None, [], None, {}, ["count", "--set", "data.clip_hi_pct=150"], 1,
                               "data.clip_lo_pct=1.0 and data.clip_hi_pct=150 must satisfy"),
    "count_infinite_learning_rate": (None, [], None, {}, ["count", "--set", "train.lr_schedule=[[0, Infinity]]"],
                                     1, "learning rates must be positive and finite"),
    "count_set_without_equals": (None, [], None, {}, ["count", "--set", "seed"], 1, "is not of the form key=value"),
    "synth_too_short": (None, [], None, {}, ["synth", "--set", "synth.height=10"], 1, "volume too small"),
    "count_bn_eps_zero": (None, [], None, {}, ["count", "--preset", "danet-fcn2", "--set", "model.bn_eps=0"], 1,
                          "model.bn_eps must be > 0, got 0"),
    "count_bn_momentum_past_one": (None, [], None, {}, ["count", "--preset", "danet-fcn2",
                                                        "--set", "model.bn_momentum=1.5"], 1,
                                   "model.bn_momentum must lie in (0, 1), got 1.5"),
    "count_eval_tile_zero": (None, [], None, {}, ["count", "--preset", "danet-fcn2", "--set", "eval.tile_h=0"], 1,
                             "eval.tile_h=0: a tile side must be >= 1"),
    "prepare_bn_eps_zero": ("synth", [], None, {}, ["prepare", "--set", "model.bn_eps=0"], 1,
                            "model.bn_eps must be > 0, got 0"),
    "prepare_bn_momentum_past_one": ("synth", [], None, {}, ["prepare", "--set", "model.bn_momentum=1.5"], 1,
                                     "model.bn_momentum must lie in (0, 1), got 1.5"),
    "prepare_eval_tile_zero": ("synth", [], None, {}, ["prepare", "--set", "eval.tile_h=0"], 1,
                               "eval.tile_h=0: a tile side must be >= 1"),
    "prepare_eval_tile_the_model_changes": ("synth", [], None, {}, ["prepare", "--set", "eval.tile_w=100"], 1,
                                            "eval.tile_w=100: danet-fcn2-w0.05 turns a 24x100 tile into 24x104"),
    "prepare_clip_percentiles_reversed": ("synth", [], None, {}, ["prepare", "--set", "data.clip_lo_pct=99",
                                                                  "--set", "data.clip_hi_pct=1"], 1,
                                          "data.clip_lo_pct=99 and data.clip_hi_pct=1 must satisfy"),
    "prepare_clip_hi_past_100": ("synth", [], None, {}, ["prepare", "--set", "data.clip_hi_pct=150"], 1,
                                 "data.clip_lo_pct=1.0 and data.clip_hi_pct=150 must satisfy"),
    "prepare_shapes_disagree": ("synth", [], lambda t: save_segv(t / "m.segv", load_segv(t / "m.segv")[0][:5],
                                                                 {"num_classes": 8}),
                                {}, ["prepare"], 2, "(5, 48, 64) disagree"),
    "prepare_nine_classes": ("synth", ["synth.num_classes=9"], None, {}, ["prepare"], 2,
                             "expected 7- or 8-class masks, got 9"),
    "prepare_nan_volume": ("synth", [], lambda t: save_segv(t / "vol.segv", np.full((10, 48, 64), np.nan, np.float32)),
                           {}, ["prepare"], 2, "non-finite"),
    "prepare_mask_value_past_classes": ("synth", [], lambda t: (t / "m.segv.json").write_text('{"num_classes": 3}'),
                                        {}, ["prepare"], 2, "mask value 7 >= num_classes 3"),
    "prepare_no_blocks": ("synth", [], None, {}, ["prepare", "--set", "split.n_blocks=0"], 1, "n_blocks must be >= 1"),
    "prepare_no_val": ("synth", [], None, {}, ["prepare", "--set", "split.train_fraction=1.0"], 1,
                       "train_fraction must lie in (0, 1)"),
    "prepare_test_count_past_slices": ("synth", [], None, {}, ["prepare", "--set", "split.test_count=11"], 1,
                                       "cannot reserve 11 test slices out of 10"),
    "prepare_test_slice_outside": ("synth", [], None, {}, ["prepare", "--set", "split.test_slices=[999]"], 1,
                                   "test slice 999 outside [0, 10)"),
    "prepare_too_few_slices": ("synth", [], None, {}, ["prepare", "--set", "split.n_blocks=20"], 1,
                               "10 slices cannot fill 20 blocks"),
    "prepare_whole_tile_overlap": ("synth", [], None, {}, ["prepare", "--set", "tiles.overlap_fraction=1.0"], 1,
                                   "overlap_fraction must lie in [0, 1)"),
    "train_classes_disagree": ("prepare", [], lambda t: (t / "five.dsl").write_text("c3 s2 4\ntc3 s2 4\nout 5"),
                               {}, ["train", "--set", "model.dsl_path={tmp}/five.dsl"], 1,
                               "model emits 5 classes but masks have 7"),
    "eval_zero_threads": ("prepare", ["split.test_slices=[9]"], None, {"SEISTILE_THREADS": "0"},
                          ["eval", "--checkpoint", "{tmp}/tiny.ckpt"], 1, "SEISTILE_THREADS must be >= 1"),
    "eval_nan_checkpoint": ("prepare", ["split.test_slices=[9]"], lambda t: _nan_first_value(t / "tiny.ckpt"), {},
                            ["eval", "--checkpoint", "{tmp}/tiny.ckpt"], 2,
                            "tensor layer0.conv.kernel holds a NaN or infinite value"),
    "eval_no_test_slices": ("prepare", ["split.test_count=0"], None, {}, ["eval", "--checkpoint", "{tmp}/tiny.ckpt"],
                            1, "split has no test slices"),
}


@pytest.mark.parametrize("case", CLI_EXITS)
def test_each_cli_exit_has_its_code_and_message_and_writes_nothing(tmp_path, monkeypatch, capsys, case):
    setup, setup_set, edit, env, argv, code, words = CLI_EXITS[case]
    monkeypatch.chdir(tmp_path)
    cfg = desk_config(tmp_path)
    overrides = [a for v in setup_set for a in ("--set", v)]
    if setup:
        assert main(["synth", "--config", str(cfg), *overrides]) == 0
    if setup == "prepare":
        assert main(["prepare", "--config", str(cfg), *overrides]) == 0
        _tiny_checkpoint(tmp_path / "tiny.ckpt")
    if edit:
        edit(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] != "config":  # the one command that reads no run config
        argv += ["--config", str(cfg)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert words in err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


def test_corrupt_checkpoint_exits_2_for_eval_and_export(tmp_path, capsys):
    cfg = desk_config(tmp_path, **{"split.test_slices": [9], "split.test_count": None})
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 0
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"DNCKPT1\n" + (1000).to_bytes(4, "little") + b'{"topology": ')  # header cut short
    for command in ("eval", "export-masks"):
        assert main([command, "--config", str(cfg), "--checkpoint", str(bad)]) == 2
    assert capsys.readouterr().err.count("bad.ckpt") == 2


def test_checkpoint_with_unparsable_topology_exits_2_for_eval(tmp_path, capsys):
    cfg = desk_config(tmp_path, **{"split.test_slices": [9], "split.test_count": None})
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 0
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(Checkpoint("frobnicate 12\n", 0, 0.5, params={}, buffers={}), bad)
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad)]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_train_on_tiles_with_mismatched_sidecar_exits_2(tmp_path, capsys):
    cfg = desk_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 0
    sidecar = tmp_path / "out" / "tiles_train.json"
    header = json.loads(sidecar.read_text())
    header["tiles"].pop()
    sidecar.write_text(json.dumps(header))
    assert main(["train", "--config", str(cfg)]) == 2
    assert "provenance" in capsys.readouterr().err


def test_prepare_with_malformed_volume_sidecar_exits_2(tmp_path, capsys):
    cfg = desk_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    (tmp_path / "vol.segv.json").write_text("{not json")
    assert main(["prepare", "--config", str(cfg)]) == 2
    assert "vol.segv.json" in capsys.readouterr().err


@pytest.mark.parametrize("sidecar", ['[1, 2]', '{"num_classes": "seven"}'])
def test_prepare_with_malformed_mask_sidecar_exits_2(tmp_path, capsys, sidecar):
    cfg = desk_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    (tmp_path / "m.segv.json").write_text(sidecar)
    assert main(["prepare", "--config", str(cfg)]) == 2
    assert "m.segv" in capsys.readouterr().err


def test_prepare_with_wrapping_volume_extents_exits_2(tmp_path, capsys):
    cfg = desk_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    (tmp_path / "vol.segv").write_bytes(b"SEGV1\n" + bytes([0, 4]) + struct.pack("<4I", *[65536] * 4))
    assert main(["prepare", "--config", str(cfg)]) == 2
    assert "payload" in capsys.readouterr().err


def test_checkpoint_tensor_of_the_wrong_shape_exits_2_for_eval(tmp_path, capsys):
    cfg = desk_config(tmp_path, **{"split.test_slices": [9], "split.test_count": None})
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 0
    ckpt = checkpoint_from_model(build_model(parse_topology("c3 s2 4\ntc3 s2 4\nout 7"), seed=0))
    kernel = ckpt.params["layer0.conv.kernel"]  # 3 x 3 x 1 x 4, stored as 3 x 3 x 4 x 1
    ckpt.params["layer0.conv.kernel"] = np.ascontiguousarray(kernel.transpose(0, 1, 3, 2))
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, bad)
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad)]) == 2
    assert "layer0.conv.kernel" in capsys.readouterr().err


# Each value the config walk rejects, with the key its message must name.
MALFORMED = [
    ("train.batch_size", "abc", "train.batch_size"),
    ("train.batch_size", "null", "train.batch_size"),
    ("train.batch_size", "8.5", "train.batch_size"),
    ("train.batch_size", "true", "train.batch_size"),
    ("train.batch_size", '"8"', "train.batch_size"),
    ("train.lr_schedule", "5", "train.lr_schedule"),
    ("split.n_blocks", "abc", "split.n_blocks"),
    ("split.test_slices", "3", "split.test_slices"),
    ("split.slice_limit", "-5", "split.slice_limit"),
    ("split.test_count", "-3", "split.test_count"),
    ("data.clip_lo_pct", "x", "data.clip_lo_pct"),
    ("optimizer.decay", "false", "optimizer.decay"),
    ("model.width_scale", "null", "model.width_scale"),
    ("model.bn_eps", "NaN", "model.bn_eps"),
    ("seed", "-5", "seed"),
    ("seed.x", "1", "seed"),
    ("train", "1", "train"),
]


def _nested(dotted, value):
    *sections, leaf = dotted.split(".")
    doc = {leaf: value}
    for key in reversed(sections):
        doc = {key: doc}
    return doc


@pytest.mark.parametrize("source", ["file", "--set"])
@pytest.mark.parametrize("dotted, raw, named", MALFORMED)
def test_malformed_config_value_exits_1_naming_its_key(tmp_path, monkeypatch, capsys,
                                                       source, dotted, raw, named):
    monkeypatch.chdir(tmp_path)  # a value let through would make synth write here
    if source == "file":
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        (tmp_path / "bad.json").write_text(json.dumps(_nested(dotted, value)))
        argv = ["synth", "--config", "bad.json"]
    else:
        argv = ["synth", "--set", f"{dotted}={raw}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {named} must be" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == ([tmp_path / "bad.json"] if source == "file" else [])


def test_negative_seed_flag_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--seed", "-5"]) == 1
    assert "error: seed must be >= 0, got -5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("waviness", [[], ["--set", "synth.horizon_waviness=0"]])
def test_synth_with_more_classes_than_u8_labels_hold_exits_1(tmp_path, monkeypatch, capsys, waviness):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--set", "synth.num_classes=300", "--set", "synth.height=600", *waviness]) == 1
    assert "num_classes must lie in [2, 256], got 300" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _tiny_checkpoint(path, seed=0):
    """A 7-class checkpoint of total stride 2 for eval and export-masks."""
    save_checkpoint(checkpoint_from_model(build_model(parse_topology("c3 s2 4\ntc3 s2 4\nout 7"), seed=seed)), path)
    return path


def _nan_first_value(path):
    """Write a NaN over the first value of the checkpoint's first tensor, layer0.conv.kernel."""
    blob = path.read_bytes()
    start = 12 + struct.unpack_from("<I", blob, 8)[0]
    path.write_bytes(blob[:start] + np.float32(np.nan).tobytes() + blob[start + 4 :])


def _prepared_with_tiny_checkpoint(tmp_path):
    """synth + prepare on a 48x72 volume with test slice 9 and 24x24 evaluation tiles."""
    cfg = desk_config(tmp_path, **{"synth.width": 72, "split.test_slices": [9],
                                   "split.test_count": None, "eval.tile_w": 24})
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 0
    return cfg, _tiny_checkpoint(tmp_path / "tiny.ckpt")


def test_eval_tile_size_below_one_exits_1(tmp_path, capsys):
    cfg, ckpt = _prepared_with_tiny_checkpoint(tmp_path)
    capsys.readouterr()
    for tile_h in ("0", "-8"):  # no stride, so no tile grid
        for command in ("eval", "export-masks"):
            assert main([command, "--config", str(cfg), "--checkpoint", str(ckpt),
                         "--set", f"eval.tile_h={tile_h}"]) == 1
            assert f"tile_h={tile_h}" in capsys.readouterr().err


def test_checkpoint_with_another_class_count_exits_1_naming_both(tmp_path, capsys):
    cfg, _ = _prepared_with_tiny_checkpoint(tmp_path)
    nine = tmp_path / "nine.ckpt"
    save_checkpoint(checkpoint_from_model(build_model(parse_topology("c3 s2 4\ntc3 s2 4\nout 9"), seed=0)), nine)
    capsys.readouterr()
    for command in ("eval", "export-masks"):
        assert main([command, "--config", str(cfg), "--checkpoint", str(nine)]) == 1
        err = capsys.readouterr().err
        assert "emits 9 classes but masks have 7" in err
        assert "Traceback" not in err
    out = tmp_path / "out"
    assert not any((out / name).exists() for name in ("report.json", "report.csv", "masks"))


def test_directory_given_as_an_input_file_exits_2_naming_it(tmp_path, capsys):
    cfg, ckpt = _prepared_with_tiny_checkpoint(tmp_path)
    folder = tmp_path / "a_directory"
    folder.mkdir()
    capsys.readouterr()
    for argv in (["prepare", "--set", f"data.volume={folder}"],
                 ["eval", "--checkpoint", str(folder)],
                 ["export-masks", "--checkpoint", str(folder)]):
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert str(folder) in err
        assert "Traceback" not in err


def test_model_section_value_out_of_range_exits_1(tmp_path, capsys):
    cfg = desk_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 0
    capsys.readouterr()
    for assignment, words in (("model.bn_eps=0", "eps must be > 0"),
                              ("model.bn_momentum=1.5", "momentum must lie in (0, 1)"),
                              ("model.width_scale=0", "model.width_scale must be > 0"),
                              ("model.width_scale=-1", "model.width_scale must be > 0")):
        assert main(["train", "--config", str(cfg), "--set", assignment]) == 1
        assert words in capsys.readouterr().err
    assert not (tmp_path / "out" / "checkpoint.ckpt").exists()


def test_null_test_count_without_test_slices_exits_1(tmp_path, capsys):
    cfg = desk_config(tmp_path, **{"split.test_count": None})
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 1
    assert "split.test_count is null" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", '{"train": [1]}', '{"train": [0], "val": [1], "test": [99]}',
                                  '{"train": [0], "val": ["1"], "test": []}', "[1, 2]"])
def test_malformed_split_json_exits_2(tmp_path, capsys, text):
    cfg, ckpt = _prepared_with_tiny_checkpoint(tmp_path)
    (tmp_path / "out" / "split.json").write_text(text)
    capsys.readouterr()
    for argv in (["train"], ["eval", "--checkpoint", str(ckpt)], ["export-masks", "--checkpoint", str(ckpt)]):
        assert main(argv + ["--config", str(cfg)]) == 2
        assert "split.json: malformed split" in capsys.readouterr().err


def test_failed_report_write_keeps_the_previous_report(tmp_path, capsys, failing_writes):
    cfg, ckpt = _prepared_with_tiny_checkpoint(tmp_path)
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
    out = tmp_path / "out"
    previous = {name: (out / name).read_bytes() for name in ("report.json", "report.csv")}
    other = _tiny_checkpoint(tmp_path / "other.ckpt", seed=1)
    names = sorted(p.name for p in out.iterdir())

    failing_writes(1)
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(other)]) == 2
    err = capsys.readouterr().err
    assert "no space" in err and "report.json" in err
    assert {name: (out / name).read_bytes() for name in previous} == previous
    assert sorted(p.name for p in out.iterdir()) == names


def test_tile_width_the_topology_does_not_return_exits_1_naming_its_key(tmp_path, capsys):
    """danet-fcn2 has total stride 8, so it turns a 100-wide tile into a 104-wide mask."""
    stride2 = tmp_path / "stride2.dsl"
    stride2.write_text("c3 s2 4\ntc3 s2 4\nout 7\n")
    cfg = desk_config(tmp_path, **{"synth.width": 200, "split.test_slices": [9], "split.test_count": None})
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg), "--set", "tiles.tile_w=100",
                 "--set", f"model.dsl_path={stride2}"]) == 0  # 100 survives a stride-2 net
    fcn2 = tmp_path / "fcn2.ckpt"
    save_checkpoint(checkpoint_from_model(build_model(scale_widths(preset("danet-fcn2"), 0.05), seed=0)), fcn2)
    capsys.readouterr()
    for argv, key in ((["prepare", "--set", "tiles.tile_w=100"], "tiles.tile_w=100"),
                      (["train", "--set", "tiles.tile_w=100"], "tiles.tile_w=100"),
                      (["eval", "--checkpoint", str(fcn2), "--set", "eval.tile_w=100"], "eval.tile_w=100"),
                      (["export-masks", "--checkpoint", str(fcn2), "--set", "eval.tile_w=100"], "eval.tile_w=100")):
        assert main(argv + ["--config", str(cfg)]) == 1, argv
        assert f"error: {key}: " in capsys.readouterr().err
    out = tmp_path / "out"
    assert not any((out / name).exists() for name in ("checkpoint.ckpt", "report.json", "masks"))


# The exit code of every error class, spelled out: a new class needs an entry.
EXIT_CODES = {"SeistileError": 3, "DimensionError": 3, "ContractError": 3, "ParseError": 1,
              "TopologyError": 1, "ConfigError": 1, "FormatError": 2, "CorruptionError": 2,
              "LabelError": 2, "DegenerateBatchError": 3, "DivergenceError": 3, "OSError": 2}


@pytest.mark.parametrize("name", [n for n, c in vars(errors).items()
                                  if isinstance(c, type) and issubclass(c, Exception)] + ["OSError"])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, name):
    def failing(args):
        raise getattr(errors, name, OSError)("injected")

    monkeypatch.setattr(cli, "cmd_config", failing)
    assert main(["config", "--defaults"]) == EXIT_CODES[name]
    assert capsys.readouterr().err == "error: injected\n"


README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_commands():
    """The `seistile` lines of the bash block under "Quick start (CLI)"."""
    section = README.read_text().split("## Quick start (CLI)", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("seistile ")]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _quick_start_commands()
    assert [argv[0] for argv in commands] == ["config", "synth", "prepare", "train", "eval", "export-masks"]
    for argv in commands:
        redirect = None
        if ">" in argv:
            argv, redirect = argv[: argv.index(">")], argv[argv.index(">") + 1]
        if argv[0] == "train":
            argv = argv + ["--set", "train.max_epochs=1"]  # one epoch proves the syntax
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        if redirect is not None:
            (tmp_path / redirect).write_text(captured.out)
        else:
            assert "config sha256=" in captured.err
    run = tmp_path / "run"
    for name in ("volume_proc.segv", "masks_merged.segv", "split.json", "tiles_train.json",
                 "tiles_val.json", "checkpoint.ckpt", "report.json", "report.csv"):
        assert (run / name).is_file(), name
    assert len((run / "log.csv").read_text().splitlines()) == 2  # header and one epoch
    test = json.loads((run / "split.json").read_text())["test"]
    assert [image["index"] for image in json.loads((run / "report.json").read_text())["images"]] == test
    assert len(list((run / "masks").glob("*.pgm"))) == 2 * len(test)


def test_train_whose_loss_goes_nan_exits_3_and_keeps_the_last_good_checkpoint(tmp_path, capsys, monkeypatch):
    cfg = desk_config(tmp_path, **{"train.batch_size": 1000, "train.max_epochs": 4})  # one batch an epoch
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 0
    calls = iter(range(100))
    real_loss = train_mod.softmax_cross_entropy

    def loss_fn(logits, labels):  # loss call k is epoch k
        loss = real_loss(logits, labels)
        if next(calls) == 2:
            loss.data = np.full_like(loss.data, np.nan)
        return loss

    monkeypatch.setattr(train_mod, "softmax_cross_entropy", loss_fn)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "error: loss became nan at epoch 2" in err
    scores = [float(row.split(",")[2]) for row in (tmp_path / "out" / "log.csv").read_text().splitlines()[1:]]
    assert len(scores) == 2  # epochs 0 and 1 finished and were validated
    ckpt = load_checkpoint(tmp_path / "out" / "checkpoint.ckpt")
    assert ckpt.epoch == scores.index(max(scores))
    assert round(ckpt.val_miou, 6) == max(scores)


@pytest.mark.parametrize("flag", ["--dsl", "model.dsl_path"])
def test_dsl_file_that_is_not_utf8_exits_1_naming_its_source(tmp_path, capsys, flag):
    bad = tmp_path / "bad.dsl"
    bad.write_bytes(b"c3 s2 4\n\xfftc3 s2 4\nout 7\n")
    if flag == "--dsl":
        argv = ["count", "--dsl", str(bad)]
    else:  # prepare reads the model's DSL before anything else
        argv = ["prepare", "--set", f"model.dsl_path={bad}", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {flag} {bad}: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("interrupted_epoch", [0, 2])
def test_ctrl_c_during_train_exits_130_with_one_line_naming_the_kept_checkpoint(tmp_path, capsys, monkeypatch,
                                                                                interrupted_epoch):
    cfg = desk_config(tmp_path, **{"train.batch_size": 1000, "train.max_epochs": 4})  # one batch an epoch
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["prepare", "--config", str(cfg)]) == 0
    calls = iter(range(100))
    real_loss = train_mod.softmax_cross_entropy

    def loss_fn(logits, labels):  # loss call k is epoch k
        if next(calls) == interrupted_epoch:
            raise KeyboardInterrupt
        return real_loss(logits, labels)

    monkeypatch.setattr(train_mod, "softmax_cross_entropy", loss_fn)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 130
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert [line for line in err.splitlines() if "interrupted" in line] == [last]
    path = tmp_path / "out" / "checkpoint.ckpt"
    if interrupted_epoch == 0:
        assert last == "interrupted: no epoch finished, so no checkpoint was written"
        assert not path.exists()
    else:
        assert last == f"interrupted: {path} holds the best of the 2 finished epochs"
        assert load_checkpoint(path).epoch in (0, 1)


def test_ctrl_c_in_any_command_exits_130_without_a_traceback(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_config", interrupted)
    assert main(["config", "--defaults"]) == 130
    assert capsys.readouterr().err == "interrupted\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_output_pipe_closed_before_the_first_write_exits_141_silently(unbuffered):
    # the read end is closed first, so the first write fails every time (as `| head` can); a
    # buffered stdout holds the short output until it is flushed, an unbuffered one writes at once
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run([sys.executable, "-m", "seistile.cli", "config", "--defaults"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")
