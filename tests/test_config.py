import json

import pytest

from seistile.config import apply_overrides, config_digest, load_config, resolve_config
from seistile.errors import ConfigError


def test_defaults_resolve_cleanly():
    cfg = resolve_config()
    assert cfg["train"]["batch_size"] == 64
    assert cfg["optimizer"]["weight_decay"] == 5e-4
    assert cfg["tiles"] == {"tile_h": 80, "tile_w": 120, "overlap_fraction": 0.5}


def test_partial_file_merges_over_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 9, "train": {"batch_size": 8}}))
    cfg = load_config(path)
    assert cfg["seed"] == 9
    assert cfg["train"]["batch_size"] == 8
    assert cfg["train"]["max_epochs"] == 200  # untouched default


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"trian": {"batch_size": 8}}))
    with pytest.raises(ConfigError, match="trian"):
        load_config(path)
    path.write_text(json.dumps({"train": {"batchsize": 8}}))
    with pytest.raises(ConfigError, match="batchsize"):
        load_config(path)


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(tmp_path / "nope.json")


def test_overrides_with_json_values():
    cfg = resolve_config()
    out = apply_overrides(cfg, ["train.batch_size=16", "model.preset=danet-fcn",
                                "split.slice_limit=5"])
    assert out["train"]["batch_size"] == 16
    assert out["model"]["preset"] == "danet-fcn"
    assert out["split"]["slice_limit"] == 5
    assert cfg["train"]["batch_size"] == 64  # original untouched


def test_override_unknown_key_rejected():
    with pytest.raises(ConfigError):
        apply_overrides(resolve_config(), ["nope.thing=1"])
    with pytest.raises(ConfigError):
        apply_overrides(resolve_config(), ["train=1"])


def test_digest_stable_and_sensitive():
    a = resolve_config()
    b = resolve_config()
    assert config_digest(a) == config_digest(b)
    c = apply_overrides(a, ["seed=1"])
    assert config_digest(a) != config_digest(c)


def test_value_types_come_from_the_defaults():
    cfg = resolve_config({"optimizer": {"epsilon": 1}, "model": {"dsl_path": "net.dsl"},
                          "split": {"test_count": None, "test_slices": [2, 5]}})
    assert type(cfg["optimizer"]["epsilon"]) is int  # kept as given, so digests do not move
    # the config merged into holds an int; the float default still admits a float
    out = apply_overrides(cfg, ["optimizer.epsilon=0.5", "split.slice_limit=null", "seed=4", "seed=5"])
    assert out["optimizer"]["epsilon"] == 0.5
    assert out["split"]["slice_limit"] is None
    assert out["seed"] == 5  # a later override wins
    with pytest.raises(ConfigError, match="split.slice_limit must be an integer or null"):
        apply_overrides(cfg, ["split.slice_limit=2.0"])
    with pytest.raises(ConfigError, match="optimizer.epsilon must be a finite number"):
        apply_overrides(cfg, ["optimizer.epsilon=Infinity"])
