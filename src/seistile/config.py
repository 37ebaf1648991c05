"""Run configuration: JSON documents with strict keys, defaults, overrides,
and a provenance digest.

A run config is a JSON object with the sections below. Files may specify any
subset; unspecified fields take defaults, unknown keys are rejected, and each
value must have its default's type (an int also serves where a float is
expected). All randomness in a run flows from the single top-level seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from pathlib import Path

from .data import JSON_MAX_DEPTH, json_depth, read_json
from .errors import ConfigError

__all__ = ["DEFAULTS", "load_config", "resolve_config", "apply_overrides", "config_digest"]

DEFAULTS: dict = {
    "seed": 0,
    "data": {
        "volume": "volume.segv",
        "masks": "masks.segv",
        "out_dir": "run",
        "clip_lo_pct": 1.0,
        "clip_hi_pct": 99.0,
    },
    "synth": {
        "slices": 24,
        "height": 160,
        "width": 240,
        "num_classes": 8,  # merged down to 7 by prepare
        "horizon_waviness": 5.0,
    },
    "split": {
        "n_blocks": 10,
        "train_fraction": 0.7,
        "slice_limit": None,
        "test_count": 40,
        "test_slices": None,  # explicit list wins over test_count
    },
    "tiles": {"tile_h": 80, "tile_w": 120, "overlap_fraction": 0.5},
    "model": {"preset": "danet-fcn2", "dsl_path": None, "width_scale": 1.0,
              "bn_eps": 1e-5, "bn_momentum": 0.997},
    "train": {
        "batch_size": 64,
        "max_epochs": 200,
        "eval_every": 1,
        "lr_schedule": [[0, 0.01], [50, 0.001], [100, 5e-4], [150, 1e-5]],
    },
    "optimizer": {"decay": 0.9, "momentum": 0.9, "epsilon": 1.0, "weight_decay": 5e-4},
    "eval": {"tile_h": 80, "tile_w": 120},
}


# fields that take null besides one type of value, and that type
_NULLABLE = {"split.slice_limit": int, "split.test_count": int,
             "split.test_slices": list, "model.dsl_path": str}
_MINIMUM = {"seed": 0, "split.slice_limit": 0, "split.test_count": 0}  # numpy takes no negative seed
# a float field takes an int and keeps it as given; bool, an int to Python, is no number
_TYPES = {int: (int, "an integer"), float: ((int, float), "a finite number"),
          str: (str, "a string"), list: (list, "a list")}


def _check(where: str, default, value) -> None:
    if value is None and where in _NULLABLE:
        return
    accepted, name = _TYPES[_NULLABLE.get(where, type(default))]
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or isinstance(value, float) and not math.isfinite(value)):  # json reads NaN and Infinity
        null = " or null" if where in _NULLABLE else ""
        raise ConfigError(f"{where} must be {name}{null}, got {json.dumps(value, default=repr)}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:  # past any float; a tile stride or a scale is one
        raise ConfigError(f"{where} must lie within +-{sys.float_info.max:g}, got {len(str(abs(value)))} digits")
    if where in _MINIMUM and value < _MINIMUM[where]:
        raise ConfigError(f"{where} must be >= {_MINIMUM[where]}, got {value}")


def _merge(base: dict, override: dict, path: str = "", defaults: dict = DEFAULTS) -> dict:
    """``base`` with ``override`` laid over it: the one place a config is checked.
    Every key must be one of the defaults' and every value of its default's type."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            out[key] = _merge(base[key], value, where, defaults[key])
        else:
            _check(where, defaults[key], value)
            out[key] = value
    return out


def load_config(path) -> dict:
    """Read a JSON config file and resolve it against the defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    return resolve_config(read_json(path.read_bytes(), path, "config", ConfigError))


def resolve_config(partial: dict | None = None) -> dict:
    return _merge(DEFAULTS, partial or {})


def apply_overrides(config: dict, assignments) -> dict:
    """Apply ``section.key=json_value`` overrides from the command line, checked
    as a config file is; a later override of the same field wins."""
    partial: dict = {}
    for assignment in assignments or ():
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form key=value")
        dotted, raw = assignment.split("=", 1)
        try:
            value = json.loads(raw)
            if json_depth(value) > JSON_MAX_DEPTH:  # as read_json refuses it in a file
                raise RecursionError
        except json.JSONDecodeError:
            value = raw  # bare strings are convenient on the command line
        except ValueError as err:  # json's int() refuses an integer past 4,300 digits
            raise ConfigError(f"override {dotted}: {err}") from None
        except RecursionError:
            raise ConfigError(f"override {dotted}: value nested more than {JSON_MAX_DEPTH} levels deep") from None
        *sections, leaf = dotted.split(".")
        node = partial
        for key in sections:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[leaf] = value
    return _merge(config, partial)


def config_digest(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
