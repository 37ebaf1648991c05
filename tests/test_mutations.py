"""Seeded mutation loop over every reader of a file from disk.

Each reader gets a small valid file, then many broken copies of it:
truncation at every header boundary, flipped header bytes, a bad dtype
code, huge extents and, in JSON, values of another type, a document nested
far past the parser's recursion limit and a top level that is not an
object. Every case must end as ``seistile`` would end it inside a command:
exit 2 for a data file, exit 1 for the config or a topology DSL file, or
exit 0 where a mutation leaves a valid file. No case may raise anything
else (which would reach the user as a traceback) or allocate more than a
few MB.
"""

import ast
import json
import re
import struct
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import seistile
from seistile.cli import _load_prepared, _read_dsl, main
from seistile.config import DEFAULTS, load_config
from seistile.data import (
    MaskVolume,
    TileConfig,
    TileSet,
    Volume,
    load_masks,
    load_volume,
    save_masks,
    save_volume,
    tile_volume,
)
from seistile.errors import SeistileError
from seistile.network import build_model
from seistile.topology import parse_topology
from seistile.train import checkpoint_from_model, load_checkpoint, restore_model, save_checkpoint

FLIPS = 48  # flipped-byte cases per file
PEAK_BYTES = 16 << 20  # far above what any of these small files needs
NESTED = b"[" * 100_000 + b"]" * 100_000  # json.loads gives up with RecursionError
NOT_OBJECTS = [b"[1, 2]", b"7", b'"text"', b"null"]  # valid JSON, but every reader wants an object


def _exit_code(call):
    """The exit code ``cli.main`` gives when ``call`` raises inside a command; 0 when it returns."""
    try:
        call()
    except OSError:
        return 2
    except SeistileError as err:
        return err.exit_code
    return 0


def _run(call):
    """(exit code or the escaping exception, traced peak bytes)."""
    tracemalloc.start()
    try:
        code = _exit_code(call)
    except Exception as err:  # reaches the user as a traceback
        code = f"{type(err).__name__}: {err}"
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return code, peak


def _segv_header_ends(blob):
    """Offsets where a SEGV header field ends: magic, dtype code, rank, each extent."""
    rank = blob[7]
    return [0, 6, 7, 8] + [8 + 4 * (i + 1) for i in range(rank)]


def _flips(blob, span, rng):
    """FLIPS copies of ``blob``, each with one byte in ``span`` xor-ed by a nonzero value."""
    out = []
    for pos, mask in zip(rng.integers(*span, size=FLIPS), rng.integers(1, 256, size=FLIPS)):
        b = bytearray(blob)
        b[pos] ^= mask
        out.append(bytes(b))
    return out


def _segv_cases(blob, rng, must_fail, may_pass):
    header = _segv_header_ends(blob)[-1]
    must_fail += [blob[:end] for end in _segv_header_ends(blob)] + [blob[:-1]]
    must_fail += [blob[:6] + bytes([code]) + blob[7:] for code in (2, 255)]
    must_fail += [blob[:7] + bytes([255]) + blob[8:]]  # rank far beyond the extents
    must_fail += [blob[:8] + struct.pack("<I", 0xFFFFFFFF) * blob[7] + blob[header:]]
    must_fail += [blob[:8] + struct.pack("<I", 65536) * blob[7] + blob[header:]]
    other = 1 - blob[6]  # the other dtype, with a payload that fits it
    count = (len(blob) - header) // (4 if other else 1)
    must_fail += [blob[:6] + bytes([other]) + blob[7:header] + bytes(count * (4 if other == 0 else 1))]
    may_pass += _flips(blob, (0, header), rng)


def _numbers_replaced(text):
    """Copies of JSON ``text`` with one number made huge or negative."""
    return [text[: m.start()] + new + text[m.end() :]
            for m in re.finditer(rb"\d+", text) for new in (b"9" * 20, b"-1")]


def _replaced(doc, path, value):
    """A copy of JSON ``doc`` with the value at ``path`` (a list of keys and indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _types_swapped(text):
    """Copies of JSON ``text`` with one value, of any object or among the
    first two items of any list, replaced by a value of another type."""
    doc, out = json.loads(text), []

    def walk(node, path):
        children = node.items() if isinstance(node, dict) else enumerate(node[:2]) if isinstance(node, list) else ()
        for key, value in children:
            for new in ["x", 1.5, True, None, [], {}] + ([float(value)] if type(value) is int else []):
                out.append(json.dumps(_replaced(doc, path + [key], new)).encode())
            walk(value, path + [key])

    walk(doc, [])
    return out


def _json_cases(blob, rng, must_fail, may_pass):
    must_fail += [blob[:end] for end in range(len(blob))] + [NESTED] + NOT_OBJECTS
    may_pass += _flips(blob, (0, len(blob)), rng) + _numbers_replaced(blob) + _types_swapped(blob)


def _tile_sidecar_cases(blob, rng, must_fail, may_pass):
    _json_cases(blob, rng, must_fail, may_pass)
    doc = json.loads(blob)
    must_fail += [json.dumps(_replaced(doc, ["tile_h"], float(doc["tile_h"]))).encode(),
                  json.dumps(_replaced(doc, ["tiles", 0, "slice"], 1.5)).encode()]


def _dsl_cases(blob, rng, must_fail, may_pass):
    must_fail += [blob[:pos] + b"\xff" + blob[pos:] for pos in (0, len(blob) // 2, len(blob))]
    may_pass += [blob[:end] for end in range(len(blob))]  # a prefix of whole lines is a valid topology
    may_pass += _flips(blob, (0, len(blob)), rng)


def _ckpt_cases(blob, rng, must_fail, may_pass):
    magic = 8
    (header_len,) = struct.unpack_from("<I", blob, magic)
    start = magic + 4
    header = json.loads(blob[start : start + header_len])

    def with_header(text):
        return blob[:magic] + struct.pack("<I", len(text)) + text + blob[start + header_len :]

    def rebuilt(edit):
        doc = json.loads(json.dumps(header))
        edit(doc)
        return with_header(json.dumps(doc).encode())

    ends = [0, magic, start, start + header_len]
    ends += [start + header_len + t["offset"] + t["nbytes"] - 1 for t in header["tensors"]]
    must_fail += [blob[:end] for end in ends]
    must_fail += [blob + bytes(4), blob + blob]  # bytes after the last tensor
    must_fail += [blob[:magic] + struct.pack("<I", 0xFFFFFFFF) + blob[start:]]
    must_fail += [with_header(text) for text in [NESTED] + NOT_OBJECTS]
    for key, value in (("shape", [1 << 31, 1 << 31]), ("nbytes", 1 << 62), ("offset", 1 << 62),
                       ("shape", [3, 3, 1, 4, 1]), ("kind", "weights"), ("name", "layer9.conv.kernel"),
                       ("name", 1.5)):
        must_fail.append(rebuilt(lambda doc: doc["tensors"][0].__setitem__(key, value)))
    for topology in ("c3 s2 4\nru 99999\ntc3 s2 4\nout 7", 5):
        must_fail.append(rebuilt(lambda doc: doc.__setitem__("topology", topology)))
    payload = start + header_len  # layer0.conv.kernel's first value made NaN or infinite
    must_fail += [blob[:payload] + np.float32(v).tobytes() + blob[payload + 4 :] for v in (np.nan, np.inf)]
    _, bias, gamma = header["tensors"][:3]  # the bias and gamma of layer0 are both 4 floats
    for offset in (-bias["nbytes"], gamma["offset"]):  # read from the payload's end; share gamma's bytes
        must_fail.append(rebuilt(lambda doc: doc["tensors"][1].__setitem__("offset", offset)))
    may_pass += _flips(blob, (0, start + header_len), rng)
    may_pass += [with_header(text) for text in _numbers_replaced(blob[start : start + header_len])]
    may_pass += [with_header(text) for text in _types_swapped(blob[start : start + header_len])]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small valid file of every kind a command reads, by name."""
    d = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    volume = Volume(rng.normal(size=(4, 16, 16)).astype(np.float32), meta={"source": "test"})
    masks = MaskVolume(rng.integers(0, 7, size=(4, 16, 16)).astype(np.uint8), num_classes=7)
    save_volume(d / "volume_proc.segv", volume)
    save_masks(d / "masks_merged.segv", masks)
    model = build_model(parse_topology("c3 s2 4\ntc3 s2 4\nout 7"), seed=0)
    save_checkpoint(checkpoint_from_model(model), d / "model.ckpt")
    tile_volume(volume, masks, [0, 1], TileConfig(8, 8, 0.0)).save(d / "tiles_train")
    (d / "net.dsl").write_text("c3 s2 4\ntc3 s2 4\nout 7\n")
    (d / "split.json").write_text(json.dumps({"train": [0, 1], "val": [2], "test": [3]}))
    (d / "run.json").write_text(json.dumps({"seed": 3, "tiles": {"tile_h": 24, "tile_w": 32},
                                            "train": {"lr_schedule": [[0, 0.01]]}}))
    return d


# reader -> (the file its cases break, how a command reads it, the cases, exit code when broken)
READERS = {
    "segv": ("volume_proc.segv", lambda d: load_volume(d / "volume_proc.segv"), _segv_cases, 2),
    "segv-sidecar": ("volume_proc.segv.json", lambda d: load_volume(d / "volume_proc.segv"), _json_cases, 2),
    "mask-segv": ("masks_merged.segv", lambda d: load_masks(d / "masks_merged.segv"), _segv_cases, 2),
    "mask-sidecar": ("masks_merged.segv.json", lambda d: load_masks(d / "masks_merged.segv"), _json_cases, 2),
    "checkpoint": ("model.ckpt", lambda d: restore_model(load_checkpoint(d / "model.ckpt")), _ckpt_cases, 2),
    "tileset-images": ("tiles_train.images.segv", lambda d: TileSet.load(d / "tiles_train"), _segv_cases, 2),
    "tileset-masks": ("tiles_train.masks.segv", lambda d: TileSet.load(d / "tiles_train"), _segv_cases, 2),
    "tileset-sidecar": ("tiles_train.json", lambda d: TileSet.load(d / "tiles_train"), _tile_sidecar_cases, 2),
    "split": ("split.json", lambda d: _load_prepared({"data": {"out_dir": str(d)}}), _json_cases, 2),
    "config": ("run.json", lambda d: load_config(d / "run.json"), _json_cases, 1),
    "dsl": ("net.dsl", lambda d: _read_dsl(d / "net.dsl", "--dsl"), _dsl_cases, 1),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_broken_file_ends_in_its_exit_code(files, tmp_path, reader):
    name, read, cases, code = READERS[reader]
    for src in files.iterdir():
        (tmp_path / src.name).write_bytes(src.read_bytes())
    target = tmp_path / name
    blob = target.read_bytes()
    assert _exit_code(lambda: read(tmp_path)) == 0  # the valid file reads

    must_fail, may_pass = [], []
    cases(blob, np.random.default_rng(sorted(READERS).index(reader)), must_fail, may_pass)
    bad = []
    for i, mutant in enumerate(must_fail + may_pass):
        target.write_bytes(mutant)
        outcome, peak = _run(lambda: read(tmp_path))
        allowed = (code, 0) if i >= len(must_fail) else (code,)
        if outcome not in allowed or peak > PEAK_BYTES:
            bad.append((i, outcome, peak, mutant[:80]))
    assert not bad, f"{len(bad)} of {len(must_fail) + len(may_pass)} cases: {bad[:5]}"


@pytest.mark.parametrize("depth", [98, 99, 500, 990, 100_000])
def test_a_config_value_nested_too_deeply_exits_1(tmp_path, capsys, depth):
    """The file adds two levels to the value; 100 levels in all is the most a reader takes.
    Values 500 or 990 levels deep parse, and would overflow the config's deepcopy or digest.
    A value the readers take is still no [epoch, rate] schedule."""
    value = "[" * depth + "]" * depth
    (tmp_path / "run.json").write_text('{"train": {"lr_schedule": ' + value + "}}")
    count = ["count", "--preset", "danet-fcn2"]
    for args, read, too_deep in ((["--config", str(tmp_path / "run.json")], depth <= 98, "RecursionError"),
                                 (["--set", "train.lr_schedule=" + value], depth <= 99, "levels deep")):
        assert main(count + args) == 1
        assert ("is not an [epoch, rate] pair" if read else too_deep) in capsys.readouterr().err
    assert main(count + ["--set", "seed=" + value]) == 1


HUGE = "1" + "0" * 400  # an integer past any float
# every type and edge a --set value can take; the last six are lists an lr schedule may hold
SET_VALUES = ["0", "-1", "1", "1.0", "0.5", "-0.5", "1e300", "-1e300", "Infinity", "-Infinity", "NaN",
              HUGE, "-" + HUGE, "9" * 5000, "null", "true", '"x"', "x", '""', "{}", "[]", "[0]", "[[0, 1]]",
              "[[0, -1]]", "[[1, 0.1], [0, 0.1]]", f"[[0, {HUGE}]]", f"[[{HUGE}, 0.1]]", "[[0, 0.1], [2]]"]


def _leaves(node, path=""):
    for key, value in node.items():
        where = f"{path}.{key}" if path else key
        yield from _leaves(value, where) if isinstance(value, dict) else [where]


def test_every_config_leaf_set_to_any_value_exits_0_or_1_naming_the_leaf(capsys):
    """``count --set <leaf>=<value>`` for every leaf of the defaults, with each
    value above and three seeded draws: an integer, a float of any magnitude
    and an [epoch, rate] list. Each run exits 0, or 1 with the leaf's name in
    its message, and raises nothing that would reach the user as a traceback."""
    rng = np.random.default_rng(8)
    outcomes, bad = Counter(), []
    for leaf in _leaves(DEFAULTS):
        drawn = [str(rng.integers(-10**9, 10**9)), repr(float(rng.normal() * 10.0 ** rng.integers(-300, 300))),
                 json.dumps([[int(e), float(r)] for e, r in zip(rng.integers(0, 9, 3), rng.uniform(-1, 1, 3))])]
        for value in SET_VALUES + drawn:
            try:
                code = main(["count", "--set", f"{leaf}={value}"])
            except Exception as err:
                code = f"{type(err).__name__}: {err}"
            err = capsys.readouterr().err
            outcomes[code] += 1
            if code not in (0, 1) or code == 1 and leaf.rsplit(".", 1)[-1] not in err:
                bad.append((leaf, value[:40], code, err[-200:]))
    assert not bad, f"{len(bad)} of {sum(outcomes.values())} runs: {bad[:5]}"
    assert outcomes[0] and outcomes[1]


def test_json_is_parsed_only_by_the_two_json_readers():
    """Every file's JSON goes through ``data.read_json``; ``--set`` values, which
    fall back to a bare string, go through ``config.apply_overrides``."""
    callers = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) in ("json.loads", "json.load"):
                callers.append(where)
            visit(child, where)

    for path in sorted(Path(seistile.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.<module>")
    assert sorted(callers) == ["config.apply_overrides", "data.read_json"]


def test_every_name_defined_in_the_package_is_referenced():
    """Each function, class and method (dunders aside) is named somewhere in the
    source, tests, demos or benchmark besides its own definition: nothing is
    kept that nothing runs."""
    root = Path(__file__).resolve().parent.parent
    words = Counter(word for folder in ("src", "tests", "demos", "bench") for path in (root / folder).rglob("*.py")
                    for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined: dict[str, int] = {}
    for path in sorted(Path(seistile.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defined[node.name] = defined.get(node.name, 0) + 1
    unused = [name for name, defs in defined.items() if words[name] <= defs]
    assert not unused, f"defined but never referenced: {unused}"

