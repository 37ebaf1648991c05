"""Volume ingestion, preprocessing, splitting, tiling, and synthesis.

Volumes are stacks of 2-D slices: data[s, h, w] with s the slice index,
h the depth row and w the trace column. Binary storage uses the SEGV
container (see save_segv/load_segv); single slices export as binary PGM
for eyeballing. Every JSON file is read through ``read_json``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, CorruptionError, FormatError

__all__ = [
    "Volume",
    "MaskVolume",
    "SplitConfig",
    "TileConfig",
    "TileSet",
    "SynthConfig",
    "atomic_open",
    "json_depth",
    "read_json",
    "is_int",
    "save_segv",
    "load_segv",
    "load_volume",
    "load_masks",
    "save_volume",
    "save_masks",
    "write_pgm",
    "check_clip_percentiles",
    "preprocess_rescale",
    "split_blocks",
    "default_test_slices",
    "tile_grid",
    "cut_tiles",
    "tile_volume",
    "merge_classes",
    "generate_synthetic_volume",
]

SEGV_MAGIC = b"SEGV1\n"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("u1")}
_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("u1"): 1}


@dataclass
class Volume:
    data: np.ndarray  # f32, S x H x W
    meta: dict = field(default_factory=dict)

    @property
    def num_slices(self) -> int:
        return self.data.shape[0]

    def slice(self, i: int) -> np.ndarray:
        return self.data[i]


@dataclass
class MaskVolume:
    data: np.ndarray  # u8, S x H x W
    num_classes: int

    def slice(self, i: int) -> np.ndarray:
        return self.data[i]


# ------------------------------------------------------------ atomic writes


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb"):
    """Open a temporary file next to ``path`` for writing and rename it over
    ``path`` when the block ends, so a failed write leaves the previous file
    as it was and no temporary file behind. There is no fsync: this guards
    against a failed write or a killed process, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as err:
        tmp.unlink(missing_ok=True)
        if isinstance(err, OSError) and err.filename is None:  # a full disk names no file
            raise OSError(f"cannot write {path}: {err}") from err
        raise


# ------------------------------------------------------------ JSON readers


JSON_MAX_DEPTH = 100  # far past any file seistile writes, far below what copy.deepcopy and repr survive


def json_depth(value) -> int:
    """Levels of lists and objects in a parsed JSON value, counted without recursion."""
    depth, level = 0, [value]
    while level := [node for node in level if isinstance(node, (dict, list))]:
        depth += 1
        level = [v for node in level for v in (node.values() if isinstance(node, dict) else node)]
    return depth


def read_json(raw: bytes, where, what: str, error=FormatError) -> dict:
    """The JSON object that ``raw`` holds as UTF-8, the one way a file's JSON is
    parsed; anything else raises ``error`` worded ``<where>: malformed <what> (...)``."""
    try:
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise TypeError(f"top level is a JSON {type(doc).__name__}, not an object")
        if json_depth(doc) > JSON_MAX_DEPTH:  # json.loads itself gives up near 1,000 levels
            raise RecursionError(f"nested more than {JSON_MAX_DEPTH} levels deep")
    except (ValueError, TypeError, RecursionError) as err:  # ValueError covers JSON and UTF-8 decoding
        raise error(f"{where}: malformed {what} ({type(err).__name__}: {err})") from None
    return doc


def is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool, an int to Python, is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# ----------------------------------------------------------------- SEGV I/O


def save_segv(path, array: np.ndarray, meta: dict | None = None) -> None:
    """Write an array in the SEGV container.

    Layout: magic "SEGV1\\n", u8 dtype code (0=f32, 1=u8), u8 rank,
    rank x u32 little-endian extents, then the row-major little-endian
    payload. ``meta`` lands in an optional <file>.json sidecar.
    """
    path = Path(path)
    arr = np.ascontiguousarray(array)
    code = _DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise ContractError(f"SEGV stores f32 or u8, not {arr.dtype}")
    header = SEGV_MAGIC + bytes([code, arr.ndim])
    header += np.array(arr.shape, dtype="<u4").tobytes()
    with atomic_open(path) as fh:
        fh.write(header)
        fh.write(arr.astype(_DTYPES[code], copy=False))  # the buffer itself: no copy
    if meta is not None:
        with atomic_open(str(path) + ".json", "w") as fh:
            fh.write(json.dumps(meta, indent=2, sort_keys=True))


def load_segv(path) -> tuple[np.ndarray, dict]:
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(len(SEGV_MAGIC) + 2)
        if head[: len(SEGV_MAGIC)] != SEGV_MAGIC:
            raise FormatError(f"{path}: bad magic, not a SEGV file")
        if len(head) < len(SEGV_MAGIC) + 2:
            raise CorruptionError(f"{path}: truncated header")
        code, rank = head[len(SEGV_MAGIC)], head[len(SEGV_MAGIC) + 1]
        if code not in _DTYPES:
            raise FormatError(f"{path}: unknown dtype code {code}")
        extents = fh.read(4 * rank)
        if len(extents) < 4 * rank:
            raise CorruptionError(f"{path}: truncated extents")
        shape = tuple(int(e) for e in np.frombuffer(extents, dtype="<u4"))
        dtype = _DTYPES[code]
        expected = math.prod(shape) * dtype.itemsize  # Python ints: huge extents cannot wrap
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:  # checked before the array is allocated
            raise CorruptionError(f"{path}: payload is {size} bytes, header implies {expected}")
        data = np.empty(shape, dtype)  # the payload is read straight into the array returned
        if fh.readinto(data.reshape(-1).view(np.uint8)) != expected:
            raise CorruptionError(f"{path}: payload ended before its {expected} bytes")
    sidecar = Path(str(path) + ".json")
    meta = read_json(sidecar.read_bytes(), sidecar, "metadata sidecar") if sidecar.exists() else {}
    return data, meta


def save_volume(path, volume: Volume) -> None:
    save_segv(path, volume.data.astype(np.float32, copy=False), volume.meta or None)


def load_volume(path) -> Volume:
    data, meta = load_segv(path)
    if data.dtype != np.float32 or data.ndim != 3:
        raise FormatError(f"{path}: expected a rank-3 f32 volume, got {data.dtype} rank {data.ndim}")
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: volume contains non-finite values")
    return Volume(data=data, meta=meta)


def save_masks(path, masks: MaskVolume) -> None:
    save_segv(path, masks.data.astype(np.uint8, copy=False), {"num_classes": masks.num_classes})


def load_masks(path) -> MaskVolume:
    data, meta = load_segv(path)
    if data.dtype != np.uint8 or data.ndim != 3:
        raise FormatError(f"{path}: expected a rank-3 u8 mask volume, got {data.dtype} rank {data.ndim}")
    num_classes = meta.get("num_classes", int(data.max()) + 1 if data.size else 1)
    if not is_int(num_classes) or num_classes < 1:
        raise FormatError(f"{path}: num_classes {num_classes!r} is not a positive integer")
    if data.size and data.max() >= num_classes:
        raise FormatError(f"{path}: mask value {int(data.max())} >= num_classes {num_classes}")
    return MaskVolume(data=data, num_classes=num_classes)


# ------------------------------------------------------------------ PGM I/O


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255) export of a single 2-D slice."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ContractError(f"PGM export needs a 2-D image, got rank {img.ndim}")
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    with atomic_open(path) as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())


# ------------------------------------------------------------- preprocessing


def check_clip_percentiles(clip_lo_pct: float, clip_hi_pct: float) -> None:
    """Raise ConfigError naming ``data.clip_lo_pct`` and ``data.clip_hi_pct``
    unless 0 <= clip_lo_pct < clip_hi_pct <= 100."""
    if not 0.0 <= clip_lo_pct < clip_hi_pct <= 100.0:
        raise ConfigError(f"data.clip_lo_pct={clip_lo_pct} and data.clip_hi_pct={clip_hi_pct} "
                          "must satisfy 0 <= clip_lo_pct < clip_hi_pct <= 100")


def preprocess_rescale(volume: Volume, clip_lo_pct: float = 1.0, clip_hi_pct: float = 99.0) -> Volume:
    """Clip to whole-volume percentiles, then map the clip bounds to [0, 255].

    A constant volume maps to all zeros (with a warning) since the clip
    range collapses.
    """
    check_clip_percentiles(clip_lo_pct, clip_hi_pct)
    lo, hi = np.percentile(volume.data, [clip_lo_pct, clip_hi_pct])
    out = np.zeros(volume.data.shape, np.float32)
    if hi <= lo:
        warnings.warn("volume intensity range collapsed; rescale maps everything to 0")
    else:
        for src, dst in zip(volume.data, out):  # float64 temporaries one slice in size
            dst[...] = (np.clip(src, lo, hi) - lo) * (255.0 / (hi - lo))
    meta = dict(volume.meta)
    meta["rescaled"] = {"clip_lo_pct": float(clip_lo_pct), "clip_hi_pct": float(clip_hi_pct),
                        "lo": float(lo), "hi": float(hi)}
    return Volume(data=out, meta=meta)


# ---------------------------------------------------------------- splitting


@dataclass
class SplitConfig:
    n_blocks: int = 10
    train_fraction: float = 0.7
    slice_limit: int | None = None  # cap on total training slices
    test_slices: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.n_blocks < 1:
            raise ConfigError("n_blocks must be >= 1")
        if self.slice_limit is not None and self.slice_limit < 0:
            raise ConfigError(f"slice_limit must be >= 0, got {self.slice_limit}")
        for t in self.test_slices:
            if not is_int(t):
                raise ConfigError(f"test slice {t!r} is not an integer")


def default_test_slices(num_slices: int, count: int = 40) -> tuple[int, ...]:
    """Evenly spaced slice indices reserved for testing."""
    if count <= 0:
        return ()
    if count > num_slices:
        raise ConfigError(f"cannot reserve {count} test slices out of {num_slices}")
    idx = np.linspace(0, num_slices - 1, count)
    return tuple(sorted(set(int(round(i)) for i in idx)))


def split_blocks(num_slices: int, cfg: SplitConfig) -> dict[str, list[int]]:
    """Block-wise train/validation split after removing the test slices.

    The remaining slices are cut into n contiguous blocks (any remainder
    spread one-per-block from the front). Within each block the first
    floor(train_fraction * size) slices train and the rest validate; with
    ``slice_limit`` x set, floor(x/n) training slices are sampled uniformly
    per block using the config seed.
    """
    test = sorted(set(cfg.test_slices))
    for t in test:
        if not 0 <= t < num_slices:
            raise ConfigError(f"test slice {t} outside [0, {num_slices})")
    remaining = [i for i in range(num_slices) if i not in set(test)]
    if len(remaining) < cfg.n_blocks:
        raise ConfigError(f"{len(remaining)} slices cannot fill {cfg.n_blocks} blocks")

    base, extra = divmod(len(remaining), cfg.n_blocks)
    train: list[int] = []
    val: list[int] = []
    rng = np.random.default_rng(cfg.seed)
    start = 0
    for b in range(cfg.n_blocks):
        size = base + (1 if b < extra else 0)
        block = remaining[start : start + size]
        start += size
        cut = int(np.floor(cfg.train_fraction * size))
        block_train = block[:cut]
        if cfg.slice_limit is not None:
            want = cfg.slice_limit // cfg.n_blocks
            if want > len(block_train):
                raise ConfigError(
                    f"slice_limit {cfg.slice_limit} asks for {want} train slices in a block "
                    f"that only has {len(block_train)}"
                )
            picked = rng.choice(len(block_train), size=want, replace=False)
            block_train = [block_train[i] for i in sorted(picked)]
        train.extend(block_train)
        val.extend(block[cut:])
    return {"train": train, "val": val, "test": test}


# ------------------------------------------------------------------- tiling


@dataclass
class TileConfig:
    tile_h: int
    tile_w: int
    overlap_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ConfigError("overlap_fraction must lie in [0, 1)")
        for name, tile in (("tile_h", self.tile_h), ("tile_w", self.tile_w)):
            stride = tile * (1.0 - self.overlap_fraction)
            if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
                raise ConfigError(f"{name}={tile} with overlap {self.overlap_fraction} "
                                  f"gives stride {stride}, not a positive integer")

    @property
    def stride_h(self) -> int:
        return int(round(self.tile_h * (1.0 - self.overlap_fraction)))

    @property
    def stride_w(self) -> int:
        return int(round(self.tile_w * (1.0 - self.overlap_fraction)))


@dataclass
class TileSet:
    images: np.ndarray  # f32, T x th x tw
    masks: np.ndarray  # u8, T x th x tw
    provenance: np.ndarray  # i32, T x 3 (slice, row, col)
    tile_h: int
    tile_w: int

    def __len__(self) -> int:
        return self.images.shape[0]

    def save(self, stem) -> None:
        stem = str(stem)
        save_segv(stem + ".images.segv", self.images.astype(np.float32, copy=False))
        save_segv(stem + ".masks.segv", self.masks.astype(np.uint8, copy=False))
        prov = [
            {"slice": int(s), "row": int(r), "col": int(c)} for s, r, c in self.provenance
        ]
        with atomic_open(stem + ".json", "w") as fh:  # streamed: the text is never held whole
            json.dump({"tile_h": self.tile_h, "tile_w": self.tile_w, "tiles": prov}, fh, indent=2)

    @classmethod
    def load(cls, stem) -> "TileSet":
        stem = str(stem)
        images, _ = load_segv(stem + ".images.segv")
        masks, _ = load_segv(stem + ".masks.segv")
        sidecar = stem + ".json"
        header = read_json(Path(sidecar).read_bytes(), sidecar, "tile sidecar")
        try:
            rows = [[t["slice"], t["row"], t["col"]] for t in header["tiles"]]
            tile_h, tile_w = header["tile_h"], header["tile_w"]
            if not all(is_int(v) for v in [tile_h, tile_w, *(v for row in rows for v in row)]):
                raise TypeError("tile sizes and provenance fields must be integers")
            prov = np.array(rows, dtype=np.int32).reshape(-1, 3)
        except (KeyError, TypeError, OverflowError) as err:
            raise FormatError(f"{sidecar}: malformed tile sidecar ({type(err).__name__}: {err})") from None
        if images.dtype != np.float32 or masks.dtype != np.uint8:
            raise FormatError(f"{stem}: expected f32 images and u8 masks, got {images.dtype} and {masks.dtype}")
        if not images.shape == masks.shape == (len(prov), tile_h, tile_w):
            raise FormatError(
                f"{stem}: images {images.shape}, masks {masks.shape} and {len(prov)} provenance "
                f"rows of {tile_h}x{tile_w} tiles disagree"
            )
        return cls(images=images, masks=masks, provenance=prov, tile_h=tile_h, tile_w=tile_w)


def tile_grid(h: int, w: int, cfg: TileConfig) -> tuple[int, int]:
    """Rows and columns of whole tiles in an h x w slice; partial tiles are dropped."""
    if cfg.tile_h > h or cfg.tile_w > w:
        raise ConfigError(f"tile {cfg.tile_h}x{cfg.tile_w} larger than slice {h}x{w}")
    return (h - cfg.tile_h) // cfg.stride_h + 1, (w - cfg.tile_w) // cfg.stride_w + 1


def tile_origins(h: int, w: int, cfg: TileConfig) -> list[tuple[int, int]]:
    rows, cols = tile_grid(h, w, cfg)
    return [(r * cfg.stride_h, c * cfg.stride_w) for r in range(rows) for c in range(cols)]


def tile_count(h: int, w: int, cfg: TileConfig) -> int:
    return math.prod(tile_grid(h, w, cfg))


def cut_tiles(stack: np.ndarray, cfg: TileConfig, out: np.ndarray | None = None) -> np.ndarray:
    """All whole tiles of a ``... x H x W`` stack as an N x tile_h x tile_w
    array: slice by slice, each slice's tiles in ``tile_origins`` order.
    Written into ``out`` (C-contiguous, cast to its dtype) if given, else
    into a new array."""
    tile_grid(*stack.shape[-2:], cfg)
    windows = np.lib.stride_tricks.sliding_window_view(stack, (cfg.tile_h, cfg.tile_w), axis=(-2, -1))
    windows = windows[..., :: cfg.stride_h, :: cfg.stride_w, :, :]
    tiles = np.empty(windows.shape, stack.dtype) if out is None else out.reshape(windows.shape)  # a view
    tiles[...] = windows
    return tiles.reshape(-1, cfg.tile_h, cfg.tile_w)


def tile_volume(volume: Volume, masks: MaskVolume, slice_indices, cfg: TileConfig) -> TileSet:
    """Overlapping tiles of the given slices, in (slice, row, col) order."""
    if volume.data.shape[1:] != masks.data.shape[1:]:
        raise ConfigError(f"volume slices {volume.data.shape[1:]} and mask slices {masks.data.shape[1:]} disagree")
    indices = sorted(slice_indices)
    origins = np.array(tile_origins(*volume.data.shape[1:], cfg), dtype=np.int32)
    prov = np.column_stack([np.repeat(np.array(indices, dtype=np.int32), len(origins)),
                            np.tile(origins, (len(indices), 1))])
    shape = (len(indices), len(origins), cfg.tile_h, cfg.tile_w)
    images, tile_masks = np.empty(shape, np.float32), np.empty(shape, np.uint8)
    for i, image_tiles, mask_tiles in zip(indices, images, tile_masks):  # no copy of the chosen slices is made
        cut_tiles(volume.data[i], cfg, image_tiles)
        cut_tiles(masks.data[i], cfg, mask_tiles)
    return TileSet(images=images.reshape(-1, cfg.tile_h, cfg.tile_w),
                   masks=tile_masks.reshape(-1, cfg.tile_h, cfg.tile_w),
                   provenance=prov, tile_h=cfg.tile_h, tile_w=cfg.tile_w)


# ----------------------------------------------------------- class merging

# the thin third interval is folded into the second; everything above shifts down
MERGE_LUT = np.array([0, 1, 2, 2, 3, 4, 5, 6], dtype=np.uint8)


def merge_classes(masks: MaskVolume) -> MaskVolume:
    if masks.num_classes != 8:
        raise ContractError(f"merge_classes expects 8 input classes, got {masks.num_classes}")
    if masks.data.size and masks.data.max() > 7:
        raise ContractError(f"mask value {int(masks.data.max())} out of range for 8 classes")
    return MaskVolume(data=MERGE_LUT[masks.data], num_classes=7)


# ------------------------------------------------------- synthetic generator


@dataclass
class SynthConfig:
    slices: int = 24
    height: int = 160
    width: int = 240
    num_classes: int = 7
    horizon_waviness: float = 6.0  # peak offset of each horizon, in pixels
    texture_seed: int = 0

    def __post_init__(self):
        if not 2 <= self.num_classes <= 256:  # labels are u8
            raise ConfigError(f"num_classes must lie in [2, 256], got {self.num_classes}")
        if self.slices < 1 or self.height < 2 * self.num_classes or self.width < 4:
            raise ConfigError("volume too small for the requested class count")


# per-band reflector look: (vertical period, amplitude, dc offset, noise,
# horizontal phase jitter). Bands alternate strong/weak, coarse/fine so the
# textures stay separable.
_BAND_STYLES = [
    (999.0, 0.05, -0.55, 0.03, 0.0),  # near-featureless top (water column)
    (10.0, 0.95, 0.25, 0.10, 0.35),
    (17.0, 0.80, -0.20, 0.05, 0.05),
    (7.0, 0.45, 0.45, 0.18, 0.60),
    (23.0, 0.30, -0.40, 0.06, 0.10),
    (12.0, 0.55, 0.05, 0.28, 0.90),
    (15.0, 0.90, 0.55, 0.05, 0.08),
    (9.0, 0.70, -0.05, 0.08, 0.15),
]


def _smooth_field(rng, slices: int, width: int, amplitude: float) -> np.ndarray:
    """Low-frequency surface over (slice, column), bounded by +-amplitude."""
    s = np.arange(slices)[:, None]
    w = np.arange(width)[None, :]
    out = np.zeros((slices, width))
    for _ in range(3):
        lam_w = rng.uniform(0.8, 3.0) * width
        lam_s = rng.uniform(2.0, 6.0) * max(slices, 2)
        phase = rng.uniform(0, 2 * np.pi)
        out += np.sin(2 * np.pi * (w / lam_w + s / lam_s) + phase)
    peak = np.abs(out).max()
    return out * (amplitude / peak) if peak > 0 else out


def generate_synthetic_volume(cfg: SynthConfig) -> tuple[Volume, MaskVolume]:
    """Layered-texture stand-in for a real annotated survey.

    num_classes - 1 smooth horizon surfaces drift gently across slices and
    columns; each band carries a distinct reflector texture (period,
    amplitude, noise). Labels are band indices, so along any column they are
    monotone non-decreasing.

    Each band's texture is computed slice by slice, only on the rows it can
    occupy, from its shallowest roof to its deepest floor, and written
    straight into the float32 volume. Its noise is drawn for every pixel of
    the slice all the same: the normal sampler takes a variable number of
    raw draws, so the stream cannot skip the other bands' rows without
    changing the bytes a seed gives. The volume and masks are a pure
    function of ``cfg``, the seed included.
    """
    rng = np.random.default_rng(cfg.texture_seed)
    s_count, h, w, c = cfg.slices, cfg.height, cfg.width, cfg.num_classes

    nominal = [h * (k + 1) / c for k in range(c - 1)]
    amp = cfg.horizon_waviness
    horizons = np.stack([nominal[k] + _smooth_field(rng, s_count, w, amp) for k in range(c - 1)])

    tops = np.concatenate([np.zeros((1, s_count, w)), horizons])  # c x S x W
    floors = np.concatenate([horizons, np.full((1, s_count, w), h)])
    thinnest = (floors - tops).min()
    if thinnest < 2.0:
        raise ConfigError(
            f"band thickness fell to {thinnest:.2f} px; lower horizon_waviness "
            f"or use fewer classes"
        )
    depth = np.arange(h, dtype=np.float64)[None, :, None]  # 1 x H x 1
    labels = np.zeros((s_count, h, w), dtype=np.uint8)  # S x H x W; c <= 256 cannot wrap
    for bound in horizons:
        labels += depth >= bound[:, None, :]

    styles = [_BAND_STYLES[k % len(_BAND_STYLES)] for k in range(c)]
    data = np.zeros((s_count, h, w), np.float32)
    draws = np.empty((h, w))  # the stream fills a slice at a time in the order one S x H x W draw would
    for k, (period, amplitude, dc, noise, jitter) in enumerate(styles):
        phase_wobble = _smooth_field(rng, s_count, w, jitter * np.pi)
        lo = max(math.floor(tops[k].min()), 0)
        hi = min(math.ceil(floors[k].max()), h)
        for i in range(s_count):
            rng.standard_normal(out=draws)
            rel_depth = depth[0, lo:hi] - tops[k][i]  # reflectors hang off the band's own roof
            tex = dc + amplitude * np.sin(2 * np.pi * rel_depth / period + phase_wobble[i])
            tex += noise * draws[lo:hi]
            tex *= 30000.0
            np.copyto(data[i, lo:hi], tex, where=labels[i, lo:hi] == k)

    volume = Volume(data=data, meta={"synthetic": True, "num_classes": c, "seed": cfg.texture_seed})
    return volume, MaskVolume(data=labels, num_classes=c)
