import hashlib
import json
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import seistile.data as data_mod
from seistile.data import (
    MaskVolume,
    SplitConfig,
    SynthConfig,
    TileConfig,
    TileSet,
    Volume,
    default_test_slices,
    generate_synthetic_volume,
    load_masks,
    load_segv,
    load_volume,
    merge_classes,
    preprocess_rescale,
    save_masks,
    save_segv,
    save_volume,
    split_blocks,
    tile_count,
    tile_origins,
    tile_volume,
    write_pgm,
)
from seistile.data import _BAND_STYLES, _smooth_field  # shared with the reference generator
from seistile.errors import ConfigError, ContractError, CorruptionError, FormatError

from oracles import enumerate_tile_origins, sort_percentile


# ----------------------------------------------------------------- SEGV I/O

def test_segv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    vol = Volume(data=rng.normal(size=(2, 4, 5)).astype(np.float32), meta={"source": "test"})
    path = tmp_path / "v.segv"
    save_volume(path, vol)
    back = load_volume(path)
    np.testing.assert_array_equal(back.data, vol.data)
    assert back.meta["source"] == "test"


def test_segv_expected_payload_size(tmp_path):
    # header implies slices*rows*cols*4 bytes of f32 payload
    vol = Volume(data=np.zeros((3, 4, 5), dtype=np.float32))
    path = tmp_path / "v.segv"
    save_volume(path, vol)
    blob = path.read_bytes()
    header = 6 + 2 + 3 * 4
    assert len(blob) - header == 3 * 4 * 5 * 4


@pytest.mark.parametrize("dtype, code", [("<f4", 0), ("u1", 1)])
def test_segv_bytes_are_the_documented_layout(tmp_path, dtype, code):
    whole = np.arange(48).reshape(2, 6, 4).astype(dtype)
    for arr in (whole, whole[:, ::2], whole.transpose(2, 0, 1)):  # strided views go out row-major
        path = tmp_path / "v.segv"
        save_segv(path, arr)
        expected = b"SEGV1\n" + bytes([code, 3]) + struct.pack("<3I", *arr.shape) + arr.tobytes()
        assert path.read_bytes() == expected


@pytest.mark.parametrize("dtype", ["<f8", ">f4", "i1", "?"])
def test_segv_rejects_other_dtypes(tmp_path, dtype):
    with pytest.raises(ContractError):
        save_segv(tmp_path / "v.segv", np.zeros((1, 2, 2), dtype=dtype))


def test_failed_segv_write_keeps_the_previous_file(tmp_path, failing_writes):
    path = tmp_path / "v.segv"
    save_volume(path, Volume(data=np.zeros((2, 3, 4), dtype=np.float32), meta={"n": 1}))
    previous = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    failing_writes(2)  # the header is out, the payload fails
    with pytest.raises(OSError, match="no space"):
        save_volume(path, Volume(data=np.ones((2, 3, 4), dtype=np.float32), meta={"n": 2}))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == previous


def test_segv_bad_magic(tmp_path):
    path = tmp_path / "bad.segv"
    path.write_bytes(b"NOTSEGV" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        load_segv(path)


def test_segv_truncated_payload(tmp_path):
    vol = Volume(data=np.zeros((2, 3, 4), dtype=np.float32))
    path = tmp_path / "v.segv"
    save_volume(path, vol)
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(CorruptionError, match="payload"):
        load_segv(path)


def test_segv_payload_that_shrinks_while_read_is_corruption(tmp_path, monkeypatch):
    path = tmp_path / "v.segv"
    save_volume(path, Volume(data=np.zeros((2, 3, 4), dtype=np.float32)))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-4])
    monkeypatch.setattr(data_mod.os, "fstat", lambda fd: SimpleNamespace(st_size=size))  # the size before it shrank
    with pytest.raises(CorruptionError, match="payload ended before its 96 bytes"):
        load_segv(path)


def test_segv_payload_is_read_into_the_one_array_returned(tmp_path):
    path = tmp_path / "v.segv"
    save_volume(path, Volume(data=np.ones((4, 256, 256), dtype=np.float32)))  # 1 MB payload
    tracemalloc.start()
    try:
        data, _ = load_segv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.nbytes <= peak < 1.25 * data.nbytes
    assert (data == 1.0).all()


def test_segv_extents_whose_product_wraps_int64_are_corruption(tmp_path):
    path = tmp_path / "v.segv"
    path.write_bytes(b"SEGV1\n" + bytes([0, 4]) + struct.pack("<4I", *[65536] * 4))  # 2**64 elements, no payload
    with pytest.raises(CorruptionError, match="payload"):
        load_segv(path)


@pytest.mark.parametrize("sidecar", [b"{not json", b"\xff\xfe{}", b"[1, 2]"])
def test_segv_malformed_sidecar_is_format_error(tmp_path, sidecar):
    path = tmp_path / "v.segv"
    save_volume(path, Volume(data=np.zeros((2, 3, 4), dtype=np.float32)))
    (tmp_path / "v.segv.json").write_bytes(sidecar)
    with pytest.raises(FormatError, match="sidecar"):
        load_segv(path)


def test_mask_round_trip_preserves_num_classes(tmp_path):
    masks = MaskVolume(data=np.arange(8, dtype=np.uint8).reshape(2, 2, 2), num_classes=8)
    path = tmp_path / "m.segv"
    save_masks(path, masks)
    back = load_masks(path)
    assert back.num_classes == 8
    np.testing.assert_array_equal(back.data, masks.data)


@pytest.mark.parametrize("num_classes", ["seven", True, 7.0, 0, -1, None])
def test_mask_sidecar_num_classes_must_be_a_positive_int(tmp_path, num_classes):
    path = tmp_path / "m.segv"
    save_segv(path, np.zeros((1, 2, 2), dtype=np.uint8), {"num_classes": num_classes})
    with pytest.raises(FormatError, match="num_classes"):
        load_masks(path)


def test_pgm_export_bytes_are_the_documented_layout(tmp_path):
    img = np.random.default_rng(1).integers(0, 256, size=(7, 9)).astype(np.uint8)
    path = tmp_path / "s.pgm"
    write_pgm(path, img)
    assert path.read_bytes() == b"P5\n9 7\n255\n" + img.tobytes()
    write_pgm(path, np.array([[-3.0, 0.4, 0.6, 254.5, 300.0]]))  # rounded half to even, then clipped
    assert path.read_bytes() == b"P5\n5 1\n255\n" + bytes([0, 0, 1, 254, 255])


# ------------------------------------------------------------------ rescale

def test_rescale_spans_0_255():
    rng = np.random.default_rng(2)
    raw = rng.uniform(-30000, 33000, size=(3, 20, 30)).astype(np.float32)
    out = preprocess_rescale(Volume(data=raw), 0.0, 100.0)
    assert out.data.min() == 0.0
    assert out.data.max() == 255.0
    assert out.data.dtype == np.float32


def test_rescale_constant_volume_warns_and_zeroes():
    vol = Volume(data=np.full((2, 3, 4), 7.0, dtype=np.float32))
    with pytest.warns(UserWarning):
        out = preprocess_rescale(vol)
    np.testing.assert_array_equal(out.data, np.zeros_like(vol.data))


def test_rescale_percentiles_match_sort_oracle():
    values = np.arange(1000, dtype=np.float32).reshape(10, 10, 10)
    lo = sort_percentile(values, 1.0)
    hi = sort_percentile(values, 99.0)
    np.testing.assert_allclose([lo, hi], [9.99, 989.01])
    out = preprocess_rescale(Volume(data=values), 1.0, 99.0)
    assert out.data.min() == 0.0
    assert out.data.max() == 255.0
    np.testing.assert_allclose(out.meta["rescaled"]["lo"], lo)
    np.testing.assert_allclose(out.meta["rescaled"]["hi"], hi)


def test_rescale_is_monotone():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(2, 8, 8)).astype(np.float32)
    out = preprocess_rescale(Volume(data=raw), 5.0, 95.0)
    a, b = raw.ravel(), out.data.ravel()
    order = np.argsort(a, kind="stable")
    diffs = np.diff(b[order])
    assert (diffs >= -1e-6).all()
    assert out.data.min() >= 0.0 and out.data.max() <= 255.0


def test_rescale_records_percentiles_as_floats():
    out = preprocess_rescale(Volume(data=np.arange(8, dtype=np.float32).reshape(2, 2, 2)), 1, 99)
    assert json.dumps(out.meta["rescaled"]["clip_lo_pct"]) == "1.0"
    assert json.dumps(out.meta["rescaled"]["clip_hi_pct"]) == "99.0"


@pytest.mark.parametrize("lo, hi", [(99.0, 1.0), (1.0, 150.0), (-1.0, 99.0), (50.0, 50.0)])
def test_rescale_rejects_bad_percentiles(lo, hi):
    with pytest.raises(ConfigError, match=f"data.clip_lo_pct={lo} and data.clip_hi_pct={hi} must satisfy"):
        preprocess_rescale(Volume(data=np.zeros((1, 2, 2), dtype=np.float32)), lo, hi)


# ---------------------------------------------------------------- splitting

def test_split_hand_enumerated_two_blocks():
    split = split_blocks(10, SplitConfig(n_blocks=2))
    assert split["train"] == [0, 1, 2, 5, 6, 7]
    assert split["val"] == [3, 4, 8, 9]
    assert split["test"] == []


def test_split_is_a_partition():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(10, 200))
        blocks = int(rng.integers(1, 9))
        test = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n // 4 + 1)), replace=False).tolist()))
        cfg = SplitConfig(n_blocks=blocks, test_slices=test, seed=int(rng.integers(1 << 20)))
        if n - len(test) < blocks:
            continue
        split = split_blocks(n, cfg)
        merged = sorted(split["train"] + split["val"] + split["test"])
        assert merged == list(range(n))
        assert not set(split["train"]) & set(split["val"])
        assert not set(split["train"]) & set(split["test"])


def test_split_slice_limit_samples_per_block():
    for seed in range(8):
        cfg = SplitConfig(n_blocks=2, slice_limit=2, seed=seed)
        split = split_blocks(10, cfg)
        assert len(split["train"]) == 2  # n * floor(x/n)
        a, b = split["train"]
        assert a in (0, 1, 2)  # first block's train region
        assert b in (5, 6, 7)  # second block's train region


def test_split_slice_limit_total_count_property():
    # |train| == n_blocks * floor(x / n_blocks)
    cfg = SplitConfig(n_blocks=3, slice_limit=7, seed=1)
    split = split_blocks(30, cfg)
    assert len(split["train"]) == 3 * (7 // 3)


def test_split_limit_too_large_is_config_error():
    with pytest.raises(ConfigError):
        split_blocks(10, SplitConfig(n_blocks=2, slice_limit=8))


def test_split_negative_slice_limit_is_config_error():
    with pytest.raises(ConfigError, match="slice_limit must be >= 0, got -5"):
        split_blocks(20, SplitConfig(n_blocks=2, slice_limit=-5))
    assert split_blocks(20, SplitConfig(n_blocks=2, slice_limit=0))["train"] == []


@pytest.mark.parametrize("bad", ["3", 3.0, True])
def test_split_test_slices_must_be_integers(bad):
    assert SplitConfig(test_slices=(np.int64(3), 4)).test_slices[0] == 3
    with pytest.raises(ConfigError, match="not an integer"):
        SplitConfig(test_slices=(1, bad))


def test_default_test_slices_even_spacing():
    idx = default_test_slices(459, 40)
    assert len(idx) == 40
    assert idx[0] == 0 and idx[-1] == 458
    assert all(b > a for a, b in zip(idx, idx[1:]))


# ------------------------------------------------------------------- tiling

def test_tile_count_80x120_case():
    cfg = TileConfig(tile_h=80, tile_w=120, overlap_fraction=0.5)
    assert (cfg.stride_h, cfg.stride_w) == (40, 60)
    assert tile_count(481, 1501, cfg) == 11 * 24 == 264
    assert len(tile_origins(481, 1501, cfg)) == 264


def test_tile_count_128_case():
    cfg = TileConfig(tile_h=128, tile_w=128, overlap_fraction=0.5)
    assert tile_count(481, 1501, cfg) == 6 * 22 == 132


def test_tile_exact_fit_gives_single_tile():
    cfg = TileConfig(tile_h=32, tile_w=48, overlap_fraction=0.5)
    assert tile_origins(32, 48, cfg) == [(0, 0)]


def test_tile_origins_match_enumeration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        th = int(rng.integers(2, 40)) * 2
        tw = int(rng.integers(2, 40)) * 2
        h = th + int(rng.integers(0, 300))
        w = tw + int(rng.integers(0, 300))
        cfg = TileConfig(tile_h=th, tile_w=tw, overlap_fraction=0.5)
        got = tile_origins(h, w, cfg)
        want = enumerate_tile_origins(h, w, th, tw, cfg.stride_h, cfg.stride_w)
        assert got == want
        assert tile_count(h, w, cfg) == len(want)


def test_tile_volume_provenance_and_bounds():
    rng = np.random.default_rng(6)
    image = rng.normal(size=(50, 70)).astype(np.float32)
    mask = rng.integers(0, 7, size=(50, 70)).astype(np.uint8)
    cfg = TileConfig(tile_h=20, tile_w=30, overlap_fraction=0.5)
    volume = Volume(data=np.stack([np.zeros_like(image)] * 3 + [image]))
    masks = MaskVolume(data=np.stack([np.zeros_like(mask)] * 3 + [mask]), num_classes=7)
    ts = tile_volume(volume, masks, [3], cfg)
    assert len(ts) == tile_count(50, 70, cfg)
    for (s, r, c), img_tile, mask_tile in zip(ts.provenance, ts.images, ts.masks):
        assert s == 3
        assert r + cfg.tile_h <= 50 and c + cfg.tile_w <= 70
        np.testing.assert_array_equal(img_tile, image[r : r + 20, c : c + 30])
        np.testing.assert_array_equal(mask_tile, mask[r : r + 20, c : c + 30])


def test_tile_larger_than_slice_is_config_error():
    cfg = TileConfig(tile_h=64, tile_w=64, overlap_fraction=0.5)
    with pytest.raises(ConfigError):
        tile_origins(32, 128, cfg)
    with pytest.raises(ConfigError):
        tile_count(10, 10, TileConfig(80, 120))


def test_tile_volume_sorted_by_slice_row_col(tmp_path):
    vol, masks = generate_synthetic_volume(
        SynthConfig(slices=3, height=40, width=60, num_classes=4, horizon_waviness=2.0)
    )
    cfg = TileConfig(tile_h=20, tile_w=20, overlap_fraction=0.5)
    ts = tile_volume(vol, masks, [2, 0], cfg)
    prov = ts.provenance.tolist()
    assert prov == sorted(prov)
    for (s, r, c), img_tile, mask_tile in zip(prov, ts.images, ts.masks):
        np.testing.assert_array_equal(img_tile, vol.data[s, r : r + 20, c : c + 20])
        np.testing.assert_array_equal(mask_tile, masks.data[s, r : r + 20, c : c + 20])
    ts.save(tmp_path / "tiles")
    back = TileSet.load(tmp_path / "tiles")
    np.testing.assert_array_equal(back.images, ts.images)
    np.testing.assert_array_equal(back.masks, ts.masks)
    np.testing.assert_array_equal(back.provenance, ts.provenance)


def _damage_tile_set(case, stem):
    sidecar = stem.parent / (stem.name + ".json")
    header = json.loads(sidecar.read_text())
    if case == "fewer provenance rows than tiles":
        header["tiles"].pop()
    elif case == "missing key":
        del header["tile_w"]
    elif case == "non-JSON sidecar":
        sidecar.write_text("{not json")
        return
    else:  # one more mask than images
        masks, _ = load_segv(f"{stem}.masks.segv")
        save_segv(f"{stem}.masks.segv", np.concatenate([masks, masks[:1]]))
        return
    sidecar.write_text(json.dumps(header))


@pytest.mark.parametrize("case", [
    "fewer provenance rows than tiles", "missing key", "non-JSON sidecar", "image and mask counts differ",
])
def test_tile_set_load_rejects_inconsistent_files(tmp_path, case):
    vol, masks = generate_synthetic_volume(
        SynthConfig(slices=2, height=40, width=60, num_classes=4, horizon_waviness=2.0)
    )
    cfg = TileConfig(tile_h=20, tile_w=20, overlap_fraction=0.5)
    tile_volume(vol, masks, [0, 1], cfg).save(tmp_path / "tiles")
    _damage_tile_set(case, tmp_path / "tiles")
    with pytest.raises(FormatError):
        TileSet.load(tmp_path / "tiles")


def test_non_integer_stride_rejected():
    with pytest.raises(ConfigError, match="stride"):
        TileConfig(tile_h=25, tile_w=30, overlap_fraction=0.5)


# ------------------------------------------------------------ class merging

def test_merge_classes_mapping():
    data = np.arange(8, dtype=np.uint8).reshape(1, 2, 4)
    merged = merge_classes(MaskVolume(data=data, num_classes=8))
    np.testing.assert_array_equal(merged.data.ravel(), [0, 1, 2, 2, 3, 4, 5, 6])
    assert merged.num_classes == 7
    assert merged.data.shape == data.shape


def test_merge_classes_requires_eight_classes():
    with pytest.raises(ContractError):
        merge_classes(MaskVolume(data=np.zeros((1, 1, 1), dtype=np.uint8), num_classes=7))


# ---------------------------------------------------------------- synthetic

def test_synthetic_shapes_and_classes():
    vol, masks = generate_synthetic_volume(
        SynthConfig(slices=4, height=140, width=192, num_classes=7)
    )
    assert vol.data.shape == (4, 140, 192)
    assert masks.data.shape == (4, 140, 192)
    assert masks.num_classes == 7
    assert set(np.unique(masks.data)) == set(range(7))
    assert np.isfinite(vol.data).all()


def test_synthetic_labels_monotone_down_columns():
    _, masks = generate_synthetic_volume(SynthConfig(slices=3, height=80, width=64, num_classes=5))
    diffs = np.diff(masks.data.astype(np.int32), axis=1)
    assert (diffs >= 0).all()


def test_synthetic_deterministic_in_seed():
    cfg = SynthConfig(slices=2, height=60, width=40, num_classes=4, texture_seed=9)
    v1, m1 = generate_synthetic_volume(cfg)
    v2, m2 = generate_synthetic_volume(cfg)
    np.testing.assert_array_equal(v1.data, v2.data)
    np.testing.assert_array_equal(m1.data, m2.data)
    v3, _ = generate_synthetic_volume(
        SynthConfig(slices=2, height=60, width=40, num_classes=4, texture_seed=10)
    )
    assert not np.array_equal(v1.data, v3.data)


def test_synthetic_adjacent_slices_more_similar_than_distant():
    vol, _ = generate_synthetic_volume(SynthConfig(slices=16, height=96, width=96, num_classes=6))
    adjacent = np.abs(vol.data[0] - vol.data[1]).mean()
    distant = np.abs(vol.data[0] - vol.data[15]).mean()
    assert adjacent < distant


def test_synthetic_thin_band_rejected():
    with pytest.raises(ConfigError):
        generate_synthetic_volume(SynthConfig(slices=2, height=16, width=32, num_classes=7,
                                              horizon_waviness=100.0))


def test_synthetic_class_count_is_capped_at_what_u8_labels_hold():
    _, masks = generate_synthetic_volume(SynthConfig(slices=1, height=600, width=4, num_classes=256,
                                                     horizon_waviness=0.0))
    assert set(np.unique(masks.data)) == set(range(256))
    for bad in (1, 257, 300):
        with pytest.raises(ConfigError, match=f"num_classes must lie in \\[2, 256\\], got {bad}"):
            SynthConfig(height=600, num_classes=bad, horizon_waviness=0.0)


def _reference_synthetic_volume(cfg):
    """The generator's arithmetic done band by band over the whole volume, each
    band's texture kept through np.where: the bytes the generator must match."""
    rng = np.random.default_rng(cfg.texture_seed)
    s_count, h, w, c = cfg.slices, cfg.height, cfg.width, cfg.num_classes
    nominal = [h * (k + 1) / c for k in range(c - 1)]
    horizons = np.stack([nominal[k] + _smooth_field(rng, s_count, w, cfg.horizon_waviness)
                         for k in range(c - 1)])
    depth = np.arange(h, dtype=np.float64)[None, :, None]
    bounds = horizons[:, :, None, :]
    labels = (depth >= bounds).sum(axis=0).astype(np.uint8)
    top = np.concatenate([np.zeros((1, s_count, 1, w)), bounds])
    signal = np.zeros((s_count, h, w))
    for k in range(c):
        period, amplitude, dc, noise, jitter = _BAND_STYLES[k % len(_BAND_STYLES)]
        phase_wobble = _smooth_field(rng, s_count, w, jitter * np.pi)[:, None, :]
        tex = dc + amplitude * np.sin(2 * np.pi * (depth - top[k]) / period + phase_wobble)
        tex = tex + noise * rng.standard_normal((s_count, h, w))
        signal = np.where(labels == k, tex, signal)
    return (signal * 30000.0).astype(np.float32), labels


@pytest.mark.parametrize("seed", [0, 5, 71])
@pytest.mark.parametrize("shape", [
    dict(slices=2, height=120, width=300, num_classes=8, horizon_waviness=5.0),  # survey-like
    dict(slices=16, height=160, width=240, num_classes=7),  # the quick start's slices
    dict(slices=3, height=80, width=64, num_classes=5, horizon_waviness=0.0),
    dict(slices=2, height=40, width=37, num_classes=10, horizon_waviness=0.9),  # bands near 2 px
    dict(slices=1, height=60, width=50, num_classes=4),
    dict(slices=4, height=60, width=4, num_classes=3),
])
def test_synthetic_bytes_match_the_whole_volume_reference(shape, seed):
    cfg = SynthConfig(**shape, texture_seed=seed)
    vol, masks = generate_synthetic_volume(cfg)
    ref_data, ref_labels = _reference_synthetic_volume(cfg)
    assert vol.data.dtype == ref_data.dtype and masks.data.dtype == ref_labels.dtype
    assert vol.data.tobytes() == ref_data.tobytes()
    assert masks.data.tobytes() == ref_labels.tobytes()


# sha256 of the volume, the masks and the rescaled volume as the generator and the
# rescale gave them when they worked on whole-volume float64 arrays
@pytest.mark.parametrize("shape, digests", [
    (dict(slices=6, height=481, width=1501, num_classes=8, horizon_waviness=5.0, texture_seed=1),  # the survey
     ("e92562d597f019c5c7d602fe4ad7395cabaf8676509d4fc39592b578810e17ad",
      "2b75067948c0f83553d9e1fc4715d473599635c2f038ccf22082eade60a720cf",
      "6b0ac5e26435732039833439ea85be1f3466183c30b1e790a07727d96c7193f6")),
    (dict(),
     ("e3d351a5d5b07dbc37f6c6dd659c5e1e980c1a61dffa3bdbf0f669d09dbf99cc",
      "a2cd4bea6cefb64229b0d37eec417b708b6d2f1e3a094c8788377c103224b424",
      "1ac718e36eb45c5f77f4267778bbd4ca54b26c73fefd5ff3941b8057a2723921")),
    (dict(slices=3, height=80, width=64, num_classes=5, horizon_waviness=2.0, texture_seed=7),
     ("b7425c540bde2c8a63c86de9050ab778737e5d966b2244eafcda9dee0a05020b",
      "3cdc05378c7ffdb2c6a779ac8a5556e1033471de94982bf822547217c6fb2b7d",
      "9919ad291e51d2e4490b6452a46df2737500d2bf8032d6f3b72ae0344b562507")),
])
def test_synthetic_and_rescaled_bytes_are_pinned(shape, digests):
    vol, masks = generate_synthetic_volume(SynthConfig(**shape))
    arrays = (vol.data, masks.data, preprocess_rescale(vol).data)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == digests


def test_synthetic_volume_and_rescale_hold_slice_sized_temporaries():
    """Past the float32 volume, the u8 masks, a bool of the masks' size and the
    float64 horizon surfaces (tops, floors), the generator holds a few float64
    slices; the rescale holds its float32 result, the percentile's copy of the
    volume and a few float64 slices."""
    cfg = SynthConfig()
    float_slice, surfaces = cfg.height * cfg.width * 8, 3 * cfg.num_classes * cfg.slices * cfg.width * 8
    tracemalloc.start()
    try:
        vol, masks = generate_synthetic_volume(cfg)
        generated = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        preprocess_rescale(vol)
        rescaled = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert generated < vol.data.nbytes + 2 * masks.data.nbytes + surfaces + 8 * float_slice
    assert rescaled < 2 * vol.data.nbytes + 8 * float_slice
