import hashlib
import tracemalloc

import numpy as np
import pytest

from seistile.errors import ParseError, TopologyError
from seistile.network import build_model, xavier_init
from seistile.tensor import Tensor
from seistile.topology import (
    LayerSpec,
    TABLE_OPS_PER_MAC,
    TopologySpec,
    count_operations,
    count_parameters,
    count_running_stats,
    forward_shape,
    parse_topology,
    preset,
    preset_names,
    render_topology,
    scale_widths,
)

PUBLISHED = {
    # (millions of parameters, ops @80x120, ops @128x128)
    "danet-fcn": (4.46e6, 3213e6, 5477e6),
    "danet-fcn2": (6.66e6, 1880e6, 3140e6),
    "danet-fcn3": (39.2e6, 10572e6, 17675e6),
}


# ------------------------------------------------------------------- parsing

def test_parse_single_conv_token():
    spec = parse_topology("c5 s2 64")
    assert spec.layers == (LayerSpec("conv", 5, 2, 64),)


def test_parse_empty_is_an_error():
    with pytest.raises(ParseError, match="empty"):
        parse_topology("")
    with pytest.raises(ParseError, match="empty"):
        parse_topology("# only a comment\n\n")


def test_parse_three_layer_example():
    spec = parse_topology("c3 s2 32\ntru s2 32\nout 7")
    assert len(spec.layers) == 3
    assert spec.layers[1] == LayerSpec("tru", 3, 2, 32)
    assert spec.layers[2] == LayerSpec("classifier", 1, 1, 7)
    assert spec.num_classes == 7


def test_parse_reports_line_number_for_unknown_token():
    with pytest.raises(ParseError, match="line 2"):
        parse_topology("c3 s2 8\nfrobnicate 12\nout 7")


def test_parse_rejects_noncancelling_strides():
    with pytest.raises(TopologyError, match="cancel"):
        parse_topology("c3 s2 8\nout 7")


def test_parse_default_stride_is_one():
    spec = parse_topology("ru 16\nout 2")
    assert spec.layers[0].stride == 1


def test_render_parse_round_trip():
    for name in preset_names():
        spec = preset(name)
        again = parse_topology(render_topology(spec), name=name)
        assert again == spec


def test_parse_comments_and_blank_lines():
    spec = parse_topology("# encoder\nc3 s2 4  # stem\n\ntc3 s2 4\nout 2\n")
    assert [l.kind for l in spec.layers] == ["conv", "tconv", "classifier"]


# ------------------------------------------------------------------- shapes

def test_forward_shape_stride_cancellation():
    spec = preset("danet-fcn2")
    assert forward_shape(spec, 80, 120) == (80, 120, 7)
    assert forward_shape(spec, 128, 128) == (128, 128, 7)


@pytest.mark.parametrize("name", ["danet-fcn", "danet-fcn2", "danet-fcn3"])
def test_presets_restore_input_resolution(name):
    spec = preset(name)
    rng = np.random.default_rng(0)
    for _ in range(5):
        h = 8 * int(rng.integers(1, 30))
        w = 8 * int(rng.integers(1, 30))
        assert forward_shape(spec, h, w) == (h, w, 7)


# ------------------------------------------------------------------- counts

def test_count_single_conv_hand_case():
    # bare classifier-free conv: 5*5*1*64 + 64 kernels+bias, plus 2*64 BN affine
    spec = parse_topology("c5 s2 64\ntc1 s2 64\nout 7")
    first = 5 * 5 * 1 * 64 + 64 + 2 * 64
    assert count_parameters(spec) == first + (1 * 1 * 64 * 64 + 64 + 2 * 64) + (64 * 7 + 7)


def test_count_operations_single_1x1_conv_two_ops_per_mac():
    # one multiply and one add on a single output element, plus bias/BN/ReLU elementwise
    spec = parse_topology("c1 1\nout 1")
    ops = count_operations(spec, 1, 1, ops_per_mac=2)
    assert ops == (2 + 3) + (2 + 1)


def test_count_operations_scales_with_area():
    spec = parse_topology("c3 s2 8\nc3 8\ntc3 s2 8\nout 3")
    for h, w in [(16, 24), (32, 40)]:
        assert count_operations(spec, 2 * h, 2 * w) == 4 * count_operations(spec, h, w)


def test_parameter_count_equals_model_parameter_sizes():
    specs = [scale_widths(preset(name), 0.05) for name in preset_names()]
    specs.append(parse_topology("c1 s2 6\ntru 6\ntc3 s2 4\nout 3"))  # identity-shortcut tru
    for spec in specs:
        model = build_model(spec, seed=0, dtype=np.float32)
        total = sum(t.size for _, t, _ in model.parameters())
        assert total == count_parameters(spec)
        buffers = sum(a.size for _, a in model.buffers())
        assert buffers == count_running_stats(spec)


EXACT = {
    # (parameters, running stats, ops @80x120, ops @128x128) at one op per MAC
    "danet-fcn": (4_487_847, 4_768, 3_236_169_600, 5_523_062_784),
    "danet-fcn2": (6_626_535, 5_248, 1_875_542_400, 3_200_925_696),
    "danet-fcn3": (39_642_983, 12_672, 10_357_228_800, 17_676_337_152),
}


@pytest.mark.parametrize("name", list(EXACT))
def test_preset_counts_exact(name):
    spec = preset(name)
    got = (count_parameters(spec), count_running_stats(spec),
           count_operations(spec, 80, 120), count_operations(spec, 128, 128))
    assert got == EXACT[name]


def test_count_residual_units_hand_case():
    spec = parse_topology("ru s2 8\ntru s2 4\nout 3")
    # ru (1->8, projection): 72+8 + 576+8 + 8+8 + 4*8 BN; tru (8->4, projection):
    # 288+4 + 144+4 + 32+4 + 4*4 BN; out: 12+3
    assert count_parameters(spec) == 712 + 492 + 15
    assert count_running_stats(spec) == 4 * 8 + 4 * 4
    # 4x6 -> ru -> 2x3 -> tru -> 4x6. MACs: ru (72 + 576 + 8) * 6; tru on the
    # coarse 2x3 side (288 + 32) * 6 plus 144 * 24; out 12 * 24. Per output
    # element: 3 + 3 + 1 (projection bias) + 2 (add, ReLU) in each unit, 1 in out.
    macs = 656 * 6 + 320 * 6 + 144 * 24 + 12 * 24
    elementwise = 9 * 6 * 8 + 9 * 24 * 4 + 24 * 3
    assert count_operations(spec, 4, 6) == macs + elementwise == 10_968
    assert count_operations(spec, 4, 6, ops_per_mac=2) == 2 * macs + elementwise == 20_568


@pytest.mark.parametrize("name", list(PUBLISHED))
def test_preset_parameter_budget(name):
    params, _, _ = PUBLISHED[name]
    got = count_parameters(preset(name))
    assert abs(got - params) / params < 0.02


@pytest.mark.parametrize("name", list(PUBLISHED))
def test_preset_operation_budget(name):
    _, ops80, ops128 = PUBLISHED[name]
    spec = preset(name)
    got80 = count_operations(spec, 80, 120, ops_per_mac=TABLE_OPS_PER_MAC)
    got128 = count_operations(spec, 128, 128, ops_per_mac=TABLE_OPS_PER_MAC)
    assert abs(got80 - ops80) / ops80 < 0.10
    assert abs(got128 - ops128) / ops128 < 0.10


# ------------------------------------------------------------------- builder

def test_build_model_deterministic_in_seed():
    spec = parse_topology("c3 s2 6\nru 6\ntru s2 4\nout 3")
    a = build_model(spec, seed=123)
    b = build_model(spec, seed=123)
    for (na, ta, _), (nb, tb, _) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)
    c = build_model(spec, seed=124)
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta, _), (_, tc, _) in zip(a.parameters(), c.parameters())
    )


# sha256 over each parameter's name and bytes, in checkpoint order, for seed 7; computed
# when each kernel was still drawn whole in float64 and then cast to the model's dtype
BUILD_DIGESTS = {
    ("danet-fcn", 0.1, "float32"): "d4d524dfdef8f42612e445b9bab67a846f6b397ca92524d951b0bb9f348942ae",
    ("danet-fcn", 0.1, "float64"): "acae42b76d640ec3f43608a61ed43d034d0d4a5cd132d1e0dcbd000e7dcc1612",
    ("danet-fcn2", 0.1, "float32"): "87c0a122497a682a19f0958bdc9380baee628c8292e78f83e792221eb25c31ae",
    ("danet-fcn2", 0.1, "float64"): "1df8e445538b7c57ba1dc4a616f9858b8a48c4d5641f05867985bfa4d607b54c",
    ("danet-fcn3", 0.1, "float32"): "a10ce2bba9113883c0ac0fdf6a00a0f893f96780a16a9eb2019ce753e0c6b36d",
    ("danet-fcn3", 0.1, "float64"): "498c7fa794bb394059c2645d97e4d2daffc63bc8a36a34001e40e1c0a1a216e3",
    # width 0.5: a whole float64 draw of the 3x3x320x320 kernel alone would take 7.4 MB
    ("danet-fcn2", 0.5, "float32"): "7140cb6bc5ac0b4f165d066370160ad4f57efd7f91d129493aab55b16c1c4d51",
    ("danet-fcn2", 0.5, "float64"): "fb80801624bd2db9c8b556254275f875bbac325980a71f9d814a7fe32cf894cf",
}


@pytest.mark.parametrize("name, width, dtype", BUILD_DIGESTS)
def test_build_model_parameters_are_pinned_and_built_at_the_model_size(name, width, dtype):
    spec = scale_widths(preset(name), width)
    tracemalloc.start()
    try:
        model = build_model(spec, seed=7, dtype=dtype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256()
    for n, t, _ in model.parameters():
        assert t.dtype == dtype
        digest.update(n.encode())
        digest.update(t.data.tobytes())
    assert digest.hexdigest() == BUILD_DIGESTS[name, width, dtype]
    size = sum(t.data.nbytes for _, t, _ in model.parameters()) + sum(b.nbytes for _, b in model.buffers())
    assert peak <= size + (1 << 20)


def test_build_model_forward_shape_and_biases_zero():
    spec = parse_topology("c3 s2 6\nru s2 8\ntru s2 6\ntc3 s2 4\nout 7")
    model = build_model(spec, seed=7)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 16, 24, 1)))
    out = model.forward(x, train=True)
    assert out.shape == (2, 16, 24, 7)
    for name, t, _ in model.parameters():
        if name.endswith("bias"):
            assert np.array_equal(t.data, np.zeros_like(t.data))


def _random_topology(rng, complete: bool):
    """A parseable topology of 1-6 random layers of every kind (kernels 1-5, 1-5 channels):
    a fragment, or a complete network whose strides cancel and that ends in a classifier."""
    def layer(kind, stride):
        kernel = int(rng.integers(1, 6)) if kind in ("conv", "tconv") else 1 if kind == "classifier" else 3
        return LayerSpec(kind, kernel, stride, int(rng.integers(1, 6)))

    layers = [layer(kind, 1 if kind == "classifier" else int(rng.integers(1, 3)))
              for kind in rng.choice(["conv", "tconv", "ru", "tru", "classifier"], rng.integers(1, 7))]
    down = sum(x.stride == 2 and not x.transposed for x in layers)
    up = sum(x.stride == 2 and x.transposed for x in layers)
    if complete:
        layers += [layer(kind, 2) for kind in rng.choice(["tconv", "tru"], max(down - up, 0))]
        layers += [layer(kind, 2) for kind in rng.choice(["conv", "ru"], max(up - down, 0))]
        layers = [layers[i] for i in rng.permutation(len(layers))] + [layer("classifier", 1)]
    elif layers[-1].kind == "classifier":
        layers.append(layer("conv", 1))
    return parse_topology(render_topology(TopologySpec("random", tuple(layers))))


def test_random_topologies_walk_to_the_built_models_shape_and_sizes():
    """forward_shape is the shape an untaped forward returns on an odd-sided
    input, and the counters are the built model's parameter and buffer sizes."""
    rng = np.random.default_rng(29)
    kinds, bad = set(), []
    for i in range(40):
        spec = _random_topology(rng, complete=i % 2 == 0)
        kinds.update(layer.kind for layer in spec.layers)
        h, w = 2 * int(rng.integers(0, 6)) + 1, int(rng.integers(1, 12))
        model = build_model(spec, seed=i)
        shape = model.forward(Tensor(rng.normal(size=(2, h, w, 1))), train=False).shape
        params = sum(t.data.size for _, t, _ in model.parameters())
        stats = sum(a.size for _, a in model.buffers())
        if (shape, params, stats) != ((2, *forward_shape(spec, h, w)), count_parameters(spec),
                                      count_running_stats(spec)):
            bad.append((render_topology(spec), h, w, shape, params, stats))
    assert not bad, bad[:3]
    assert kinds == {"conv", "tconv", "ru", "tru", "classifier"}


def test_xavier_bounds_and_determinism():
    t = xavier_init((3, 3, 1, 1), 42)
    limit = np.sqrt(6.0 / 18.0)
    assert np.abs(t.data).max() <= limit
    assert np.allclose(limit, 0.57735, atol=1e-5)
    t2 = xavier_init((3, 3, 1, 1), 42)
    assert np.array_equal(t.data, t2.data)
    wide = xavier_init((5, 5, 1, 64), 0)
    assert np.abs(wide.data).max() <= np.sqrt(6.0 / (25 + 25 * 64))
    assert np.isclose(np.sqrt(6.0 / 1625.0), 0.06076, atol=5e-5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_xavier_chunked_draw_is_the_whole_float64_draw_cast(dtype):
    shape = (3, 3, 100, 90)  # 81,000 values: two chunks
    limit = np.sqrt(6.0 / (9 * 100 + 9 * 90))
    whole = np.random.default_rng(5).uniform(-limit, limit, size=shape).astype(dtype)
    kernel = xavier_init(shape, 5, dtype).data
    assert kernel.dtype == dtype and kernel.tobytes() == whole.tobytes()


def test_unknown_preset_raises():
    with pytest.raises(TopologyError, match="unknown preset"):
        preset("resnet50")
