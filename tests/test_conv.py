import tracemalloc

import numpy as np
import pytest

from seistile import layers
from seistile.errors import DimensionError
from seistile.layers import conv2d, conv2d_transposed, half_padding
from seistile.tensor import Tensor, backward, grad_check, mul, recording, tensor_sum

from oracles import naive_conv2d, naive_conv2d_transposed


def rand_int_tensor(rng, shape):
    # integer-valued floats make every summation order exact
    return rng.integers(-4, 5, size=shape).astype(np.float64)


def test_half_padding_even_stride2():
    # 80 -> 40 under k=5 s=2: total pad = (40-1)*2 + 5 - 80 = 3
    assert half_padding(80, 5, 2) == (1, 2)
    assert half_padding(120, 3, 2) == (0, 1)
    assert half_padding(7, 3, 1) == (1, 1)


def test_conv_shape_80x120_c5_s2():
    x = Tensor(np.zeros((1, 80, 120, 1)))
    k = Tensor(np.zeros((5, 5, 1, 64)))
    b = Tensor(np.zeros(64))
    assert conv2d(x, k, b, stride=2).shape == (1, 40, 60, 64)


def test_conv_scalar_case():
    x = Tensor(np.full((1, 1, 1, 1), 2.0))
    k = Tensor(np.full((1, 1, 1, 1), 3.0))
    b = Tensor(np.array([1.0]))
    out = conv2d(x, k, b, stride=1)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 1, 1), 7.0))


def test_conv_channel_mismatch():
    x = Tensor(np.zeros((1, 4, 4, 3)))
    k = Tensor(np.zeros((3, 3, 2, 5)))
    with pytest.raises(DimensionError, match="channels"):
        conv2d(x, k, None)


@pytest.mark.parametrize("op", [conv2d, conv2d_transposed])
def test_conv_kernel_of_rank_3_is_a_dimension_error(op):
    with pytest.raises(DimensionError, match="kernel must be rank 4"):
        op(Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((3, 3, 3))), None)


def test_conv_matches_naive_oracle_spec_case():
    rng = np.random.default_rng(42)
    x = rand_int_tensor(rng, (1, 6, 6, 2))
    k = rand_int_tensor(rng, (3, 3, 2, 3))
    b = rand_int_tensor(rng, (3,))
    got = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2).data
    want = naive_conv2d(x, k, b, stride=2)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", range(12))
def test_conv_matches_naive_oracle_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    s = int(rng.integers(1, 3))
    x = rand_int_tensor(rng, (n, h, w, cin))
    kern = rand_int_tensor(rng, (k, k, cin, cout))
    bias = rand_int_tensor(rng, (cout,))
    got = conv2d(Tensor(x), Tensor(kern), Tensor(bias), stride=s).data
    want = naive_conv2d(x, kern, bias, stride=s)
    np.testing.assert_array_equal(got, want)


def test_tconv_shape_upsamples_by_stride():
    x = Tensor(np.zeros((1, 40, 60, 64)))
    k = Tensor(np.zeros((3, 3, 32, 64)))  # Kh,Kw,Cout,Cin
    b = Tensor(np.zeros(32))
    assert conv2d_transposed(x, k, b, stride=2).shape == (1, 80, 120, 32)


def test_tconv_scalar_case():
    x = Tensor(np.full((1, 1, 1, 1), 2.0))
    k = Tensor(np.full((1, 1, 1, 1), 3.0))
    b = Tensor(np.zeros(1))
    out = conv2d_transposed(x, k, b, stride=1)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 1, 1), 6.0))


@pytest.mark.parametrize("seed", range(12))
def test_tconv_matches_naive_oracle_random(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 3))
    h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    s = int(rng.integers(1, 3))
    x = rand_int_tensor(rng, (n, h, w, cin))
    kern = rand_int_tensor(rng, (k, k, cout, cin))
    bias = rand_int_tensor(rng, (cout,))
    got = conv2d_transposed(Tensor(x), Tensor(kern), Tensor(bias), stride=s).data
    want = naive_conv2d_transposed(x, kern, bias, stride=s)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", range(22))
def test_adjoint_identity(seed):
    # <conv(x), y> == <x, tconv(y)> with a shared kernel and zero bias
    rng = np.random.default_rng(200 + seed)
    s = int(rng.integers(1, 3))
    h = int(rng.integers(1, 7)) * s  # divisible by the stride
    w = int(rng.integers(1, 7)) * s
    n = int(rng.integers(1, 3))
    cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    k = int(rng.integers(1, 5))
    x = rng.normal(size=(n, h, w, cin))
    kern = Tensor(rng.normal(size=(k, k, cin, cout)))
    y = rng.normal(size=(n, h // s, w // s, cout))

    ax = conv2d(Tensor(x), kern, None, stride=s).data
    aty = conv2d_transposed(Tensor(y), kern, None, stride=s).data
    lhs = float((ax * y).sum())
    rhs = float((x * aty).sum())
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) / scale < 1e-10


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_grad_check(stride):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 5, 6, 2))
    kern = Tensor(rng.normal(size=(3, 3, 2, 3)))
    bias = Tensor(rng.normal(size=3))

    assert grad_check(lambda t: tensor_sum(conv2d(t, kern, bias, stride)), Tensor(x)) < 1e-6
    assert grad_check(
        lambda t: tensor_sum(conv2d(Tensor(x), t, bias, stride)), Tensor(kern.data)
    ) < 1e-6
    assert grad_check(
        lambda t: tensor_sum(conv2d(Tensor(x), kern, t, stride)), Tensor(bias.data)
    ) < 1e-6


@pytest.mark.parametrize("stride", [1, 2])
def test_tconv_grad_check(stride):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 4, 3))
    kern = Tensor(rng.normal(size=(3, 3, 2, 3)))
    bias = Tensor(rng.normal(size=2))

    assert grad_check(lambda t: tensor_sum(conv2d_transposed(t, kern, bias, stride)), Tensor(x)) < 1e-6
    assert grad_check(
        lambda t: tensor_sum(conv2d_transposed(Tensor(x), t, bias, stride)), Tensor(kern.data)
    ) < 1e-6
    assert grad_check(
        lambda t: tensor_sum(conv2d_transposed(Tensor(x), kern, t, stride)), Tensor(bias.data)
    ) < 1e-6


def test_conv_backward_populates_all_leaves():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(1, 4, 4, 2)), requires_grad=True)
    kern = Tensor(rng.normal(size=(3, 3, 2, 2)), requires_grad=True)
    bias = Tensor(rng.normal(size=2), requires_grad=True)
    with recording() as tape:
        loss = tensor_sum(conv2d(x, kern, bias, stride=2))
    backward(loss, tape)
    assert x.grad is not None and x.grad.shape == x.shape
    assert kern.grad is not None and kern.grad.shape == kern.shape
    np.testing.assert_allclose(bias.grad, np.full(2, 4.0))  # 2x2 output positions


# k=1, s=1 needs no padding, so the engine reads the caller's array directly
@pytest.mark.parametrize("k, s", [(1, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("op", [conv2d, conv2d_transposed])
def test_conv_bias_epilogue_leaves_operands_unmutated(op, k, s):
    rng = np.random.default_rng(40 + k + s)
    x, kern, bias = rng.normal(size=(2, 4, 6, 3)), rng.normal(size=(k, k, 3, 3)), rng.normal(size=3)
    operands = [Tensor(a.copy(), requires_grad=True) for a in (x, kern, bias)]
    with recording() as tape:
        y = op(*operands, stride=s)
        loss = tensor_sum(y)
    backward(loss, tape)
    want = naive_conv2d if op is conv2d else naive_conv2d_transposed
    np.testing.assert_allclose(y.data, want(x, kern, bias, s), rtol=1e-12, atol=1e-12)
    for t, a in zip(operands, (x, kern, bias)):
        np.testing.assert_array_equal(t.data, a)


def basis_input_grad(op, x_shape, g):
    """<op(e), g> for every one-hot input e: the adjoint of a per-sample linear op."""
    n, h, w, c = x_shape
    eye = np.eye(h * w * c).reshape(h * w * c, h, w, c)
    return np.einsum("kijo,bijo->bk", op(eye), g).reshape(n, h, w, c)


def basis_kernel_grad(op, x, kshape, out_axis, g):
    """<op(x, e), g> for every basis kernel e, all output channels at once."""
    gk = np.zeros(kshape)
    inner = [d for i, d in enumerate(kshape) if i != out_axis]
    for idx in np.ndindex(*inner):
        sel = list(idx)
        sel.insert(out_axis, slice(None))
        e = np.zeros(kshape)
        e[tuple(sel)] = 1.0
        gk[tuple(sel)] = (op(x, e) * g).sum(axis=(0, 1, 2))
    return gk


def conv_grads(rng, op, x, kern):
    xt, kt = Tensor(x, requires_grad=True), Tensor(kern, requires_grad=True)
    with recording() as tape:
        y = op(xt, kt, None)
        g = rand_int_tensor(rng, y.shape)
        loss = tensor_sum(mul(y, Tensor(g)))
    backward(loss, tape)
    return y.data, g, xt.grad, kt.grad


def chunked_cases(planes):
    """Every k in 1..7 at every s in 1..3 on each plane, and k=4, s=4 on a 6-pixel plane."""
    cases = [(k, s, hw) for k in range(1, 8) for s in (1, 2, 3) for hw in planes] + [(4, 4, (6, 6))]
    return pytest.mark.parametrize("k, s, hw", cases, ids=[f"k{k}-s{s}-{h}x{w}" for k, s, (h, w) in cases])


# One sample per im2col chunk (n = 3), odd and even H, W: phases without taps (k < s),
# phases of unequal tap counts, kernels larger than the plane. For the conv's input
# gradient, k=4, s=4 on a 6-pixel plane is a phase whose first tap row lies inside g
# (the walk crops g there instead of padding it).
@chunked_cases([(5, 6), (6, 4)])
def test_conv_chunked_phases_match_naive(monkeypatch, k, s, hw):
    monkeypatch.setattr(layers, "_WORKSPACE_BYTES", 1)
    rng = np.random.default_rng(10 * k + s)
    x = rand_int_tensor(rng, (3, *hw, 2))
    kern = rand_int_tensor(rng, (k, k, 2, 3))
    y, g, gx, gk = conv_grads(rng, lambda a, b, c: conv2d(a, b, c, stride=s), x, kern)

    np.testing.assert_array_equal(y, naive_conv2d(x, kern, None, s))
    np.testing.assert_array_equal(gx, basis_input_grad(lambda e: naive_conv2d(e, kern, None, s), x.shape, g))
    if hw[0] % s == 0 and hw[1] % s == 0:  # on such a plane it is the transposed conv
        np.testing.assert_array_equal(gx, naive_conv2d_transposed(g, kern, None, s))
    np.testing.assert_array_equal(
        gk, basis_kernel_grad(lambda a, e: naive_conv2d(a, e, None, s), x, kern.shape, 3, g))


@chunked_cases([(5, 6), (4, 3)])
def test_tconv_chunked_phases_match_naive(monkeypatch, k, s, hw):
    monkeypatch.setattr(layers, "_WORKSPACE_BYTES", 1)
    rng = np.random.default_rng(20 * k + s)
    x = rand_int_tensor(rng, (3, *hw, 3))
    kern = rand_int_tensor(rng, (k, k, 2, 3))  # Kh, Kw, Cout, Cin
    y, g, gx, gk = conv_grads(rng, lambda a, b, c: conv2d_transposed(a, b, c, stride=s), x, kern)

    np.testing.assert_array_equal(y, naive_conv2d_transposed(x, kern, None, s))
    np.testing.assert_array_equal(gx, naive_conv2d(g, kern, None, s))
    np.testing.assert_array_equal(
        gk, basis_kernel_grad(lambda a, e: naive_conv2d_transposed(a, e, None, s), x, kern.shape, 2, g))


def input_gradient(x, kern, stride):
    """The conv2d input-gradient rule alone: g is made before the caller traces."""
    xt = Tensor(x.data, requires_grad=True)
    with recording() as tape:
        y = conv2d(xt, kern, None, stride)
    g = np.ones(y.shape)
    return lambda: tape.records[-1].backward_fn(g)[0]


# Budgets of one sample's im2col rows (the 2x2-tap phase's for the adjoints), so each
# walk runs in 6 or 8 chunks. padded_chunk is the largest zero-padded chunk a walk may
# hold: one 18x18 sample for the conv; for the stride-2 adjoints, whose input is
# 16x16x16, two samples of a 2x1-tap phase, padded one row (or column) above.
@pytest.mark.parametrize("walk, x_shape, k_shape, budget, padded_chunk", [
    ("conv2d", (8, 16, 16, 8), (3, 3, 8, 4), 16 * 16 * 9 * 8 * 8, 18 * 18 * 8 * 8),
    ("conv2d_transposed", (6, 16, 16, 16), (3, 3, 4, 16), 16 * 16 * 4 * 16 * 8, 2 * 17 * 16 * 16 * 8),
    ("conv2d input gradient", (6, 32, 32, 4), (3, 3, 4, 16), 16 * 16 * 4 * 16 * 8, 2 * 17 * 16 * 16 * 8),
])
def test_a_walk_holds_one_im2col_chunk_at_a_time(monkeypatch, walk, x_shape, k_shape, budget, padded_chunk):
    """Besides its output, a walk holds one column chunk and one zero-padded chunk,
    never a padded copy of its whole input."""
    monkeypatch.setattr(layers, "_WORKSPACE_BYTES", budget)
    rng = np.random.default_rng(8)
    x, kern = Tensor(rng.normal(size=x_shape)), Tensor(rng.normal(size=k_shape))
    if walk == "conv2d input gradient":
        run = input_gradient(x, kern, 2)
    else:
        run = lambda: (conv2d(x, kern, None, 1) if walk == "conv2d" else conv2d_transposed(x, kern, None, 2)).data
    tracemalloc.start()
    try:
        out_bytes = run().nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out_bytes + 1.5 * budget + padded_chunk
