import weakref

import numpy as np
import pytest

import seistile.layers as layers_mod
from seistile.errors import DegenerateBatchError, DimensionError, LabelError
from seistile.layers import (
    BatchNorm2D,
    batch_norm,
    conv2d,
    conv2d_transposed,
    softmax_cross_entropy,
)
from seistile.network import _block, _residual_unit, _xavier, build_model
from seistile.tensor import Tensor, add, backward, grad_check, mul, recording, relu, tensor_sum
from seistile.topology import LayerSpec, parse_topology, preset, scale_widths


# ---------------------------------------------------------------- batch norm

def _bn(channels, **kwargs):
    """A fresh batch norm: gamma and running variance 1, beta and running mean 0."""
    return BatchNorm2D(Tensor(np.ones(channels), requires_grad=True), Tensor(np.zeros(channels), requires_grad=True),
                       np.zeros(channels), np.ones(channels), **kwargs)


def test_bn_constant_input_maps_to_zero():
    bn = _bn(3)
    x = Tensor(np.full((2, 4, 4, 3), 5.0))
    out = bn.forward(x, train=True)
    np.testing.assert_array_equal(out.data, np.zeros_like(x.data))


def test_bn_two_value_channel_hand_case():
    # values {1,3}: mean 2, biased var 1 -> xhat = +-1/sqrt(1+1e-5); out = 2*xhat + 1
    bn = _bn(1, eps=1e-5)
    bn.gamma.data[:] = 2.0
    bn.beta.data[:] = 1.0
    x = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
    out = bn.forward(x, train=True).data.ravel()
    np.testing.assert_allclose(out, [-0.99999, 2.99999], atol=1e-5)


def test_bn_running_update():
    bn = _bn(1, momentum=0.997)
    x = Tensor(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))  # batch mean 2
    bn.forward(x, train=True)
    np.testing.assert_allclose(bn.running_mean, [0.006], atol=1e-12)


def test_bn_normalizes_before_affine():
    rng = np.random.default_rng(11)
    bn = _bn(4)
    x = Tensor(rng.uniform(-3, 3, size=(2, 6, 5, 4)))
    out = bn.forward(x, train=True).data  # gamma=1, beta=0
    mean = out.mean(axis=(0, 1, 2))
    var = out.var(axis=(0, 1, 2))
    assert np.abs(mean).max() < 1e-8
    assert np.abs(var - 1.0).max() < 1e-4


def test_bn_infer_mode_uses_running_stats():
    bn = _bn(2)
    bn.running_mean[:] = [1.0, -1.0]
    bn.running_var[:] = [4.0, 1.0]
    x = Tensor(np.array([[[[3.0, 0.0]]]]))
    out = bn.forward(x, train=False).data.ravel()
    np.testing.assert_allclose(out, [(3 - 1) / np.sqrt(4 + 1e-5), (0 + 1) / np.sqrt(1 + 1e-5)])


def test_bn_train_rejects_single_element_batch():
    bn = _bn(3)
    with pytest.raises(DegenerateBatchError):
        bn.forward(Tensor(np.zeros((1, 1, 1, 3))), train=True)


@pytest.mark.parametrize("train", [True, False])
def test_bn_grad_check(train):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 4, 2))
    gamma = Tensor(rng.uniform(0.5, 1.5, size=2))
    beta = Tensor(rng.normal(size=2))

    def run_x(t):
        rm, rv = np.zeros(2), np.ones(2)
        return tensor_sum(batch_norm(t, gamma, beta, rm, rv, train=train))

    def run_gamma(t):
        rm, rv = np.zeros(2), np.ones(2)
        return tensor_sum(batch_norm(Tensor(x), t, beta, rm, rv, train=train))

    def run_beta(t):
        rm, rv = np.zeros(2), np.ones(2)
        return tensor_sum(batch_norm(Tensor(x), gamma, t, rm, rv, train=train))

    assert grad_check(run_x, Tensor(x)) < 1e-6
    assert grad_check(run_gamma, Tensor(gamma.data)) < 1e-6
    assert grad_check(run_beta, Tensor(beta.data)) < 1e-6


def _bn_reference(x, gamma, beta, rm, rv, g, eps, momentum, train):
    """Batch norm and its gradients in float64, written from the definition."""
    x, gamma, beta, rm, rv, g = (np.asarray(a, np.float64) for a in (x, gamma, beta, rm, rv, g))
    if train:
        mean = x.mean(axis=(0, 1, 2))
        var = ((x - mean) ** 2).mean(axis=(0, 1, 2))
        rm, rv = momentum * rm + (1 - momentum) * mean, momentum * rv + (1 - momentum) * var
    else:
        mean, var = rm, rv
    std = np.sqrt(var + eps)
    xhat = (x - mean) / std
    if train:  # d/dx through the batch mean and variance
        gx = gamma / std * (g - g.mean(axis=(0, 1, 2)) - xhat * (g * xhat).mean(axis=(0, 1, 2)))
    else:
        gx = g * gamma / std
    return gamma * xhat + beta, rm, rv, gx, (g * xhat).sum(axis=(0, 1, 2)), g.sum(axis=(0, 1, 2))


def _assert_close_f32(got, want):
    assert got.dtype == np.float32
    assert np.abs(got - want).max() <= 2e-5 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("c", [1, 6, 96])
def test_bn_float32_matches_float64_definition(c, train, x_grad):
    rng = np.random.default_rng(30 + c)
    f32 = np.float32
    x = (3.0 + 2.0 * rng.normal(size=(3, 7, 9, c))).astype(f32)
    gamma = rng.uniform(0.5, 1.5, size=c).astype(f32)
    beta = rng.normal(size=c).astype(f32)
    rm = rng.normal(size=c).astype(f32)
    rv = rng.uniform(0.5, 2.0, size=c).astype(f32)
    g = rng.normal(size=x.shape).astype(f32)
    want = _bn_reference(x, gamma, beta, rm, rv, g, 1e-5, 0.9, train)

    xt = Tensor(x.copy(), requires_grad=x_grad)
    gt, bt = Tensor(gamma.copy(), requires_grad=True), Tensor(beta.copy(), requires_grad=True)
    with recording() as tape:
        y = batch_norm(xt, gt, bt, rm, rv, eps=1e-5, momentum=0.9, train=train)
        loss = tensor_sum(mul(y, Tensor(g)))
    backward(loss, tape)

    for got, ref in zip((y.data, rm, rv, gt.grad, bt.grad), want[:3] + want[4:]):
        _assert_close_f32(got, ref)
    if x_grad:
        _assert_close_f32(xt.grad, want[3])
    else:
        assert xt.grad is None
    np.testing.assert_array_equal(x, xt.data)  # the input is never normalized in place


# ------------------------------------------------------------ residual units

def test_residual_unit_with_zero_body_is_relu_of_input():
    rng = np.random.default_rng(13)
    unit = _residual_unit(rng, cin=3, cout=3, stride=1, k=3, dtype=np.float64, transposed=False)
    assert unit.shortcut is None  # identity shortcut when shape is preserved
    unit.conv2.kernel.data[:] = 0.0
    unit.conv2.bias.data[:] = 0.0
    x = Tensor(rng.normal(size=(2, 4, 4, 3)))
    out = unit.forward(x, train=True)
    assert np.array_equal(out.data, np.maximum(x.data, 0.0))


def test_transposed_unit_with_zero_body_is_relu_of_input():
    rng = np.random.default_rng(14)
    unit = _residual_unit(rng, cin=3, cout=3, stride=1, k=3, dtype=np.float64, transposed=True)
    unit.conv2.kernel.data[:] = 0.0
    unit.conv2.bias.data[:] = 0.0
    x = Tensor(rng.normal(size=(2, 4, 4, 3)))
    out = unit.forward(x, train=True)
    assert np.array_equal(out.data, np.maximum(x.data, 0.0))


def test_residual_unit_strided_shape():
    rng = np.random.default_rng(15)
    unit = _residual_unit(rng, cin=32, cout=64, stride=2, k=3, dtype=np.float64, transposed=False)
    x = Tensor(rng.normal(size=(1, 80, 120, 32)))
    assert unit.forward(x, train=True).shape == (1, 40, 60, 64)


def test_transposed_unit_strided_shape():
    rng = np.random.default_rng(16)
    unit = _residual_unit(rng, cin=64, cout=32, stride=2, k=3, dtype=np.float64, transposed=True)
    x = Tensor(rng.normal(size=(1, 40, 60, 64)))
    assert unit.forward(x, train=True).shape == (1, 80, 120, 32)


def test_strided_unit_pair_restores_even_extent():
    rng = np.random.default_rng(17)
    down = _residual_unit(rng, 2, 5, 2, 3, np.float64, transposed=False)
    up = _residual_unit(rng, 5, 2, 2, 3, np.float64, transposed=True)
    for h, w in [(6, 10), (14, 22), (80, 120)]:
        x = Tensor(rng.normal(size=(1, h, w, 2)))
        y = up.forward(down.forward(x, True), True)
        assert y.shape == (1, h, w, 2)


def test_residual_unit_matches_manual_composition():
    rng = np.random.default_rng(18)
    unit = _residual_unit(rng, cin=2, cout=4, stride=2, k=3, dtype=np.float64, transposed=False)
    x = Tensor(rng.normal(size=(1, 4, 4, 2)))
    got = unit.forward(x, train=True).data

    # same parameters pushed through free-standing ops
    rm1, rv1 = np.zeros(4), np.ones(4)
    rm2, rv2 = np.zeros(4), np.ones(4)
    f = conv2d(x, unit.conv1.kernel, unit.conv1.bias, stride=2)
    f = batch_norm(f, unit.bn1.gamma, unit.bn1.beta, rm1, rv1)
    f = relu(f)
    f = conv2d(f, unit.conv2.kernel, unit.conv2.bias, stride=1)
    f = batch_norm(f, unit.bn2.gamma, unit.bn2.beta, rm2, rv2)
    h = conv2d(x, unit.shortcut.kernel, unit.shortcut.bias, stride=2)
    want = relu(add(h, f)).data
    np.testing.assert_array_equal(got, want)


def _owner(a):
    while a.base is not None:
        a = a.base
    return a


def test_recorded_unit_forward_frees_outputs_no_backward_rule_reads(monkeypatch):
    # the tape keeps gradient slots, not output arrays: with the tape still
    # open, every part's output dies once the forward is done with it
    rng = np.random.default_rng(20)
    unit = _residual_unit(rng, cin=2, cout=4, stride=2, k=3, dtype=np.float64, transposed=False)
    assert unit.shortcut is not None
    alive = {}

    def watched(name, fn):
        def forward(*args):
            out = fn(*args)
            alive[name] = weakref.ref(_owner(out.data))
            return out
        return forward

    for name in ("conv1", "bn1", "conv2", "bn2", "shortcut"):
        part = getattr(unit, name)
        part.forward = watched(name, part.forward)
    monkeypatch.setattr(layers_mod, "add", watched("add", layers_mod.add))
    x = Tensor(rng.normal(size=(2, 6, 6, 2)))
    with recording() as tape:
        y = unit.forward(x, train=True)
        assert len(tape) == 8 and len(alive) == 6
        assert [name for name, ref in alive.items() if ref() is not None] == []
        loss = tensor_sum(y)
    backward(loss, tape)  # the rules still have all they read
    assert tape.records == []
    for name, t, _ in unit.parameters():
        assert t.grad is not None and t.grad.shape == t.shape and np.isfinite(t.grad).all(), name


def test_recorded_forward_keeps_no_bool_mask():
    # relu's rule reads its output, or remakes its input off a batch norm's xhat
    spec = scale_widths(preset("danet-fcn2"), 0.1)
    model = build_model(spec, seed=4, dtype=np.float32)
    x = Tensor(np.random.default_rng(4).normal(size=(2, 16, 24, 1)).astype(np.float32))
    with recording() as tape:
        model.forward(x, train=True)
    kept = [cell.cell_contents for rec in tape.records for cell in rec.backward_fn.__closure__ or ()]
    arrays = [v.data if isinstance(v, Tensor) else v for v in kept]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert arrays and all(a.dtype != np.bool_ for a in arrays)


def _kept_conv(conv, x):
    return (conv2d_transposed if conv.transposed else conv2d)(x, conv.kernel, conv.bias, conv.stride)


def _kept_bn(bn, f):
    """Train batch norm whose output cannot be remade, so relu and the next
    conv keep the arrays the forward made."""
    y = batch_norm(f, bn.gamma, bn.beta, bn.running_mean.copy(), bn.running_var.copy(), bn.eps, bn.momentum)
    y.rebuild = None
    return y


def _kept_block(block, x):
    if not hasattr(block, "conv1"):
        return relu(_kept_bn(block.bn, _kept_conv(block.conv, x)))
    f = relu(_kept_bn(block.bn1, _kept_conv(block.conv1, x)))
    f = _kept_bn(block.bn2, _kept_conv(block.conv2, f))
    h = x if block.shortcut is None else _kept_conv(block.shortcut, x)
    return relu(add(h, f))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind, stride, channels", [
    ("ru", 1, 4), ("ru", 2, 5), ("tru", 1, 4), ("tru", 2, 5), ("conv", 2, 5), ("tconv", 2, 5),
])
def test_blocks_match_the_primitives_with_every_array_kept_bitwise(kind, stride, channels, dtype):
    # the blocks' rules remake each BN-ReLU conv input off its batch norm's xhat;
    # composed from the primitives with every array kept, the numbers are the same
    rng = np.random.default_rng(23)
    stem = _block(_xavier(rng, dtype), LayerSpec("conv", 3, 1, 4), 1, 1e-5, 0.9)
    block = _block(_xavier(rng, dtype), LayerSpec(kind, 3, stride, channels), 4, 1e-5, 0.9)
    assert kind not in ("ru", "tru") or (block.shortcut is None) == (stride == 1)
    for _, t, _ in stem.parameters() + block.parameters():
        if t.data.ndim == 1:  # biases, gamma and beta, so the ReLU masks are not the all-positive ones
            t.data[...] = rng.normal(size=t.shape)
    x = Tensor(rng.normal(size=(2, 6, 8, 1)).astype(dtype), requires_grad=True)
    params = [("x", x)] + [(n, t) for n, t, _ in stem.parameters() + block.parameters()]

    def run(forward):
        for _, t in params:
            t.zero_grad()
        with recording() as tape:
            y = forward(x)
            labels = np.random.default_rng(24).integers(0, channels, size=y.shape[:3])
            loss = softmax_cross_entropy(y, labels)
        backward(loss, tape)
        return [loss.data] + [t.grad for _, t in params]

    def blocks(x):
        f = stem.forward(x, True)
        assert f.rebuild is not None  # the block's convs remake their input
        return block.forward(f, True)

    got = run(blocks)
    want = run(lambda x: _kept_block(block, _kept_block(stem, x)))
    assert len(got) == len(want) == len(params) + 1
    for (name, _), a, b in zip([("loss", None)] + params, got, want):
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("transposed", [False, True])
def test_unit_grad_check_wrt_input(transposed):
    rng = np.random.default_rng(19)
    unit = _residual_unit(rng, 2, 3, 2, 3, np.float64, transposed=transposed)
    x = rng.normal(size=(2, 4, 4, 2))
    err = grad_check(lambda t: tensor_sum(unit.forward(t, train=True)), Tensor(x))
    assert err < 1e-4


# ------------------------------------------------------- softmax cross entropy

def test_uniform_logits_loss_is_log_num_classes():
    logits = Tensor(np.zeros((1, 2, 2, 7)))
    labels = np.zeros((1, 2, 2), dtype=np.uint8)
    loss = softmax_cross_entropy(logits, labels)
    np.testing.assert_allclose(loss.data.item(), np.log(7.0), rtol=1e-12)


def test_saturated_logits_loss_is_near_zero():
    logits = np.zeros((1, 1, 2, 3))
    labels = np.array([[[0, 2]]], dtype=np.uint8)
    logits[0, 0, 0, 0] = 1000.0
    logits[0, 0, 1, 2] = 1000.0
    loss = softmax_cross_entropy(Tensor(logits), labels)
    assert loss.data.item() < 1e-12


def test_out_of_range_label_reports_value_and_position():
    logits = Tensor(np.zeros((1, 2, 2, 3)))
    labels = np.array([[[0, 1], [5, 2]]], dtype=np.uint8)
    with pytest.raises(LabelError, match=r"5.*\(0, 1, 0\)"):
        softmax_cross_entropy(logits, labels)


def test_labels_shape_mismatch():
    with pytest.raises(DimensionError):
        softmax_cross_entropy(Tensor(np.zeros((1, 2, 2, 3))), np.zeros((1, 2, 3), dtype=np.uint8))


def test_cross_entropy_grad_matches_finite_differences():
    rng = np.random.default_rng(20)
    logits = rng.normal(size=(2, 3, 3, 5))
    labels = rng.integers(0, 5, size=(2, 3, 3)).astype(np.uint8)
    err = grad_check(lambda t: softmax_cross_entropy(t, labels), Tensor(logits))
    assert err < 1e-4


def test_cross_entropy_grad_sums_to_zero_over_classes():
    rng = np.random.default_rng(21)
    logits = Tensor(rng.normal(size=(2, 4, 4, 7)), requires_grad=True)
    labels = rng.integers(0, 7, size=(2, 4, 4)).astype(np.uint8)
    with recording() as tape:
        loss = softmax_cross_entropy(logits, labels)
    backward(loss, tape)
    per_pixel = logits.grad.sum(axis=3)
    assert np.abs(per_pixel).max() < 1e-12


def test_layer_forward_determinism():
    rng = np.random.default_rng(22)
    unit = _residual_unit(rng, 2, 4, 2, 3, np.float64, transposed=False)
    x = Tensor(rng.normal(size=(1, 8, 8, 2)))
    a = unit.forward(x, train=False).data
    b = unit.forward(x, train=False).data
    assert np.array_equal(a, b)


# every block kind: c/tc, ru/tru, identity and projection shortcuts, the classifier
EVERY_BLOCK_KIND = "c3 s2 8\nru 8\nru s2 12\ntru s2 8\ntru 8\ntc3 s2 6\nout 5"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["danet-fcn", "danet-fcn2", "danet-fcn3", "every block kind"])
def test_untaped_eval_forward_matches_the_taped_one_bitwise(name, dtype):
    # with no tape the blocks normalize, add and rectify in their conv outputs
    spec = parse_topology(EVERY_BLOCK_KIND) if name == "every block kind" else scale_widths(preset(name), 0.1)
    model = build_model(spec, seed=6, dtype=dtype)
    rng = np.random.default_rng(6)
    for _, t, _ in model.parameters():
        if t.data.ndim == 1:  # biases, gamma and beta
            t.data[...] = rng.normal(size=t.shape)
    for n, buf in model.buffers():
        buf[...] = rng.normal(size=buf.shape) if n.endswith("mean") else rng.uniform(0.5, 2.0, size=buf.shape)
    x = rng.normal(size=(2, 16, 24, 1)).astype(dtype)
    state = [a.copy() for a in [x] + [t.data for _, t, _ in model.parameters()] + [b for _, b in model.buffers()]]

    y = Tensor(x)
    for block in model.blocks:  # none writes into its input, which an identity shortcut reads
        block_input = y.data.copy()
        y, seen = block.forward(y, train=False), y
        assert seen.data.tobytes() == block_input.tobytes()
    untaped = y.data
    with recording() as tape:
        taped = model.forward(Tensor(x), train=False).data
        assert len(tape) > 0
    assert untaped.dtype == taped.dtype == dtype
    assert untaped.tobytes() == taped.tobytes()
    after = [x] + [t.data for _, t, _ in model.parameters()] + [b for _, b in model.buffers()]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(state, after))


def test_eval_batch_norm_relu_and_add_leave_their_inputs_unchanged():
    rng = np.random.default_rng(7)
    x, h = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 4, 5))
    gamma, beta, mean, var = rng.normal(size=5), rng.normal(size=5), rng.normal(size=5), rng.uniform(0.5, 2.0, 5)
    arrays = [x, h, gamma, beta, mean, var]
    before = [a.copy() for a in arrays]
    outs = [batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), mean, var, train=False),
            relu(Tensor(x)), add(Tensor(h), Tensor(x))]
    for a, b in zip(arrays, before):
        np.testing.assert_array_equal(a, b)
    assert not any(np.shares_memory(out.data, a) for out in outs for a in (x, h))
