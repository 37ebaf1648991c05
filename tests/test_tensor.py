from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import seistile.tensor as tensor_mod
from seistile.errors import ContractError, DimensionError
from seistile.network import _residual_unit
from seistile.tensor import (
    Tensor,
    add,
    backward,
    grad_check,
    matmul,
    mul,
    record_op,
    recording,
    relu,
    tensor_sum,
)


def test_relu_forward():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_records_nothing_unless_a_tape_will_keep_its_rule(monkeypatch):
    x = Tensor(np.array([-1.5, 0.0, 2.0, -0.0, 3.0]), requires_grad=True)
    taped_rule = tensor_mod.record_op

    def no_rule(*args):
        raise AssertionError("relu built a backward rule that nothing records")

    monkeypatch.setattr(tensor_mod, "record_op", no_rule)
    out = relu(x)  # no tape open
    assert not out.requires_grad
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0, 0.0, 3.0])
    with recording() as tape:
        relu(Tensor(x.data))  # a tape, but no input needs a gradient
    assert len(tape) == 0

    monkeypatch.setattr(tensor_mod, "record_op", taped_rule)
    g = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    with recording() as tape:
        loss = tensor_sum(mul(relu(x), Tensor(g)))
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 3.0, 0.0, 5.0])


def test_add_forward():
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_binary_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2,\).*\(3,\)"):
        add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("op", [add, mul])
def test_a_scalar_operand_is_a_shape_mismatch(op):
    with pytest.raises(DimensionError, match=r"\(2,\) vs \(\)"):
        op(Tensor([1.0, 2.0]), 3.0)


def test_mul_backward_matches_finite_differences():
    b = Tensor([5.0])
    err = grad_check(lambda a: tensor_sum(mul(a, b)), Tensor([2.0]), step=1e-6)
    assert err < 1e-8
    a = Tensor([2.0], requires_grad=True)
    with recording() as tape:
        loss = tensor_sum(mul(a, b))
    backward(loss, tape)
    np.testing.assert_allclose(a.grad, [5.0])


def test_matmul_identity_and_small_product():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(matmul(eye, m).data, m.data)
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_backward():
    a = Tensor([[1.0, 2.0]], requires_grad=True)
    b = Tensor([[3.0], [4.0]])
    with recording() as tape:
        out = matmul(a, b)
    backward(out, tape)  # upstream [[1]]
    np.testing.assert_array_equal(a.grad, [[3.0, 4.0]])
    err = grad_check(lambda t: matmul(t, b), Tensor([[1.0, 2.0]]))
    assert err < 1e-8


def test_matmul_inner_dim_mismatch():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_backward_sum_gives_ones():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    with recording() as tape:
        loss = tensor_sum(x)
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with recording() as tape:
        loss = tensor_sum(mul(x, x))
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with recording() as tape:
        y = mul(x, x)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_backward_rejects_detached_loss():
    x = Tensor([1.0], requires_grad=True)
    with recording() as tape:
        tensor_sum(x)
    with recording():
        foreign = tensor_sum(x)  # produced, but on another tape
    for stranger in (Tensor(np.array(3.0)), foreign):
        with pytest.raises(ContractError, match="not produced on this tape"):
            backward(stranger, tape)


def test_backward_rejects_second_call():
    x = Tensor([1.0], requires_grad=True)
    with recording() as tape:
        loss = tensor_sum(x)
    backward(loss, tape)
    with pytest.raises(ContractError):
        backward(loss, tape)


def test_backward_frees_the_tape_and_sets_grad_on_leaves_only():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    with recording() as tape:
        hidden = relu(matmul(x, w))
        loss = tensor_sum(mul(hidden, hidden))
    backward(loss, tape)
    assert tape.records == []
    assert hidden.requires_grad and hidden.grad is None and loss.grad is None
    h = np.maximum(x.data @ w.data, 0.0)  # loss = sum(h*h)
    np.testing.assert_allclose(x.grad, 2.0 * h @ w.data.T, rtol=1e-12)
    np.testing.assert_allclose(w.grad, 2.0 * x.data.T @ h, rtol=1e-12)
    assert grad_check(lambda t: tensor_sum(mul(relu(matmul(t, w)), relu(matmul(t, w)))), x) < 1e-6
    with pytest.raises(ContractError, match="consumed"):
        backward(loss, tape)


def test_gradients_accumulate_linearly():
    # backward of a sum of losses == sum of the individual backwards
    rng = np.random.default_rng(7)
    for _ in range(5):
        base = rng.normal(size=4)
        a = rng.normal(size=4)
        b = rng.normal(size=4)

        x = Tensor(base, requires_grad=True)
        with recording() as tape:
            loss = add(tensor_sum(mul(x, Tensor(a))), tensor_sum(mul(x, Tensor(b))))
        backward(loss, tape)
        combined = x.grad.copy()

        separate = np.zeros(4)
        for coeff in (a, b):
            x = Tensor(base, requires_grad=True)
            with recording() as tape:
                loss = tensor_sum(mul(x, Tensor(coeff)))
            backward(loss, tape)
            separate += x.grad
        np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-15)


def test_grad_check_linear_is_exact():
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, size=6))
    assert grad_check(tensor_sum, x) < 1e-10


def test_grad_check_quadratic():
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, size=5))
    assert grad_check(lambda t: tensor_sum(mul(t, t)), x, step=1e-5) < 1e-6


def test_grad_check_rejects_vector_valued_function():
    with pytest.raises(ContractError):
        grad_check(lambda t: mul(t, t), Tensor([1.0, 2.0]))


def test_forward_determinism():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(32, 32)), rng.normal(size=(32, 32))
    first = matmul(Tensor(a), Tensor(b)).data
    second = matmul(Tensor(a), Tensor(b)).data
    assert np.array_equal(first, second)


def test_no_tape_means_no_recording():
    x = Tensor([1.0], requires_grad=True)
    y = mul(x, x)
    assert y.requires_grad is False  # nothing listening


def test_worker_thread_forward_does_not_record_on_callers_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with recording() as tape:
        relu(x)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(lambda: relu(add(x, x))).result(timeout=10)
        assert len(tape) == 1


# ------------------------------------------------------- gradient hand-offs


def _copying_accumulate(self, g):
    """The hand-off that copies every gradient: the reference for the bits."""
    if self.grad is None:
        self.grad = np.array(g, dtype=self.dtype, copy=True)
    else:
        self.grad += g


def _assert_distinct(arrays):
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def _leaf_grads(build, leaves, monkeypatch, copying):
    """Leaf gradients of the scalar ``build()``; checks before every rule
    runs that no two live slots or leaves share a gradient array."""
    with monkeypatch.context() as m:
        if copying:
            m.setattr(tensor_mod._Node, "accumulate_grad", _copying_accumulate)
            m.setattr(tensor_mod.Tensor, "accumulate_grad", _copying_accumulate)
        for t in leaves:
            t.zero_grad()
        with recording() as tape:
            loss = build()

        def checked(rule):
            def run(g):
                holders = {id(h): h for rec in tape.records for h in (rec.out, *rec.inputs)}
                holders.update((id(t), t) for t in leaves)
                _assert_distinct([h.grad for h in holders.values() if h.grad is not None] + [g])
                return rule(g)
            return run

        for rec in tape.records:
            rec.backward_fn = checked(rec.backward_fn)
        backward(loss, tape)
    grads = [t.grad for t in leaves]
    _assert_distinct(grads)
    return grads


def _thrice(a, b):
    """A rule that returns its own g three times, twice to one input."""
    return record_op(Tensor(a.data + a.data + b.data), (a, a, b), lambda g: (g, g, g))


def _minus(a, b):
    """a - b with a rule that hands its own g to one input and a fresh -g to the other."""
    return record_op(Tensor(a.data - b.data), (a, b), lambda g: (g, -g))


def _times(a, k):
    """a * k through mul, the constant k spread over a's shape."""
    return mul(a, Tensor(np.full(a.shape, k)))


@pytest.mark.parametrize("case", ["add_self", "leaf_feeds_two_ops", "sub_pass_through", "same_g_thrice"])
def test_gradient_hand_offs_match_copying_ones_and_share_no_array(monkeypatch, case):
    rng = np.random.default_rng(31)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    c = Tensor(rng.normal(size=(3, 4)))
    build = {
        "add_self": lambda: tensor_sum(mul(add(a, a), c)),
        "leaf_feeds_two_ops": lambda: tensor_sum(mul(add(relu(a), _times(a, 3.0)), c)),
        "sub_pass_through": lambda: tensor_sum(mul(_minus(_times(a, 2.0), relu(b)), c)),
        "same_g_thrice": lambda: tensor_sum(mul(relu(_thrice(a, b)), c)),
    }[case]
    got = _leaf_grads(build, [a, b], monkeypatch, copying=False)
    want = _leaf_grads(build, [a, b], monkeypatch, copying=True)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    if case == "same_g_thrice":  # d/da of relu(2a + b) is twice d/db
        np.testing.assert_array_equal(got[0], 2.0 * got[1])


def test_identity_shortcut_unit_gradients_match_copying_hand_offs(monkeypatch):
    rng = np.random.default_rng(32)
    unit = _residual_unit(rng, cin=3, cout=3, stride=1, k=3, dtype=np.float32, transposed=False)
    assert unit.shortcut is None  # the input's slot takes the sum's gradient and then the conv's
    x = Tensor(rng.normal(size=(2, 6, 5, 3)).astype(np.float32), requires_grad=True)
    c = Tensor(rng.normal(size=(2, 6, 5, 3)).astype(np.float32))
    leaves = [x] + [t for _, t, _ in unit.parameters()]
    build = lambda: tensor_sum(mul(unit.forward(x, train=True), c))  # noqa: E731
    got = _leaf_grads(build, leaves, monkeypatch, copying=False)
    want = _leaf_grads(build, leaves, monkeypatch, copying=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
