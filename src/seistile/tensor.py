"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array. Operations executed while a
:class:`Tape` is active append records (input slots, output slot, backward
rule) in execution order. A recorded output gets a small gradient slot
(``Tensor.node``) and the tape refers to that slot, never to the output's
array, so an activation lives only as long as the forward or a backward
rule that saved it uses it. A leaf, a tensor no record produced, is its own
slot. :func:`backward` replays the records in reverse and frees each one,
and the gradient it carried, as soon as its rule has run; ``grad`` is set
on leaves only, as in PyTorch's autograd.

Gradient ownership: a backward rule returns fresh arrays or its own ``g``,
which no one else holds once its slot has handed it over, and may change
``g`` in place. An empty slot takes a returned array without copying it; a
slot that already holds one adds into it. ``backward`` copies only an array
a rule returns a second time and an array of another dtype than the slot's,
so no two slots or leaves ever share a gradient array.

A rule that reads an input's array holds ``keep(t)``: the array itself, or
``t.rebuild`` where that remakes it bitwise from what an earlier record
keeps anyway. A train-mode batch norm's output is remade as
``xhat*gamma + beta`` off its record's ``xhat`` and ``relu`` passes a remake
on, so a convolution input that is ``relu(bn(f))`` lives only while the
forward uses it. Backward runs a reader's rule before the earlier record's,
so the source is intact whenever it is remade. ``relu`` keeps no mask: its
rule reads its output, or remakes its input.

Conventions: activations are N x H x W x C, kernels Kh x Kw x Cin x Cout.
There is no broadcasting.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "Tape",
    "recording",
    "active_tape",
    "add",
    "mul",
    "relu",
    "keep",
    "matmul",
    "tensor_sum",
    "backward",
    "grad_check",
]


class _Node:
    """The gradient slot of a recorded output: all that backward needs of it."""

    __slots__ = ("dtype", "grad")
    requires_grad = True

    def __init__(self, dtype):
        self.dtype = dtype
        self.grad: np.ndarray | None = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Take ``g`` into an empty slot without a copy, or add it into the held array."""
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.dtype)
        else:
            self.grad += g


class Tensor:
    """A dense n-d array that can participate in gradient recording."""

    __slots__ = ("data", "requires_grad", "grad", "node", "rebuild")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: _Node | None = None  # the slot a tape gave this output; None on a leaf
        self.rebuild = None  # remakes data from what another record keeps (see keep)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    accumulate_grad = _Node.accumulate_grad  # a leaf is its own gradient slot

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class _Record:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered log of differentiable operations.

    Records are appended in execution order, so the list is already a
    topological order of the graph. A tape can be consumed by
    :func:`backward` exactly once.
    """

    def __init__(self):
        self.records: list[_Record] = []
        self.consumed = False

    def __len__(self) -> int:
        return len(self.records)

    def record(self, out: _Node, inputs: tuple, backward_fn) -> None:
        self.records.append(_Record(out, inputs, backward_fn))

    def __enter__(self) -> "Tape":
        _OPEN_TAPES.stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _OPEN_TAPES.stack.pop()


class _OpenTapes(threading.local):
    """Tapes opened on the current thread: a forward pass on a worker thread
    never records onto (and keeps alive activations for) the caller's tape."""

    def __init__(self):
        self.stack: list[Tape] = []


_OPEN_TAPES = _OpenTapes()


def active_tape() -> Tape | None:
    stack = _OPEN_TAPES.stack
    return stack[-1] if stack else None


def recording() -> Tape:
    """Open a fresh tape; use as ``with recording() as tape:``."""
    return Tape()


def record_op(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Register a backward rule if a tape is active and any input needs grad.

    ``backward_fn(g)`` receives the upstream gradient (ndarray co-shaped
    with ``out``) and must return one ndarray-or-None per input. The tape
    keeps ``out``'s gradient slot and the inputs' slots, so whatever the
    rule reads it must capture itself.
    """
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.node = _Node(out.dtype)
        tape.record(out.node, tuple(t.node or t for t in inputs), backward_fn)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("add", a, b)
    out = Tensor(a.data + b.data)
    return record_op(out, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_same_shape("mul", a, b)
    out = Tensor(a.data * b.data)
    return record_op(out, (a, b), lambda g: (g * b.data, g * a.data))


def keep(t: Tensor):
    """What a backward rule holds to read ``t``'s array: ``t.rebuild``, or a
    call that returns the array itself."""
    if t.rebuild is not None:
        return t.rebuild
    data = t.data
    return lambda: data


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0))
    if active_tape() is None or not a.requires_grad:
        return out  # nothing will record the rule
    if a.rebuild is not None:  # a can be remade, so out can: same ops, same array
        remake_a = a.rebuild

        def rebuild():
            r = remake_a()
            return np.maximum(r, 0, out=r)

        out.rebuild = rebuild
    y = keep(a if a.rebuild is not None else out)  # y > 0 exactly where a > 0: the tape keeps no mask
    return record_op(out, (a,), lambda g: (np.multiply(g, y() > 0, out=g),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree, {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)
    return record_op(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of all elements, as a rank-0 tensor."""
    a = _as_tensor(a)
    out = Tensor(a.data.sum())
    return record_op(out, (a,), lambda g: (np.full(a.shape, g, dtype=a.data.dtype),))


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    ``loss`` must be a scalar produced on ``tape``. The tape is emptied as
    backward runs: each record, and the gradient of its output, is dropped
    once its rule has run, so a tape can only be consumed once and a
    tensor some op produced keeps ``grad`` None.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.consumed:
        raise ContractError("tape already consumed; record a fresh graph before calling backward again")
    if not any(rec.out is loss.node for rec in tape.records):  # a leaf has no node
        raise ContractError("loss was not produced on this tape (detached or foreign)")
    tape.consumed = True

    loss.node.accumulate_grad(np.ones_like(loss.data))
    records = tape.records
    while records:
        rec = records.pop()
        g, rec.out.grad = rec.out.grad, None
        if g is None:
            continue
        grads = list(rec.backward_fn(g))
        for i, gi in enumerate(grads):  # a repeated array is copied before any slot adds into it
            if gi is not None and any(gi is seen for seen in grads[:i]):
                grads[i] = gi.copy()
        for t, gi in zip(rec.inputs, grads):
            if gi is not None and t.requires_grad:
                t.accumulate_grad(gi)


def grad_check(f, x: Tensor, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor. Relative error per element is
    ``|analytic - numeric| / max(1, |analytic|)``.
    """
    if step <= 0:
        raise ContractError("step must be positive")
    x = Tensor(np.asarray(x.data, dtype=np.float64), requires_grad=True)
    with recording() as tape:
        out = f(x)
    if out.size != 1:
        raise ContractError(f"grad_check needs a scalar-valued function, got shape {out.shape}")
    backward(out, tape)
    analytic = x.grad.copy()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(Tensor(x.data)).data.item()
        flat[i] = orig - step
        lo = f(Tensor(x.data)).data.item()
        flat[i] = orig
        num_flat[i] = (hi - lo) / (2.0 * step)

    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(err.max())
