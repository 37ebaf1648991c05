"""Model construction: Xavier initialization and topology instantiation."""

from __future__ import annotations

import numpy as np

from . import layers as L
from .errors import ContractError
from .tensor import Tensor, relu  # noqa: F401 (unused here; bench/spans.py patches network.relu)
from .topology import LayerSpec, TopologySpec, layer_convs, render_topology

__all__ = ["xavier_init", "Model", "build_model"]


# float64 values drawn per call: a kernel is filled in its own dtype, so no float64 copy of it exists
_DRAW_CHUNK = 1 << 16


def xavier_init(shape, seed_or_rng, dtype=np.float64) -> Tensor:
    """Uniform Xavier draw for a rank-4 kernel, stored in ``dtype``.

    Bound L = sqrt(6 / (fan_in + fan_out)) with fan_in = Kh*Kw*Cin and
    fan_out = Kh*Kw*Cout. Values are drawn in float64 so a given seed yields
    the same numbers regardless of the model's storage dtype; each chunk of
    _DRAW_CHUNK is cast into the kernel as it is drawn, and
    ``Generator.uniform`` continues one stream whatever the chunk sizes.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 4:
        raise ContractError(f"xavier_init expects a rank-4 kernel shape, got {shape}")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    kh, kw, a, b = shape
    limit = np.sqrt(6.0 / (kh * kw * a + kh * kw * b))
    kernel = np.empty(shape, dtype)
    flat = kernel.reshape(-1)
    for lo in range(0, flat.size, _DRAW_CHUNK):
        part = flat[lo : lo + _DRAW_CHUNK]
        part[...] = rng.uniform(-limit, limit, size=part.size)
    return Tensor(kernel, requires_grad=True)


def _xavier(rng, dtype):
    """The array source of a fresh model: Xavier kernels from ``rng``, the walk's ``fill`` for the rest."""
    return lambda kind, shape, fill: xavier_init(shape, rng, dtype).data if fill is None else fill(shape, dtype)


def _block(source, layer: LayerSpec, cin: int, bn_eps: float, bn_momentum: float):
    """The block of one topology layer, its arrays taken from ``source(kind, shape, fill)`` in
    layer_convs order, which is DNCKPT1's: per conv the kernel (``fill`` None) and bias, then
    for a batch-normed one gamma, beta and the "running" running_mean and running_var."""
    def param(shape, fill):
        return Tensor(source("param", shape, fill), requires_grad=True)
    parts = []
    for k, a, b, s, bn in layer_convs(layer, cin):
        # transposed kernels store [Kh, Kw, Cout, Cin]
        conv = L.Conv2D(param((k, k, b, a) if layer.transposed else (k, k, a, b), None),
                        param((b,), np.zeros), s, layer.transposed)
        norm = L.BatchNorm2D(param((b,), np.ones), param((b,), np.zeros), source("running", (b,), np.zeros),
                             source("running", (b,), np.ones), bn_eps, bn_momentum) if bn else None
        parts.append((conv, norm))
    if layer.residual:
        (conv1, bn1), (conv2, bn2), *projection = parts
        shortcut = projection[0][0] if projection else None
        return L.ResidualUnit(conv1, bn1, conv2, bn2, shortcut)
    return _ConvBlock(*parts[0])


def _residual_unit(rng, cin, cout, stride, k, dtype, transposed: bool,
                   bn_eps: float = 1e-5, bn_momentum: float = 0.997):
    layer = LayerSpec("tru" if transposed else "ru", k, stride, cout)
    return _block(_xavier(rng, dtype), layer, cin, bn_eps, bn_momentum)


class _ConvBlock(L.Container):
    """conv (or tconv) -> BN -> ReLU, the expansion of plain c/tc tokens; with
    no BN, the classifier's bare convolution."""

    def __init__(self, conv, bn=None):
        self.conv = conv
        self.bn = bn

    def forward(self, x, train):
        if self.bn is None:
            return self.conv.forward(x)
        return L.bn_relu(self.bn, self.conv.forward(x), train, None)

    def parts(self):
        return [("conv", self.conv), ("bn", self.bn)]


class Model(L.Container):
    """A sequential stack instantiated from a TopologySpec with the arrays ``source`` hands over (see ``_block``)."""

    def __init__(self, spec: TopologySpec, source, dtype, bn_eps: float = 1e-5, bn_momentum: float = 0.997):
        self.spec = spec
        self.dtype = dtype
        self.blocks = []
        cin = 1  # one amplitude channel
        for layer in spec.layers:
            self.blocks.append(_block(source, layer, cin, bn_eps, bn_momentum))
            cin = layer.channels

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        for block in self.blocks:
            x = block.forward(x, train)
        return x

    def parts(self):
        return [(f"layer{i}", block) for i, block in enumerate(self.blocks)]

    def zero_grads(self) -> None:
        for _, t, _ in self.parameters():
            t.zero_grad()

    def topology_text(self) -> str:
        return render_topology(self.spec)


def build_model(spec: TopologySpec, seed: int, dtype=np.float64,
                bn_eps: float = 1e-5, bn_momentum: float = 0.997) -> Model:
    """Instantiate a topology with Xavier kernels and zero biases.

    Construction is pure in (spec, seed): the same pair always yields
    bitwise-identical parameters for a given dtype. ``bn_momentum`` is the
    running-statistics decay; the 0.997 default suits long runs, short
    desk-scale runs want a smaller value so inference statistics warm up.
    """
    dtype = np.dtype(dtype)
    return Model(spec, _xavier(np.random.default_rng(seed), dtype), dtype, bn_eps, bn_momentum)
