"""Model construction: Xavier initialization and topology instantiation."""

from __future__ import annotations

import numpy as np

from . import layers as L
from .errors import ContractError
from .tensor import Tensor, relu
from .topology import LayerSpec, TopologySpec, layer_convs, render_topology

__all__ = ["xavier_init", "Model", "build_model"]


def xavier_init(shape, seed_or_rng) -> Tensor:
    """Uniform Xavier draw for a rank-4 kernel.

    Bound L = sqrt(6 / (fan_in + fan_out)) with fan_in = Kh*Kw*Cin and
    fan_out = Kh*Kw*Cout. Values are drawn in float64 so a given seed yields
    the same numbers regardless of the model's storage dtype.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 4:
        raise ContractError(f"xavier_init expects a rank-4 kernel shape, got {shape}")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    kh, kw, a, b = shape
    limit = np.sqrt(6.0 / (kh * kw * a + kh * kw * b))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def _conv(rng, k, cin, cout, stride, dtype, transposed=False) -> L.Conv2D:
    # transposed kernels store [Kh, Kw, Cout, Cin]
    kernel = xavier_init((k, k, cout, cin) if transposed else (k, k, cin, cout), rng)
    kernel.data = kernel.data.astype(dtype)
    bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
    return L.Conv2D(kernel, bias, stride, transposed)


def _block(rng, layer: LayerSpec, cin: int, dtype, bn_eps: float, bn_momentum: float):
    """The block of one topology layer, its kernels drawn in layer_convs order."""
    parts = []
    for k, a, b, s, bn in layer_convs(layer, cin):
        conv = _conv(rng, k, a, b, s, dtype, layer.transposed)
        norm = L.BatchNorm2D(b, eps=bn_eps, momentum=bn_momentum, dtype=dtype) if bn else None
        parts.append((conv, norm))
    if layer.residual:
        (conv1, bn1), (conv2, bn2), *projection = parts
        shortcut = projection[0][0] if projection else None
        return L.ResidualUnit(conv1, bn1, conv2, bn2, shortcut, layer.stride)
    return _ConvBlock(*parts[0])


def _residual_unit(rng, cin, cout, stride, k, dtype, transposed: bool,
                   bn_eps: float = 1e-5, bn_momentum: float = 0.997):
    layer = LayerSpec("tru" if transposed else "ru", k, stride, cout)
    return _block(rng, layer, cin, dtype, bn_eps, bn_momentum)


class _ConvBlock(L.Container):
    """conv (or tconv) -> BN -> ReLU, the expansion of plain c/tc tokens; with
    no BN, the classifier's bare convolution."""

    def __init__(self, conv, bn=None):
        self.conv = conv
        self.bn = bn

    def forward(self, x, train):
        if self.bn is None:
            return self.conv.forward(x)
        return relu(self.bn.forward(self.conv.forward(x), train))

    def parts(self):
        return [("conv", self.conv), ("bn", self.bn)]


class Model(L.Container):
    """A sequential stack instantiated from a TopologySpec."""

    def __init__(self, spec: TopologySpec, blocks, dtype):
        self.spec = spec
        self.blocks = blocks
        self.dtype = dtype

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
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)
    blocks = []
    cin = 1  # one amplitude channel
    for layer in spec.layers:
        blocks.append(_block(rng, layer, cin, dtype, bn_eps, bn_momentum))
        cin = layer.channels
    return Model(spec, blocks, dtype)
