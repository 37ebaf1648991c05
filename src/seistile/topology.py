"""Topology description language, shape walking, and analytic counters.

A topology is a newline-separated list of layer tokens:

    c<k>  [s<s>] <n>   convolution, kernel k x k, stride s (default 1), n filters
    tc<k> [s<s>] <n>   transposed convolution
    ru    [s<s>] <n>   residual unit (two 3x3 convs + shortcut)
    tru   [s<s>] <n>   transposed residual unit
    out   <n>          1x1 classifier convolution producing n logits

``#`` starts a comment. Downsampling strides (c, ru) must cancel against
upsampling strides (tc, tru) so the network returns to input resolution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, TopologyError

__all__ = [
    "LayerSpec",
    "TopologySpec",
    "parse_topology",
    "render_topology",
    "forward_shape",
    "count_parameters",
    "count_running_stats",
    "count_operations",
    "preset",
    "preset_names",
    "scale_widths",
]

DOWN_KINDS = ("conv", "ru")
UP_KINDS = ("tconv", "tru")


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv | tconv | ru | tru | classifier
    kernel: int
    stride: int
    channels: int

    def __post_init__(self):
        if self.kind not in ("conv", "tconv", "ru", "tru", "classifier"):
            raise TopologyError(f"unknown layer kind {self.kind!r}")
        if self.kernel < 1:
            raise TopologyError("kernel must be >= 1")
        if self.stride not in (1, 2):
            raise TopologyError("stride must be 1 or 2")
        if self.channels < 1:
            raise TopologyError("channels must be >= 1")


@dataclass(frozen=True)
class TopologySpec:
    name: str
    layers: tuple[LayerSpec, ...]
    input_channels: int = 1

    @property
    def num_classes(self) -> int:
        return self.layers[-1].channels


_LINE_RE = re.compile(
    r"^(?:(?P<kind>c|tc)(?P<kernel>\d+)|(?P<unit>ru|tru|out))"
    r"(?:\s+s(?P<stride>\d+))?"
    r"\s+(?P<channels>\d+)$"
)

_KIND_MAP = {"c": "conv", "tc": "tconv", "ru": "ru", "tru": "tru", "out": "classifier"}


def parse_topology(text: str, name: str = "custom", input_channels: int = 1) -> TopologySpec:
    """Parse DSL text into a validated TopologySpec."""
    layers: list[LayerSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ParseError(f"line {lineno}: cannot parse {raw.strip()!r}")
        kind = _KIND_MAP[m.group("kind") or m.group("unit")]
        stride = int(m.group("stride") or 1)
        if kind == "classifier":
            if m.group("stride") is not None:
                raise ParseError(f"line {lineno}: 'out' takes no stride")
            kernel = 1
        elif kind in ("ru", "tru"):
            kernel = 3
        else:
            kernel = int(m.group("kernel"))
        try:
            layers.append(LayerSpec(kind, kernel, stride, int(m.group("channels"))))
        except TopologyError as e:
            raise ParseError(f"line {lineno}: {e}") from None

    if not layers:
        raise ParseError("empty topology")
    spec = TopologySpec(name=name, layers=tuple(layers), input_channels=input_channels)
    _validate(spec)
    return spec


def _validate(spec: TopologySpec) -> None:
    # fragments (no classifier) are legal building blocks; the cancellation
    # invariant binds once the topology is a complete network
    if spec.layers[-1].kind != "classifier":
        return
    down = up = 1
    for layer in spec.layers:
        if layer.kind in DOWN_KINDS:
            down *= layer.stride
        elif layer.kind in UP_KINDS:
            up *= layer.stride
    if down != up:
        raise TopologyError(
            f"{spec.name}: downsampling x{down} does not cancel upsampling x{up}"
        )


def render_topology(spec: TopologySpec) -> str:
    """Inverse of parse_topology (up to comments/whitespace)."""
    lines = []
    for layer in spec.layers:
        if layer.kind == "classifier":
            lines.append(f"out {layer.channels}")
            continue
        head = {"conv": f"c{layer.kernel}", "tconv": f"tc{layer.kernel}", "ru": "ru", "tru": "tru"}[layer.kind]
        s = f" s{layer.stride}" if layer.stride != 1 else ""
        lines.append(f"{head}{s} {layer.channels}")
    return "\n".join(lines) + "\n"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def forward_shape(spec: TopologySpec, h: int, w: int) -> tuple[int, int, int]:
    """(H, W, C) produced by running the topology on an H x W input."""
    c = spec.input_channels
    for layer in spec.layers:
        if layer.kind in DOWN_KINDS or layer.kind == "classifier":
            h, w = _ceil_div(h, layer.stride), _ceil_div(w, layer.stride)
        else:
            h, w = h * layer.stride, w * layer.stride
        c = layer.channels
    return h, w, c


def _conv_params(k: int, cin: int, cout: int) -> int:
    return k * k * cin * cout + cout


def _layer_param_counts(spec: TopologySpec):
    """Yield (layer, learnable, running) triples walking the channel chain."""
    cin = spec.input_channels
    for layer in spec.layers:
        n = layer.channels
        if layer.kind in ("conv", "tconv"):
            learnable = _conv_params(layer.kernel, cin, n) + 2 * n
            running = 2 * n
        elif layer.kind in ("ru", "tru"):
            learnable = _conv_params(layer.kernel, cin, n) + _conv_params(layer.kernel, n, n) + 4 * n
            running = 4 * n
            if layer.stride != 1 or cin != n:
                learnable += _conv_params(1, cin, n)
        else:  # classifier: bare 1x1 conv
            learnable = _conv_params(1, cin, n)
            running = 0
        yield layer, learnable, running
        cin = n


def count_parameters(spec: TopologySpec) -> int:
    """Exact number of learnable parameters (kernels, biases, BN gamma/beta)."""
    return sum(learnable for _, learnable, _ in _layer_param_counts(spec))


def count_running_stats(spec: TopologySpec) -> int:
    """Non-learnable batch-norm running mean/var element count."""
    return sum(running for _, _, running in _layer_param_counts(spec))


# The published budgets count one op per multiply-accumulate.
TABLE_OPS_PER_MAC = 1


def count_operations(spec: TopologySpec, input_h: int, input_w: int,
                     ops_per_mac: int = TABLE_OPS_PER_MAC) -> int:
    """Analytic forward op count on an input_h x input_w single-channel image.

    A convolution contributes ops_per_mac * Kh*Kw*Cin*Cout multiply-accumulates
    evaluated on the coarse side of its geometry (output for conv, input for
    transposed conv); bias adds, batch-norm, ReLU and residual additions count
    one op per output element.
    """
    total = 0
    h, w, cin = input_h, input_w, spec.input_channels
    for layer in spec.layers:
        n, k, s = layer.channels, layer.kernel, layer.stride
        if layer.kind == "conv":
            ho, wo = _ceil_div(h, s), _ceil_div(w, s)
            total += ops_per_mac * k * k * cin * n * ho * wo  # MACs
            total += 3 * ho * wo * n  # bias + BN + ReLU
        elif layer.kind == "tconv":
            ho, wo = h * s, w * s
            total += ops_per_mac * k * k * cin * n * h * w
            total += 3 * ho * wo * n
        elif layer.kind == "ru":
            ho, wo = _ceil_div(h, s), _ceil_div(w, s)
            total += ops_per_mac * k * k * cin * n * ho * wo  # conv1
            total += ops_per_mac * k * k * n * n * ho * wo  # conv2
            if s != 1 or cin != n:
                total += ops_per_mac * cin * n * ho * wo  # 1x1 projection
                total += ho * wo * n  # projection bias
            total += 8 * ho * wo * n  # 2 biases, 2 BN, 2 ReLU, add, final ReLU
        elif layer.kind == "tru":
            ho, wo = h * s, w * s
            total += ops_per_mac * k * k * cin * n * h * w  # tconv1 (coarse side)
            total += ops_per_mac * k * k * n * n * ho * wo  # tconv2, stride 1
            if s != 1 or cin != n:
                total += ops_per_mac * cin * n * h * w
                total += ho * wo * n
            total += 8 * ho * wo * n
        else:  # classifier
            ho, wo = h, w
            total += ops_per_mac * cin * n * ho * wo + ho * wo * n
        h, w, cin = ho, wo, n
    return total


def scale_widths(spec: TopologySpec, factor: float, name: str | None = None, minimum: int = 4) -> TopologySpec:
    """Return a copy with every channel count scaled by ``factor``.

    The classifier width is preserved. Useful for desk-scale variants of the
    presets.
    """
    layers = []
    for layer in spec.layers:
        if layer.kind == "classifier":
            layers.append(layer)
        else:
            n = max(minimum, int(round(layer.channels * factor)))
            layers.append(LayerSpec(layer.kind, layer.kernel, layer.stride, n))
    return TopologySpec(name=name or f"{spec.name}-x{factor:g}", layers=tuple(layers),
                        input_channels=spec.input_channels)


# --------------------------------------------------------------------------
# Presets. Channel plans are data, calibrated so the analytic counters land
# on the published parameter/operation budgets (ops_per_mac=1); the tests
# pin those budgets, so edit with care. Total stride is 8 in every preset:
# deeper stacks could not restore a 120-wide input exactly.

PRESET_TEXTS: dict[str, str] = {
    # plain strided conv encoder mirrored by a transposed conv decoder
    "danet-fcn": """
c5 s2 128
c3 128
c3 128
c3 s2 224
c3 224
c3 s2 320
c3 320
tc3 s2 224
tc3 224
tc3 s2 128
tc3 128
tc3 128
tc5 s2 80
out 7
""",
    # residual encoder mirrored by a transposed residual decoder
    "danet-fcn2": """
c5 s2 96
ru s2 128
ru 128
ru s2 640
tru s2 128
tru 128
tru s2 96
tc5 s2 32
out 7
""",
    # same mirror scheme as danet-fcn2 with more units and wider stages
    "danet-fcn3": """
c5 s2 64
ru s2 384
ru 384
ru s2 1472
tru s2 384
tru 384
tru s2 96
tc5 s2 64
out 7
""",
}


def preset_names() -> list[str]:
    return sorted(PRESET_TEXTS)


def preset(name: str) -> TopologySpec:
    try:
        text = PRESET_TEXTS[name]
    except KeyError:
        raise TopologyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}") from None
    return parse_topology(text, name=name)
