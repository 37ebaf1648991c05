"""Topology description language, shape walking, and analytic counters.

A topology is a newline-separated list of layer tokens:

    c<k>  [s<s>] <n>   convolution, kernel k x k, stride s (default 1), n filters
    tc<k> [s<s>] <n>   transposed convolution
    ru    [s<s>] <n>   residual unit (two 3x3 convs + shortcut)
    tru   [s<s>] <n>   transposed residual unit
    out   <n>          1x1 classifier convolution producing n logits

``#`` starts a comment. Each kind but the classifier is a direction crossed
with a unit: down (c, ru) or up (tc, tru), plain (c, tc) or residual (ru,
tru); the transposed residual unit is the residual unit with every
convolution transposed. Downsampling strides must cancel against upsampling
strides so the network returns to input resolution.

:func:`layer_convs` is the one description of which convolutions a layer
holds, and :func:`layer_walk` the one loop that threads each layer's input
channels and output size through a topology; ``forward_shape``, the
parameter and operation counters and ``network.build_model`` all read them.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass

from .errors import ConfigError, ParseError, TopologyError
from .layers import conv_out_size

__all__ = [
    "LayerSpec",
    "TopologySpec",
    "layer_convs",
    "layer_walk",
    "parse_topology",
    "render_topology",
    "forward_shape",
    "check_tile",
    "count_parameters",
    "count_running_stats",
    "count_operations",
    "preset",
    "preset_names",
    "scale_widths",
]

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

    @property
    def transposed(self) -> bool:
        return self.kind in ("tconv", "tru")

    @property
    def residual(self) -> bool:
        return self.kind in ("ru", "tru")


@dataclass(frozen=True)
class TopologySpec:
    name: str
    layers: tuple[LayerSpec, ...]
    # not a field: the input is one amplitude channel. bench/spans.py still
    # passes the count to the constructor and reads it back, so it stays as 1.
    input_channels: InitVar[int] = 1

    @property
    def num_classes(self) -> int:
        return self.layers[-1].channels


_LINE_RE = re.compile(
    r"^(?:(?P<kind>c|tc)(?P<kernel>\d+)|(?P<unit>ru|tru|out))"
    r"(?:\s+s(?P<stride>\d+))?"
    r"\s+(?P<channels>\d+)$"
)

# the DSL token of each kind; plain convolutions write their kernel size into it
_TOKENS = {"conv": "c{kernel}", "tconv": "tc{kernel}", "ru": "ru", "tru": "tru", "classifier": "out"}
_KINDS = {token.replace("{kernel}", ""): kind for kind, token in _TOKENS.items()}


def parse_topology(text: str, name: str = "custom") -> TopologySpec:
    """Parse DSL text into a validated TopologySpec."""
    layers: list[LayerSpec] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            raise ParseError(f"line {lineno}: cannot parse {raw.strip()!r}")
        kind = _KINDS[m.group("kind") or m.group("unit")]
        stride = int(m.group("stride") or 1)
        if kind == "classifier" and m.group("stride") is not None:
            raise ParseError(f"line {lineno}: 'out' takes no stride")
        kernel = int(m.group("kernel") or (1 if kind == "classifier" else 3))
        try:
            layers.append(LayerSpec(kind, kernel, stride, int(m.group("channels"))))
        except TopologyError as e:
            raise ParseError(f"line {lineno}: {e}") from None

    if not layers:
        raise ParseError("empty topology")
    spec = TopologySpec(name=name, layers=tuple(layers))
    _validate(spec)
    return spec


def _validate(spec: TopologySpec) -> None:
    # fragments (no classifier) are legal building blocks; the cancellation
    # invariant binds once the topology is a complete network
    if spec.layers[-1].kind != "classifier":
        return
    down = up = 1
    for layer in spec.layers:
        if layer.transposed:
            up *= layer.stride
        else:
            down *= layer.stride
    if down != up:
        raise TopologyError(
            f"{spec.name}: downsampling x{down} does not cancel upsampling x{up}"
        )


def render_topology(spec: TopologySpec) -> str:
    """Inverse of parse_topology (up to comments/whitespace)."""
    lines = []
    for layer in spec.layers:
        head = _TOKENS[layer.kind].format(kernel=layer.kernel)
        s = f" s{layer.stride}" if layer.stride != 1 else ""
        lines.append(f"{head}{s} {layer.channels}")
    return "\n".join(lines) + "\n"


def layer_walk(spec: TopologySpec, h: int = 1, w: int = 1):
    """(layer, cin, h, w) per layer: its input channels and its output size on an h x w input."""
    for layer, cin in zip(spec.layers, (1, *(prev.channels for prev in spec.layers))):  # 1 amplitude channel in
        s = layer.stride
        h, w = (h * s, w * s) if layer.transposed else (conv_out_size(h, s), conv_out_size(w, s))
        yield layer, cin, h, w


def forward_shape(spec: TopologySpec, h: int, w: int) -> tuple[int, int, int]:
    """(H, W, C) produced by running the topology on an H x W input."""
    c = 1
    for layer, _, h, w in layer_walk(spec, h, w):
        c = layer.channels
    return h, w, c


def check_tile(spec: TopologySpec, tile_h: int, tile_w: int, section: str) -> None:
    """Raise ConfigError naming ``<section>.tile_h`` or ``<section>.tile_w``
    unless the topology returns a tile_h x tile_w input at that size, as a
    tile's mask must be to fit back into its slice. Every preset has total
    stride 8, so there each tile side must be a multiple of 8."""
    for key, size in (("tile_h", tile_h), ("tile_w", tile_w)):
        if size < 1:
            raise ConfigError(f"{section}.{key}={size}: a tile side must be >= 1")
    out_h, out_w, _ = forward_shape(spec, tile_h, tile_w)
    for key, size, out in (("tile_h", tile_h, out_h), ("tile_w", tile_w, out_w)):
        if out != size:
            raise ConfigError(f"{section}.{key}={size}: {spec.name} turns a {tile_h}x{tile_w} tile into "
                              f"{out_h}x{out_w}; each tile side must survive the topology unchanged")


def layer_convs(layer: LayerSpec, cin: int) -> list[tuple[int, int, int, int, bool]]:
    """(kernel, cin, cout, stride, batch-normed) of each convolution in a layer.

    The order is construction order: conv1, then for a residual unit conv2
    and the 1x1 projection shortcut, which a unit that changes neither
    resolution nor channel count replaces with the identity. The classifier
    is one bare 1x1 convolution.
    """
    n, k, s = layer.channels, layer.kernel, layer.stride
    if layer.kind == "classifier":
        return [(1, cin, n, 1, False)]
    convs = [(k, cin, n, s, True)]
    if layer.residual:
        convs.append((k, n, n, 1, True))
        if s != 1 or cin != n:
            convs.append((1, cin, n, s, False))
    return convs


def _convs(spec: TopologySpec):
    return (conv for layer, cin, _, _ in layer_walk(spec) for conv in layer_convs(layer, cin))


def count_parameters(spec: TopologySpec) -> int:
    """Exact number of learnable parameters (kernels, biases, BN gamma/beta)."""
    return sum(k * k * a * b + b + 2 * b * bn for k, a, b, _, bn in _convs(spec))


def count_running_stats(spec: TopologySpec) -> int:
    """Non-learnable batch-norm running mean/var element count."""
    return sum(2 * b * bn for _, _, b, _, bn in _convs(spec))


# The published budgets count one op per multiply-accumulate.
TABLE_OPS_PER_MAC = 1


def count_operations(spec: TopologySpec, input_h: int, input_w: int,
                     ops_per_mac: int = TABLE_OPS_PER_MAC) -> int:
    """Analytic forward op count on an input_h x input_w single-channel image.

    A convolution contributes ops_per_mac * Kh*Kw*Cin*Cout multiply-accumulates
    evaluated on the coarse side of its geometry (output for conv, input for
    transposed conv). Per output element, a batch-normed convolution adds 3
    ops (bias, BN, ReLU), a bare one 1 (bias) and a residual unit 2 more
    (the addition and the final ReLU).
    """
    total = 0
    for layer, cin, h, w in layer_walk(spec, input_h, input_w):
        for k, a, b, s, bn in layer_convs(layer, cin):
            coarse = h * w // (s * s) if layer.transposed else h * w
            total += ops_per_mac * k * k * a * b * coarse + (3 if bn else 1) * h * w * b
        if layer.residual:
            total += 2 * h * w * layer.channels
    return total


def scale_widths(spec: TopologySpec, factor: float, name: str | None = None) -> TopologySpec:
    """Return a copy with every channel count scaled by ``factor`` (4 at least).

    The classifier width is preserved. Useful for desk-scale variants of the
    presets.
    """
    layers = []
    for layer in spec.layers:
        if layer.kind == "classifier":
            layers.append(layer)
        else:
            n = max(4, int(round(layer.channels * factor)))
            layers.append(LayerSpec(layer.kind, layer.kernel, layer.stride, n))
    return TopologySpec(name=name or f"{spec.name}-x{factor:g}", layers=tuple(layers))


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
