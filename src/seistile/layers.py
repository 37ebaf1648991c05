"""Network building blocks: convolution, transposed convolution, batch
normalization, residual and transposed residual units, and the pixel-wise
softmax cross-entropy loss.

Geometry follows the "half" padding scheme throughout: a stride-s
convolution maps H to ceil(H/s) with total padding
max((out-1)*s + k - in, 0), split floor(total/2) before and the remainder
after. A stride-s transposed convolution maps H to exactly H*s and is the
linear adjoint of the convolution with the same kernel and geometry.

Kernel storage is Kh x Kw x A x B. A forward convolution reads A as its
input channels and B as its output channels; a transposed convolution
sharing the same array maps B channels back to A, which is exactly what
makes <conv(x), y> == <x, tconv(y)> hold.

One im2col + GEMM engine serves every direction. The im2col view is
ordered N, H', W', Kh, Kw, C (channels innermost), so a kernel reshapes to
its (Kh*Kw*A) x B GEMM operand without a copy: the forward is cols @ K and
the kernel gradient cols.T @ g. The adjoint (the transposed-conv forward
and the conv input gradient) is a gather, not a scatter: output row
r = s*R + e meets only kernel rows u = a (mod s), with (c, a) =
divmod(e + pad_top, s), reading g rows R + c - (u - a)/s. Each of the s*s
output phases is therefore a stride-1 correlation of the zero-padded g
with the flipped, channel-swapped sub-kernel kernel[a::s, b::s], and the
phases are interleaved once; no zero-stuffed input is built. im2col is
materialised in batch chunks of at most _WORKSPACE_BYTES (one image when an
image's columns alone exceed it), the one budget of every walk in training
and in evaluation alike. Each chunk of the batch is zero-padded on its own
just before its columns are copied, so a walk holds one padded chunk and
one column chunk besides its output:
peak memory grows neither with batch x Kh*Kw*C for a single GEMM nor with
a padded copy of the whole input. A phase whose first tap row or column
lies inside the plane crops g there instead of padding it. The engine
always returns a fresh array, so the bias is added to it in place.

Batch norm works on the (N*H*W) x C view with few full-size passes. The
train forward takes the mean, makes one centred copy, reads the variance
off it as a per-channel dot and normalizes the copy in place into xhat;
y = xhat*gamma + beta. The eval forward folds the running statistics and
the affine into scale = gamma*inv_std and shift = beta - mean*scale, so
y = x*scale + shift. The backward needs only gbeta = sum(g) and
ggamma = sum(g*xhat): with a = gamma*inv_std, the train-mode input
gradient is a*(g - xhat*ggamma/m - gbeta/m), built in place in xhat.

A train forward keeps no convolution input that is relu(bn(f)): a plain
c/tc block's output (the stem's, tc5's) or a residual unit's conv2 input. The
recorded batch norm gives its output a rebuild, xhat*gamma + beta by the
forward's own ops, that relu passes on (tensor.keep), so the convolutions
reading it, a residual unit's conv1 and projection shortcut alike, and
relu's rule remake the array off xhat in backward. Each of them runs before
the batch norm's rule turns xhat into the input gradient. A residual
unit's output, relu of a sum, is still kept by its readers.

With no tape open, an eval forward keeps nothing for a backward rule, so
bn_relu, the epilogue of every conv block and residual unit, runs eval
batch norm (_normalize_eval, as batch_norm does), the residual sum and
ReLU in the array the convolution returned. batch_norm, relu and add
themselves never write into their inputs.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, DegenerateBatchError, DimensionError, LabelError
from .tensor import Tensor, active_tape, add, keep, record_op, relu

__all__ = [
    "half_padding",
    "conv_out_size",
    "conv2d",
    "conv2d_transposed",
    "batch_norm",
    "softmax_cross_entropy",
    "Conv2D",
    "BatchNorm2D",
    "check_batch_norm",
    "bn_relu",
    "Container",
    "ResidualUnit",
]

# im2col bytes materialised per GEMM, the one budget of every walk (forward,
# adjoint and kernel gradient): memory stays flat in the batch size. 8 MB holds
# one image of the full-width tc5 block's 8.3 MB columns, where 16 MB held two,
# and the train step and the inference forward time within noise of 16 MB
_WORKSPACE_BYTES = 8 << 20


def conv_out_size(in_size: int, stride: int) -> int:
    return -(-in_size // stride)  # ceil division


def half_padding(in_size: int, kernel: int, stride: int) -> tuple[int, int]:
    """(before, after) padding so that out == ceil(in/stride)."""
    out = conv_out_size(in_size, stride)
    total = max((out - 1) * stride + kernel - in_size, 0)
    before = total // 2
    return before, total - before


def _pad_nhwc(x: np.ndarray, ph: tuple[int, int], pw: tuple[int, int]) -> np.ndarray:
    if ph == (0, 0) and pw == (0, 0):
        return x
    return np.pad(x, ((0, 0), ph, pw, (0, 0)))


def _correlate(x: np.ndarray, pad: tuple[int, int, int, int], kh: int, kw: int, stride: int,
               kmat: np.ndarray, out: np.ndarray | None, g: np.ndarray | None = None) -> np.ndarray | None:
    """One walk over the im2col chunks of x zero-padded by pad = (top,
    bottom, left, right), feeding up to two GEMMs per chunk.

    With ``out``, out[n, i, j] = xp[n, i*s : i*s+kh, j*s : j*s+kw].ravel() @ kmat
    for the padded xp (out is C-contiguous). With ``g``, co-shaped with such
    an output, returns the (Kh*Kw*C) x B kernel gradient, summed chunk by
    chunk in a fixed order. Only the chunk at hand is padded, so the padded
    plane never exists for the whole batch.
    """
    c = x.shape[3]
    gk = None if g is None else np.zeros((kh * kw * c, g.shape[3]), np.result_type(x, g))
    hout, wout = (g if out is None else out).shape[1:3]
    step = max(1, _WORKSPACE_BYTES // max(hout * wout * kh * kw * c * x.itemsize, 1))
    for lo in range(0, len(x), step):
        part = slice(lo, lo + step)
        xp = _pad_nhwc(x[part], pad[:2], pad[2:])
        win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
        win = win[:, :hout, :wout].transpose(0, 1, 2, 4, 5, 3)  # [n, H', W', Kh, Kw, C] view
        cols = win.reshape(-1, kh * kw * c)  # the copy that fits the budget
        del xp, win  # so the next chunk is padded with no other padded chunk alive
        if out is not None:
            np.matmul(cols, kmat, out=out[part].reshape(-1, out.shape[3]))
        if gk is not None:
            gk += cols.T @ g[part].reshape(-1, g.shape[3])
        del cols  # so the next chunk is copied with only one chunk alive
    return gk


def _conv_fine(x: np.ndarray, kernel: np.ndarray, stride: int, forward: bool = True,
               g: np.ndarray | None = None):
    """The walks that start from the fine plane x: (x convolved with kernel if
    ``forward``, else None; the kernel gradient against the coarse-side ``g``
    if given, else None). Asked for both, one walk feeds both GEMMs."""
    n, h, w, _ = x.shape
    kh, kw, _, cout = kernel.shape
    pad = half_padding(h, kh, stride) + half_padding(w, kw, stride)
    y = None
    if forward:
        y = np.empty((n, conv_out_size(h, stride), conv_out_size(w, stride), cout), np.result_type(x, kernel))
    gk = _correlate(x, pad, kh, kw, stride, kernel.reshape(-1, cout), y, g)
    return y, None if gk is None else gk.reshape(kernel.shape)


def _conv_adjoint(g: np.ndarray, kernel: np.ndarray, s: int, h: int, w: int) -> np.ndarray:
    """Adjoint of the _conv_fine forward onto an H x W plane, gathered phase by phase."""
    n, ho, wo, _ = g.shape
    kh, kw, cin, _ = kernel.shape
    pt, pl = half_padding(h, kh, s)[0], half_padding(w, kw, s)[0]
    pb, pr = (s - 1 + pt) // s, (s - 1 + pl) // s  # every phase reads this far past g's end
    out = np.zeros((s, s, n, ho, wo, cin), np.result_type(g, kernel))
    for e, f in np.ndindex(s, s):
        (c, a), (d, b) = divmod(e + pt, s), divmod(f + pl, s)
        sub = kernel[a::s, b::s][::-1, ::-1].transpose(0, 1, 3, 2)  # flipped, channel-swapped
        ta, tb = sub.shape[:2]
        if ta and tb:  # a phase without taps (k < s) stays zero
            # the phase reads g from row c + 1 - ta and column d + 1 - tb: pad above or crop
            top, left = ta - 1 - c, tb - 1 - d
            _correlate(g[:, max(-top, 0) :, max(-left, 0) :], (max(top, 0), pb, max(left, 0), pr),
                       ta, tb, 1, sub.reshape(-1, cin), out[e, f])
    # contiguous even when cropped: a slot holds this array as it is, and reductions read it
    return np.ascontiguousarray(out.transpose(2, 3, 0, 4, 1, 5).reshape(n, ho * s, wo * s, cin)[:, :h, :w])


def _conv(x: Tensor, kernel: Tensor, bias: Tensor | None, stride: int, transposed: bool) -> Tensor:
    """The one body of ``conv2d`` and ``conv2d_transposed``: each runs one of
    ``_conv_fine``/``_conv_adjoint`` forward and the other for the input
    gradient, and both read the kernel gradient off the fine side. The
    transposed backward's fine side is ``g``, so one walk of ``g`` gives
    both its input and its kernel gradient."""
    op = "conv2d_transposed" if transposed else "conv2d"
    if x.data.ndim != 4:
        raise DimensionError(f"{op} expects NHWC input, got shape {x.shape}")
    if kernel.data.ndim != 4:
        raise DimensionError(f"{op} kernel must be rank 4 (Kh x Kw x A x B), got shape {kernel.shape}")
    cin, cout = (kernel.shape[3], kernel.shape[2]) if transposed else kernel.shape[2:]
    if x.shape[3] != cin:
        raise DimensionError(f"{op}: input has {x.shape[3]} channels but kernel expects {cin}")
    if bias is not None and bias.shape != (cout,):
        raise DimensionError(f"{op}: bias shape {bias.shape} != ({cout},)")

    h, w = x.shape[1], x.shape[2]
    x_needs_grad, x_data = x.requires_grad, keep(x)  # the rule holds no x, so a remade array can die
    if transposed:
        y = _conv_adjoint(x.data, kernel.data, stride, h * stride, w * stride)
    else:
        y = _conv_fine(x.data, kernel.data, stride)[0]
    if bias is not None:
        y += bias.data  # y is freshly allocated by the engine
    out = Tensor(y)

    def backward_fn(g):
        need_gx, need_gk = x_needs_grad, kernel.requires_grad
        gx = gk = None
        if transposed:
            if need_gx or need_gk:
                gx, gk = _conv_fine(g, kernel.data, stride, need_gx, x_data() if need_gk else None)
        else:
            gx = _conv_adjoint(g, kernel.data, stride, h, w) if need_gx else None
            gk = _conv_fine(x_data(), kernel.data, stride, False, g)[1] if need_gk else None
        gb = np.einsum("ijkl->l", g) if bias is not None and bias.requires_grad else None
        return (gx, gk, gb) if bias is not None else (gx, gk)

    inputs = (x, kernel, bias) if bias is not None else (x, kernel)
    return record_op(out, inputs, backward_fn)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None, stride: int = 1) -> Tensor:
    """Strided 2-D convolution, N x H x W x Cin -> N x ceil(H/s) x ceil(W/s) x Cout."""
    return _conv(x, kernel, bias, stride, transposed=False)


def conv2d_transposed(x: Tensor, kernel: Tensor, bias: Tensor | None, stride: int = 1) -> Tensor:
    """Transposed convolution, N x H x W x Cin -> N x H*s x W*s x Cout.

    With kernel storage Kh x Kw x Cout x Cin this is the exact adjoint of
    ``conv2d`` run with the same array and stride.
    """
    return _conv(x, kernel, bias, stride, transposed=True)


def _normalize_eval(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray,
                    var: np.ndarray, eps: float, out: np.ndarray | None):
    """Eval batch norm of x (channels last) with the running statistics:
    (x*scale + shift, inv_std), with scale = gamma*inv_std and
    shift = beta - mean*scale. Written into ``out`` (x itself, or None for
    a new array)."""
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma * inv_std
    y = np.multiply(x, scale, out=out)
    y += beta - mean * scale
    return y, inv_std


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
    momentum: float = 0.997,
    train: bool = True,
) -> Tensor:
    """Per-channel batch normalization over the N, H, W axes.

    Train mode normalizes with (biased) batch statistics and updates the
    running arrays in place: running <- momentum*running + (1-momentum)*batch.
    Infer mode normalizes with the running statistics.
    """
    if x.data.ndim != 4:
        raise DimensionError(f"batch_norm expects NHWC input, got shape {x.shape}")
    c = x.shape[3]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"batch_norm: gamma/beta must have shape ({c},)")

    m = x.shape[0] * x.shape[1] * x.shape[2]
    xf = x.data.reshape(m, c)
    if train:
        if m < 2:
            raise DegenerateBatchError(
                f"batch_norm train mode needs >= 2 elements per channel, got {m}"
            )
        # einsum's column sums run 2-4x faster than sum(axis=0) over a narrow C
        mean = np.einsum("ij->j", xf) / m
        xhat = xf - mean  # the only full-size temporary; normalized in place below
        var = np.einsum("ij,ij->j", xhat, xhat) / m
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mean
        running_var *= momentum
        running_var += (1.0 - momentum) * var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std
        y = xhat * gamma.data
        y += beta.data
        saved = xhat  # the rule never reads x, so the record lets it die
    else:
        mean = running_mean.copy()  # backward must see the statistics of this call
        y, inv_std = _normalize_eval(xf, gamma.data, beta.data, mean, running_var, eps, None)
        saved = xf
    shape, x_needs_grad = x.shape, x.requires_grad
    out = Tensor(y.reshape(shape))

    def backward_fn(g):
        gf = g.reshape(m, c)
        xh = saved if train else (saved - mean) * inv_std
        gbeta = np.einsum("ij->j", gf)
        ggamma = np.einsum("ij,ij->j", gf, xh)
        gx = None
        if x_needs_grad:
            if train:
                # batch statistics depend on x: gx = a*(g - xhat*ggamma/m - gbeta/m), a = gamma*inv_std,
                # built in xhat's buffer, which nothing reads after this rule
                gx = np.multiply(xh, -ggamma / m, out=xh)
                gx += gf
                gx -= gbeta / m
                gx *= gamma.data * inv_std
            else:
                gx = gf * (gamma.data * inv_std)
            gx = gx.reshape(shape)
        return gx, ggamma if gamma.requires_grad else None, gbeta if beta.requires_grad else None

    out = record_op(out, (x, gamma, beta), backward_fn)
    if train and out.node is not None:  # the ops of the forward, off the xhat this record keeps

        def rebuild():
            r = saved * gamma.data
            r += beta.data
            return r.reshape(shape)

        out.rebuild = rebuild
    return out


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over all pixels of -log softmax(logits)[label].

    ``logits`` is N x H x W x C, ``labels`` an integer N x H x W array with
    values in [0, C-1].
    """
    if logits.data.ndim != 4:
        raise DimensionError(f"softmax_cross_entropy expects NHWC logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:3]:
        raise DimensionError(
            f"softmax_cross_entropy: labels shape {labels.shape} != {logits.shape[:3]}"
        )
    num_classes = logits.shape[3]
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = np.argwhere((labels < 0) | (labels >= num_classes))[0]
        value = labels[tuple(bad)]
        raise LabelError(
            f"label {value} at position {tuple(int(i) for i in bad)} outside [0, {num_classes - 1}]"
        )

    # reduce across the few classes with a loop of whole-plane ufuncs: numpy
    # reduces along a short innermost axis several times slower
    x = logits.data
    zmax = x[..., 0].copy()
    for k in range(1, num_classes):
        np.maximum(zmax, x[..., k], out=zmax)
    log_probs = x - zmax[..., None]
    e = np.exp(log_probs)
    total = e[..., 0].copy()
    for k in range(1, num_classes):
        total += e[..., k]
    log_probs -= np.log(total)[..., None]
    idx = labels[..., None].astype(np.int64)
    picked = np.take_along_axis(log_probs, idx, axis=3)
    m = labels.size
    out = Tensor(np.asarray(-picked.sum() / m, dtype=x.dtype))
    logits_need_grad = logits.requires_grad

    def backward_fn(g):
        if not logits_need_grad:
            return (None,)
        grad = np.exp(log_probs)  # softmax minus the one-hot label
        np.put_along_axis(grad, idx, np.take_along_axis(grad, idx, axis=3) - 1.0, axis=3)
        grad *= float(g) / m
        return (grad,)

    return record_op(out, (logits,), backward_fn)


# --------------------------------------------------------------------------
# Parameter containers


def check_batch_norm(eps: float, momentum: float, name: str = "batch norm ") -> None:
    """Raise ConfigError naming ``<name>eps`` or ``<name>momentum`` unless
    eps > 0 and 0 < momentum < 1."""
    if eps <= 0:
        raise ConfigError(f"{name}eps must be > 0, got {eps}")
    if not 0.0 < momentum < 1.0:
        raise ConfigError(f"{name}momentum must lie in (0, 1), got {momentum}")


class BatchNorm2D:
    def __init__(self, gamma: Tensor, beta: Tensor, running_mean: np.ndarray, running_var: np.ndarray,
                 eps: float = 1e-5, momentum: float = 0.997):
        check_batch_norm(eps, momentum)
        self.eps = eps
        self.momentum = momentum
        self.gamma = gamma
        self.beta = beta
        self.running_mean = running_mean
        self.running_var = running_var

    def forward(self, x: Tensor, train: bool) -> Tensor:
        return batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            eps=self.eps, momentum=self.momentum, train=train,
        )

    def normalize_in_place(self, x: Tensor) -> None:
        """Eval batch norm written into x's array, for a caller that holds the only reference."""
        _normalize_eval(x.data, self.gamma.data, self.beta.data, self.running_mean, self.running_var,
                        self.eps, x.data)

    def parameters(self):
        return [("gamma", self.gamma, False), ("beta", self.beta, False)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]


class Conv2D:
    """Convolution parameters; kernel Kh x Kw x Cin x Cout, bias Cout.

    A transposed convolution stores its kernel as Kh x Kw x Cout x Cin.
    """

    def __init__(self, kernel: Tensor, bias: Tensor, stride: int = 1, transposed: bool = False):
        if stride < 1:
            raise ContractError("stride must be >= 1")
        self.kernel = kernel
        self.bias = bias
        self.stride = stride
        self.transposed = transposed

    def forward(self, x: Tensor) -> Tensor:
        op = conv2d_transposed if self.transposed else conv2d
        return op(x, self.kernel, self.bias, self.stride)

    def parameters(self):
        return [("kernel", self.kernel, True), ("bias", self.bias, False)]

    def buffers(self):
        return []


def bn_relu(bn: BatchNorm2D, f: Tensor, train: bool, skip: Tensor | None) -> Tensor:
    """relu(bn(f) + skip), or relu(bn(f)) for skip None, where f is the fresh
    array a convolution returned. An eval forward with no tape open keeps
    nothing for a backward rule, so it is computed in f's array instead of
    in new ones."""
    if train or active_tape() is not None:
        y = bn.forward(f, train)
        # bn's record keeps what its backward reads; when the caller passed f as a temporary,
        # f dies here instead of living on while the sum and ReLU allocate
        del f
        return relu(y if skip is None else add(skip, y))
    bn.normalize_in_place(f)
    if skip is not None:  # into f: skip may be the caller's input
        np.add(skip.data, f.data, out=f.data)
    np.maximum(f.data, 0, out=f.data)
    return f


class Container:
    """A block made of named parts. ``parts()`` lists them in checkpoint
    order, with None for an absent part; each tensor is named
    ``<part>.<tensor>`` after the part that holds it. This is the one place
    the DNCKPT1 tensor names are made."""

    def parameters(self):
        """(name, tensor, weight_decay_eligible) for every learnable tensor.
        Only convolution kernels are decay-eligible; biases and batch-norm
        affine parameters are excluded."""
        return [(f"{prefix}.{n}", t, d) for prefix, part in self.parts() if part is not None
                for n, t, d in part.parameters()]

    def buffers(self):
        """(name, array) for every running statistic."""
        return [(f"{prefix}.{n}", a) for prefix, part in self.parts() if part is not None
                for n, a in part.buffers()]


class ResidualUnit(Container):
    """y = ReLU(h(x) + F(x)) with F = conv(k,s) -> BN -> ReLU -> conv(k,1) -> BN.

    h is the identity when the unit changes neither resolution nor channel
    count, otherwise a 1x1 projection with the unit's stride (no BN). With
    transposed convolutions this is the transposed residual unit, and a
    stride-s unit upsamples H x W to H*s x W*s.
    """

    def __init__(self, conv1, bn1, conv2, bn2, shortcut):
        self.conv1 = conv1
        self.bn1 = bn1
        self.conv2 = conv2
        self.bn2 = bn2
        self.shortcut = shortcut  # None means identity

    def forward(self, x: Tensor, train: bool) -> Tensor:
        f = bn_relu(self.bn1, self.conv1.forward(x), train, None)
        f = self.conv2.forward(f)
        h = x if self.shortcut is None else self.shortcut.forward(x)
        if h.shape != f.shape:
            raise DimensionError(
                f"residual unit: main path {f.shape} and shortcut {h.shape} disagree"
            )
        return bn_relu(self.bn2, f, train, h)

    def parts(self):
        return [("conv1", self.conv1), ("bn1", self.bn1), ("conv2", self.conv2), ("bn2", self.bn2),
                ("shortcut", self.shortcut)]
