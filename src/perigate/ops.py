"""Forward operation vocabulary on numpy arrays.

Conventions shared by every operation here:

* feature maps are ``[C, H, W]`` arrays; convolutions are cross-correlations
  (no kernel flip) with zero same-padding, so spatial shape is preserved;
* depthwise kernels may be per-channel (``[C, k]`` / ``[C, k, k]``) or shared
  (``[k]`` / ``[k, k]``);
* dense and point-wise convolutions are matrix products handed to BLAS,
  whose summation order depends on the numpy/BLAS build, the CPU and the
  thread count: repeated calls on one machine and build, with the same BLAS
  thread count, are bitwise identical, while results across machines agree
  only to rounding. The other reductions run in fixed ascending index order.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, UnsupportedOperationError


def _check_odd(k: int):
    if k % 2 == 0 or k < 1:
        raise ConfigurationError(f"kernel size must be odd and positive, got {k}")


def _per_channel(kernel: np.ndarray, channels: int, spatial_rank: int) -> np.ndarray:
    """Broadcast a shared kernel to per-channel form; validate channel count."""
    kernel = np.asarray(kernel)
    if kernel.ndim == spatial_rank:
        return np.broadcast_to(kernel, (channels,) + kernel.shape)
    if kernel.ndim == spatial_rank + 1:
        if kernel.shape[0] != channels:
            raise ConfigurationError(
                f"kernel has {kernel.shape[0]} channels, input has {channels}"
            )
        return kernel
    raise ConfigurationError(f"bad depthwise kernel shape {kernel.shape}")


def pad_width(x: np.ndarray, p: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (0, 0), (p, p)))


def pad_height(x: np.ndarray, p: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (p, p), (0, 0)))


def pad_hw(x: np.ndarray, p: int) -> np.ndarray:
    return np.pad(x, ((0, 0), (p, p), (p, p)))


def dwconv_1d_h(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Depthwise 1 x k correlation along the width axis."""
    c = x.shape[0]
    h = _per_channel(h, c, 1)
    _check_odd(h.shape[1])
    p = (h.shape[1] - 1) // 2
    win = sliding_window_view(pad_width(x, p), h.shape[1], axis=2)
    return np.einsum("chwk,ck->chw", win, h)


def dwconv_1d_v(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Depthwise k x 1 correlation along the height axis."""
    c = x.shape[0]
    v = _per_channel(v, c, 1)
    _check_odd(v.shape[1])
    p = (v.shape[1] - 1) // 2
    win = sliding_window_view(pad_height(x, p), v.shape[1], axis=1)
    # window axis is appended last: [C, H, W, k]
    return np.einsum("chwk,ck->chw", win, v)


def sep_conv(x: np.ndarray, h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Separable depthwise correlation: horizontal pass then vertical pass."""
    return dwconv_1d_v(dwconv_1d_h(x, h), v)


def dwconv_2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Dense depthwise k x k correlation: k*k shifted-slice multiply-adds."""
    c, hh, ww = x.shape
    kernel = _per_channel(kernel, c, 2)
    kh, kw = kernel.shape[1:]
    _check_odd(kh)
    if kh != kw:
        raise ConfigurationError(f"depthwise kernel must be square, got {kh}x{kw}")
    xp = pad_hw(x, (kh - 1) // 2)
    out = None
    for u in range(kh):
        for v in range(kw):
            term = xp[:, u : u + hh, v : v + ww] * kernel[:, u, v, None, None]
            if out is None:
                out = term
            else:
                out += term
    return out


def im2col(x: np.ndarray, k: int, stride: int = 1) -> np.ndarray:
    """Patch matrix [Cin*k*k, Ho*Wo] of a zero same-padded k x k correlation.

    Row ``(c*k + u)*k + v`` holds input channel c shifted by (u, v), so a
    correlation with weights [Cout, Cin, k, k] is ``w.reshape(Cout, -1) @ cols``.
    """
    ci = x.shape[0]
    win = sliding_window_view(pad_hw(x, (k - 1) // 2), (k, k), axis=(1, 2))
    win = win[:, ::stride, ::stride]
    ho, wo = win.shape[1:3]
    return win.transpose(0, 3, 4, 1, 2).reshape(ci * k * k, ho * wo)


def conv2d(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int = 1
) -> np.ndarray:
    """Full k x k correlation [Cin,H,W] -> [Cout,Ho,Wo] with zero same-padding.

    Stride 1 preserves the spatial shape; stride 2 halves even extents.
    ``b=None`` skips the bias (convs feeding a normalization layer).
    Computed as one GEMM over the :func:`im2col` patch matrix.
    """
    ci, hh, ww = x.shape
    co, ci_w, kh, kw = w.shape
    _check_odd(kh)
    if kh != kw:
        raise ConfigurationError(f"conv kernel must be square, got {kh}x{kw}")
    if ci_w != ci:
        raise ConfigurationError(f"conv expects {ci_w} input channels, got {ci}")
    if stride not in (1, 2):
        raise ConfigurationError(f"unsupported stride {stride}")
    out = w.reshape(co, ci * kh * kw) @ im2col(x, kh, stride)
    out = out.reshape(co, (hh - 1) // stride + 1, (ww - 1) // stride + 1)
    return out if b is None else out + b[:, None, None]


def pwconv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Point-wise 1 x 1 convolution: one [Cout,Cin] x [Cin,H*W] matrix product."""
    if w.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ConfigurationError(
            f"pointwise weights {w.shape} incompatible with {x.shape[0]} channels"
        )
    c, hh, ww = x.shape
    out = (w @ x.reshape(c, hh * ww)).reshape(w.shape[0], hh, ww)
    return out + b[:, None, None]


def avg_pool3(x: np.ndarray) -> np.ndarray:
    """3 x 3 mean pool, stride 1, zero padding, divisor fixed at 9.

    Separable box sum: three-tap row sums, then three-tap column sums.
    """
    xp = pad_hw(x, 1)
    rows = xp[:, :, :-2] + xp[:, :, 1:-1] + xp[:, :, 2:]
    return (rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]) * (1.0 / 9.0)


def softmax_channels(x: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the channel axis with max subtraction."""
    m = x.max(axis=0, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=0, keepdims=True)


def _broadcast_operand(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b)
    if b.shape == a.shape:
        return b
    if b.ndim == 0:
        return b
    if a.ndim == 3 and b.shape == (a.shape[0],):
        return b[:, None, None]
    raise ConfigurationError(f"cannot broadcast {b.shape} onto {a.shape}")


def add(a, b):
    return a + _broadcast_operand(a, b)


def sub(a, b):
    return a - _broadcast_operand(a, b)


def mul(a, b):
    return a * _broadcast_operand(a, b)


def scale(x, s: float):
    return x * s


def tanh(x):
    return np.tanh(x)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def leaky_relu(x, alpha: float = 0.2):
    return np.where(x > 0, x, alpha * x)


def relu(x):
    return np.where(x > 0, x, 0.0 * x)


def sqrt(x):
    return np.sqrt(x)


def absolute(x):
    return np.abs(x)


def grn(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Global response normalization with residual.

    n_c = |x_c|_2 / (mean_c |x_c|_2 + eps); out = gamma * (x * n) + beta + x.
    """
    if eps <= 0:
        raise ConfigurationError("grn eps must be positive")
    g = np.sqrt(np.sum(x * x, axis=(1, 2)))
    n = g / (g.mean() + eps)
    return gamma[:, None, None] * (x * n[:, None, None]) + beta[:, None, None] + x


def group_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, groups: int = 2, eps: float = 1e-5
) -> np.ndarray:
    """Group normalization over (channels-in-group, H, W) with per-channel affine."""
    c = x.shape[0]
    if c % groups != 0:
        raise ConfigurationError(f"{c} channels not divisible into {groups} groups")
    xg = x.reshape(groups, c // groups, *x.shape[1:])
    mu = xg.mean(axis=(1, 2, 3), keepdims=True)
    var = ((xg - mu) ** 2).mean(axis=(1, 2, 3), keepdims=True)
    xhat = ((xg - mu) / np.sqrt(var + eps)).reshape(x.shape)
    return gamma[:, None, None] * xhat + beta[:, None, None]


def upsample2x(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x spatial upsampling."""
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def concat_channels(xs) -> np.ndarray:
    xs = [np.asarray(x) for x in xs]
    hw = xs[0].shape[1:]
    for x in xs[1:]:
        if x.shape[1:] != hw:
            raise ConfigurationError(f"spatial mismatch: {x.shape[1:]} vs {hw}")
    return np.concatenate(xs, axis=0)


def split_channels(x: np.ndarray, sizes) -> list[np.ndarray]:
    if sum(sizes) != x.shape[0]:
        raise ConfigurationError(f"split sizes {tuple(sizes)} do not sum to {x.shape[0]}")
    out, lo = [], 0
    for s in sizes:
        out.append(x[lo : lo + s])
        lo += s
    return out


def pack_time(frames) -> np.ndarray:
    """Stack T frames of [C,H,W] into [T*C,H,W]; frame t occupies block [t*C,(t+1)*C)."""
    frames = [np.asarray(f) for f in frames]
    shape = frames[0].shape
    for f in frames[1:]:
        if f.shape != shape:
            raise ConfigurationError(f"frame shape mismatch: {f.shape} vs {shape}")
    return np.concatenate(frames, axis=0)


def unpack_time(z: np.ndarray, t: int) -> list[np.ndarray]:
    if z.shape[0] % t != 0:
        raise ConfigurationError(f"{z.shape[0]} channels not divisible by {t} frames")
    c = z.shape[0] // t
    return split_channels(z, [c] * t)


def mean_channels(x: np.ndarray) -> np.ndarray:
    """Channel mean, keeping a single-channel axis: [C,H,W] -> [1,H,W]."""
    return x.mean(axis=0, keepdims=True)


_ELEMENTWISE = {
    "tanh": tanh,
    "sigmoid": sigmoid,
    "leaky_relu": leaky_relu,
    "relu": relu,
    "scale": scale,
    "add": add,
    "sub": sub,
    "mul": mul,
    "sqrt": sqrt,
    "abs": absolute,
}


def elementwise(op: str, *args, **kwargs):
    """Dispatch an elementwise operation by name."""
    try:
        fn = _ELEMENTWISE[op]
    except KeyError:
        raise UnsupportedOperationError(f"unknown elementwise op '{op}'") from None
    return fn(*args, **kwargs)
