"""Forward operation vocabulary on numpy arrays.

Conventions shared by every operation here:

* feature maps are ``[..., C, H, W]`` arrays: any number of leading axes
  (a minibatch ``[N, C, H, W]``, or none for one ``[C, H, W]`` sample) in
  front of channels and space. Every operation treats each leading index as
  an independent sample; statistics (group and response normalization) are
  taken per sample, never across the leading axes;
* convolutions are cross-correlations (no kernel flip) with zero
  same-padding, so spatial shape is preserved;
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

from .errors import ConfigurationError


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


def pad(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """Zero-pad the two spatial axes by ``ph`` rows and ``pw`` columns per side."""
    hh, ww = x.shape[-2:]
    out = np.zeros(x.shape[:-2] + (hh + 2 * ph, ww + 2 * pw), dtype=x.dtype)
    out[..., ph : ph + hh, pw : pw + ww] = x
    return out


def _dwconv_1d(x: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Depthwise 1-D correlation along ``axis``: -1 (1 x k, width) or -2 (k x 1, height)."""
    kernel = _per_channel(kernel, x.shape[-3], 1)
    k = kernel.shape[1]
    _check_odd(k)
    p = (k - 1) // 2
    xp = pad(x, p, 0) if axis == -2 else pad(x, 0, p)
    # the window axis is appended last: [..., C, H, W, k]
    win = sliding_window_view(xp, k, axis=axis)
    return np.einsum("...chwk,ck->...chw", win, kernel)


def sep_conv_parts(x: np.ndarray, h: np.ndarray, v: np.ndarray):
    """:func:`sep_conv` output plus the horizontal pass its gradient reuses."""
    mid = _dwconv_1d(x, h, -1)
    return _dwconv_1d(mid, v, -2), mid


def sep_conv(x: np.ndarray, h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Separable depthwise correlation: a 1 x k pass along the width with ``h``,
    then a k x 1 pass along the height with ``v``."""
    return sep_conv_parts(x, h, v)[0]


def dwconv_2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Dense depthwise k x k correlation: k*k shifted-slice multiply-adds."""
    hh, ww = x.shape[-2:]
    kernel = _per_channel(kernel, x.shape[-3], 2)
    kh, kw = kernel.shape[1:]
    _check_odd(kh)
    if kh != kw:
        raise ConfigurationError(f"depthwise kernel must be square, got {kh}x{kw}")
    xp = pad(x, (kh - 1) // 2, (kh - 1) // 2)
    out = None
    for u in range(kh):
        for v in range(kw):
            term = xp[..., u : u + hh, v : v + ww] * kernel[:, u, v, None, None]
            if out is None:
                out = term
            else:
                out += term
    return out


def im2col(x: np.ndarray, k: int, stride: int = 1) -> np.ndarray:
    """Patch matrices [..., Cin*k*k, Ho*Wo] of a zero same-padded k x k correlation.

    Row ``(c*k + u)*k + v`` holds input channel c shifted by (u, v), so a
    correlation with weights [Cout, Cin, k, k] is ``w.reshape(Cout, -1) @ cols``.
    """
    p = (k - 1) // 2
    win = sliding_window_view(pad(x, p, p), (k, k), axis=(-2, -1))
    win = win[..., ::stride, ::stride, :, :]  # [..., Cin, Ho, Wo, k, k]
    ho, wo = win.shape[-4:-2]
    cols = np.moveaxis(win, (-2, -1), (-4, -3))  # [..., Cin, k, k, Ho, Wo]
    return cols.reshape(x.shape[:-3] + (x.shape[-3] * k * k, ho * wo))


def conv2d(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int = 1
) -> np.ndarray:
    """Full k x k correlation [..., Cin,H,W] -> [..., Cout,Ho,Wo] with zero same-padding.

    Stride 1 preserves the spatial shape; stride 2 halves even extents.
    ``b=None`` skips the bias (convs feeding a normalization layer).
    Computed as one GEMM per sample over the :func:`im2col` patch matrix.
    """
    ci, hh, ww = x.shape[-3:]
    co, ci_w, kh, kw = w.shape
    _check_odd(kh)
    if kh != kw:
        raise ConfigurationError(f"conv kernel must be square, got {kh}x{kw}")
    if ci_w != ci:
        raise ConfigurationError(f"conv expects {ci_w} input channels, got {ci}")
    if stride not in (1, 2):
        raise ConfigurationError(f"unsupported stride {stride}")
    out = w.reshape(co, ci * kh * kw) @ im2col(x, kh, stride)
    out = out.reshape(x.shape[:-3] + (co, (hh - 1) // stride + 1, (ww - 1) // stride + 1))
    return out if b is None else out + b[:, None, None]


def pwconv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Point-wise 1 x 1 convolution: one [Cout,Cin] x [Cin,H*W] product per sample."""
    if w.ndim != 2 or w.shape[1] != x.shape[-3]:
        raise ConfigurationError(
            f"pointwise weights {w.shape} incompatible with {x.shape[-3]} channels"
        )
    lead, (c, hh, ww) = x.shape[:-3], x.shape[-3:]
    out = (w @ x.reshape(lead + (c, hh * ww))).reshape(lead + (w.shape[0], hh, ww))
    return out + b[:, None, None]


def avg_pool3(x: np.ndarray) -> np.ndarray:
    """3 x 3 mean pool, stride 1, zero padding, divisor fixed at 9.

    Separable box sum: three-tap row sums, then three-tap column sums.
    """
    xp = pad(x, 1, 1)
    rows = xp[..., :-2] + xp[..., 1:-1] + xp[..., 2:]
    return (rows[..., :-2, :] + rows[..., 1:-1, :] + rows[..., 2:, :]) * (1.0 / 9.0)


def softmax_channels(x: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the channel axis with max subtraction."""
    m = x.max(axis=-3, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-3, keepdims=True)


def _broadcast_operand(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b`` shaped to combine with ``a``: equal shape, a scalar, a per-channel
    ``[C]`` vector, or a ``[..., 1, H, W]`` map broadcast over channels."""
    b = np.asarray(b)
    if b.shape == a.shape or b.ndim == 0:
        return b
    if a.ndim >= 3:
        if b.shape == (a.shape[-3],):
            return b[:, None, None]
        if b.shape == a.shape[:-3] + (1,) + a.shape[-2:]:
            return b
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


def grn_parts(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6):
    """:func:`grn` output plus the per-sample statistics its gradient reuses.

    Returns ``(out, (g, denom, n))`` with channel norms ``g`` [..., C],
    ``denom`` = mean_c g + eps [..., 1] and ratios ``n`` = g / denom.
    """
    if eps <= 0:
        raise ConfigurationError("grn eps must be positive")
    g = np.sqrt(np.sum(x * x, axis=(-2, -1)))
    denom = g.mean(axis=-1, keepdims=True) + eps
    n = g / denom
    out = gamma[:, None, None] * (x * n[..., None, None]) + beta[:, None, None] + x
    return out, (g, denom, n)


def grn(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Global response normalization with residual, per sample.

    n_c = |x_c|_2 / (mean_c |x_c|_2 + eps); out = gamma * (x * n) + beta + x.
    """
    return grn_parts(x, gamma, beta, eps)[0]


def group_norm_parts(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, groups: int = 2, eps: float = 1e-5
):
    """:func:`group_norm` output plus ``(xhat, inv)`` in grouped shape
    [..., G, C/G, H, W], which its gradient reuses."""
    c = x.shape[-3]
    if c % groups != 0:
        raise ConfigurationError(f"{c} channels not divisible into {groups} groups")
    xg = x.reshape(x.shape[:-3] + (groups, c // groups) + x.shape[-2:])
    mu = xg.mean(axis=(-3, -2, -1), keepdims=True)
    var = ((xg - mu) ** 2).mean(axis=(-3, -2, -1), keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xg - mu) * inv
    return gamma[:, None, None] * xhat.reshape(x.shape) + beta[:, None, None], (xhat, inv)


def group_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, groups: int = 2, eps: float = 1e-5
) -> np.ndarray:
    """Group normalization over (channels-in-group, H, W) of each sample, per-channel affine."""
    return group_norm_parts(x, gamma, beta, groups, eps)[0]


def upsample2x(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x spatial upsampling."""
    return np.repeat(np.repeat(x, 2, axis=-2), 2, axis=-1)


def concat_channels(xs) -> np.ndarray:
    xs = [np.asarray(x) for x in xs]
    ref = xs[0].shape
    for x in xs[1:]:
        if x.ndim != len(ref) or x.shape[:-3] + x.shape[-2:] != ref[:-3] + ref[-2:]:
            raise ConfigurationError(f"spatial mismatch: {x.shape} vs {ref}")
    return np.concatenate(xs, axis=-3)


def split_channels(x: np.ndarray, sizes) -> list[np.ndarray]:
    if sum(sizes) != x.shape[-3]:
        raise ConfigurationError(f"split sizes {tuple(sizes)} do not sum to {x.shape[-3]}")
    out, lo = [], 0
    for s in sizes:
        out.append(x[..., lo : lo + s, :, :])
        lo += s
    return out


def mean_channels(x: np.ndarray) -> np.ndarray:
    """Channel mean, keeping a single-channel axis: [..., C,H,W] -> [..., 1,H,W]."""
    return x.mean(axis=-3, keepdims=True)

