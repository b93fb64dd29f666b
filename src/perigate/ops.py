"""Forward kernels on numpy arrays: convolutions, the frequency descriptor's
fixed-filter cues, normalizations, softmax, the broadcasting arithmetic and
channel concatenation. Elementwise maths with no shape rule of its own sits
in :mod:`perigate.autodiff`, beside its derivative.

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
* k x k convolutions, dense and depthwise, sum one product per tap, each
  reading a contiguous slice of the padded input's rows (:func:`tap_windows`);
* dense and point-wise convolutions, and the 1 x k / k x 1 passes of the
  separable convolution (products with banded Toeplitz matrices), are
  matrix products handed to BLAS, whose summation order depends on the
  numpy/BLAS build, the CPU and the thread count: repeated calls on one
  machine and build, with the same BLAS thread count, are bitwise identical,
  while results across machines agree only to rounding. The other
  reductions run in fixed ascending index order.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError


def _check_odd(k: int, kw: int | None = None):
    """A k (x kw) kernel must be odd, positive and, given kw, square."""
    if k % 2 == 0 or k < 1:
        raise ConfigurationError(f"kernel size must be odd and positive, got {k}")
    if kw is not None and kw != k:
        raise ConfigurationError(f"kernel must be square, got {k}x{kw}")


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


def _toeplitz(kernel: np.ndarray, n: int) -> np.ndarray:
    """Per-channel banded Toeplitz matrices [C, n, n] of [C, k] taps:
    ``T[c, i, j] = kernel[c, i - j + p]`` on the band |i - j| <= p, zero off it.

    The band is clipped to the n x n matrix, so k > n needs no padding. Each
    matrix is a reversed sliding window over the zero-padded, reversed taps.
    """
    c, k = kernel.shape
    p = (k - 1) // 2
    m = max(n - 1, p)
    taps = np.zeros((c, 2 * m + 1), dtype=kernel.dtype)
    taps[:, m - p : m + p + 1] = kernel[:, ::-1]  # taps[:, m + d] = kernel[:, p - d]
    # win[:, s, j] = taps[:, m - n + 1 + s + j]; row s = n - 1 - i gives taps[:, m + j - i]
    win = sliding_window_view(taps[:, m - n + 1 : m + n], n, axis=-1)
    return np.ascontiguousarray(win[:, ::-1, :])


def _dwconv_1d(x: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Depthwise 1-D correlation along ``axis``: -1 (1 x k, width) or -2 (k x 1, height).

    One batched matmul against per-channel banded Toeplitz matrices:
    ``x @ T_c`` along the width, ``T_c^T @ x`` along the height.
    """
    kernel = _per_channel(kernel, x.shape[-3], 1)
    _check_odd(kernel.shape[1])
    t = _toeplitz(kernel, x.shape[axis])
    return x @ t if axis == -1 else np.swapaxes(t, -1, -2) @ x


def sep_conv_parts(x: np.ndarray, h: np.ndarray, v: np.ndarray):
    """Separable depthwise correlation: a 1 x k pass along the width with ``h``,
    then a k x 1 pass along the height with ``v``. Returns the output and the
    horizontal pass, which the gradient reuses."""
    mid = _dwconv_1d(x, h, -1)
    return _dwconv_1d(mid, v, -2), mid


def flat_rows(x: np.ndarray, k: int) -> np.ndarray:
    """Each channel zero-padded for a k x k window and read as one flat run of
    rows of width W + k - 1: [..., C, (H + k) * (W + k - 1)]. Tap (u, v)'s
    shifted window is the contiguous slice from u * (W + k - 1) + v of length
    H * (W + k - 1); one spare zero row keeps the last tap's slice inside."""
    hh, ww = x.shape[-2:]
    p = (k - 1) // 2
    xp = np.zeros(x.shape[:-2] + (hh + 2 * p + 1, ww + 2 * p), dtype=x.dtype)
    xp[..., p : p + hh, p : p + ww] = x
    return xp.reshape(x.shape[:-2] + (-1,))


def tap_windows(x: np.ndarray, k: int) -> list:
    """``(u, v, window)`` per k x k tap: the [..., C, H * (W + k - 1)] slice of the
    :func:`flat_rows` from u * (W + k - 1) + v; k - 1 columns per row wrap."""
    wp = x.shape[-1] + k - 1
    flat, n = flat_rows(x, k), x.shape[-2] * wp
    return [(u, v, flat[..., u * wp + v : u * wp + v + n]) for u in range(k) for v in range(k)]


def wrap_padded(g: np.ndarray, k: int) -> np.ndarray:
    """[..., C, H, W] with k - 1 zero columns per row, flat like a tap window."""
    gp = np.zeros(g.shape[:-1] + (g.shape[-1] + k - 1,), dtype=g.dtype)
    gp[..., : g.shape[-1]] = g
    return gp.reshape(g.shape[:-2] + (-1,))


def _tap_sum(x: np.ndarray, k: int, product) -> np.ndarray:
    """Sum over the :func:`tap_windows` of ``product(u, v, window, out)``, wrapped
    columns cut; later products go into one scratch ``out``, added in place."""
    (_, _, win), *rest = tap_windows(x, k)
    acc = product(0, 0, win, None)
    tmp = np.empty_like(acc)
    for u, v, win in rest:
        acc += product(u, v, win, tmp)
    return acc.reshape(acc.shape[:-1] + (x.shape[-2], -1))[..., : x.shape[-1]]


# Input bytes one pass of a blocked kernel covers (dwconv_2d's and the descriptor's
# channel blocks, metrics.ssim's frame blocks), so that its temporaries stay in L2 cache.
BLOCK_BYTES = 256 * 1024


def channel_blocks(x: np.ndarray) -> list:
    """Slices of ``max(1, BLOCK_BYTES // bytes of one channel's [..., H, W])`` channels."""
    step = max(1, BLOCK_BYTES // x[..., 0, :, :].nbytes)
    return [slice(lo, lo + step) for lo in range(0, x.shape[-3], step)]


def dwconv_2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Dense depthwise k x k correlation: k*k multiply-adds over the :func:`tap_windows`
    in :func:`channel_blocks`; channels are independent, so blocks leave the result
    bitwise unchanged."""
    kernel = _per_channel(kernel, x.shape[-3], 2)
    k = kernel.shape[1]
    _check_odd(k, kernel.shape[2])
    out = np.empty(x.shape, dtype=np.result_type(x, kernel))
    for sl in channel_blocks(x):
        out[..., sl, :, :] = _tap_sum(x[..., sl, :, :], k, lambda u, v, win, o: np.multiply(
            win, kernel[sl, u, v, None], out=o))
    return out


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int = 1) -> np.ndarray:
    """Full k x k correlation [..., Cin,H,W] -> [..., Cout,Ho,Wo] with zero same-padding.

    The sum over the :func:`tap_windows` of ``w[:, :, u, v] @ window``, or with one
    input channel one product with the k*k stacked windows (an inner size of 1 is
    slow). Stride 2 halves even extents: the stride-1 map at every other row and
    column. ``b=None`` skips the bias (convs feeding a normalization layer).
    """
    co, ci, k, kw = w.shape
    _check_odd(k, kw)
    if ci != x.shape[-3]:
        raise ConfigurationError(f"conv expects {ci} input channels, got {x.shape[-3]}")
    if stride not in (1, 2):
        raise ConfigurationError(f"unsupported stride {stride}")
    if ci == 1:
        wins = np.stack([win[..., 0, :] for _, _, win in tap_windows(x, k)], axis=-2)
        out = w.reshape(co, k * k) @ wins
        out = out.reshape(out.shape[:-1] + (x.shape[-2], -1))[..., : x.shape[-1]]
    else:
        taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # [k, k, Co, Ci]
        out = _tap_sum(x, k, lambda u, v, win, o: np.matmul(taps[u, v], win, out=o))
    out = out[..., ::stride, ::stride]
    return np.ascontiguousarray(out) if b is None else out + b[:, None, None]


def pwconv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Point-wise 1 x 1 convolution: one [Cout,Cin] x [Cin,H*W] product per sample."""
    if w.ndim != 2 or w.shape[1] != x.shape[-3]:
        raise ConfigurationError(
            f"pointwise weights {w.shape} incompatible with {x.shape[-3]} channels"
        )
    lead, (c, hh, ww) = x.shape[:-3], x.shape[-3:]
    out = (w @ x.reshape(lead + (c, hh * ww))).reshape(lead + (w.shape[0], hh, ww))
    return out + b[:, None, None]


# The frequency descriptor's fixed 3 x 3 filters (correlation taps, never learned)
SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()
LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
# guards the sqrt gradient when the gradient magnitude is exactly zero
EPS_MAGNITUDE = 1e-12
CUE_NAMES = ("f1", "f2", "f3")


def stencil3(f: np.ndarray, kernel: np.ndarray, wp: int) -> np.ndarray:
    """3 x 3 correlation of the :func:`flat_rows` ``f`` (rows wp = W + 2 wide) of a
    [..., C, H, W] map: ``kernel[u, v]`` times the window of tap (u, v), summed over
    the nonzero taps in row-major order (as :func:`dwconv_2d` sums them, so the bits
    agree); [..., C, H * wp] with two wrapped columns per row."""
    n = f.shape[-1] - 3 * wp
    (k0, first), *taps = [(float(k), f[..., u * wp + v : u * wp + v + n])
                          for (u, v), k in np.ndenumerate(kernel) if k]
    acc = first * k0
    for k, win in taps:
        if abs(k) == 1:  # x - y is exactly x + (-1 * y)
            (np.add if k > 0 else np.subtract)(acc, win, out=acc)
        else:
            acc += win * k
    return acc


def box_mean3(f: np.ndarray, wp: int) -> np.ndarray:
    """3 x 3 zero-padded mean (divisor fixed at 9) of the :func:`flat_rows` ``f``, laid
    out like :func:`stencil3`: row sums (a + b) + c, then the same sums of rows, times 1/9."""
    m = f.shape[-1] - wp  # H + 2 rows of row sums
    rows = f[..., :m] + f[..., 1 : m + 1]
    rows += f[..., 2 : m + 2]
    out = rows[..., : m - 2 * wp] + rows[..., wp : m - wp]
    out += rows[..., 2 * wp :]
    return np.multiply(out, 1.0 / 9.0, out=out)


def cue_maps(f: np.ndarray, wp: int, cue: str):
    """One cue's per-channel map of the :func:`flat_rows` ``f``, laid out like
    :func:`stencil3`, and the responses its adjoint reads: f1 the Sobel magnitude
    sqrt(sx^2 + sy^2 + EPS_MAGNITUDE) with (sx, sy); f2 |Laplacian| with (Laplacian,);
    f3 the local variance box(x^2) - box(x)^2, clamped at zero (0 * var), with (box(x),)."""
    if cue == "f1":
        sx, sy = stencil3(f, SOBEL_X, wp), stencil3(f, SOBEL_Y, wp)
        return np.sqrt(sx * sx + sy * sy + f.dtype.type(EPS_MAGNITUDE)), (sx, sy)
    if cue == "f2":
        lap = stencil3(f, LAPLACIAN, wp)
        return np.abs(lap), (lap,)
    mean = box_mean3(f, wp)
    var = box_mean3(f * f, wp) - mean * mean
    return var * (var > 0), (mean,)


def freq_descriptor(x: np.ndarray, cues) -> np.ndarray:
    """The selected cues of :data:`CUE_NAMES`, each averaged over channels, stacked
    in fixed (f1, f2, f3) order: [..., C, H, W] -> [..., len(cues), H, W].

    One zero-padded copy per :func:`channel_blocks` block. Each channel sum runs from 0
    in ascending channel order (a block's first map adds the sum so far), then is
    divided by C: bitwise ``mean(axis=-3)``."""
    names = [c for c in CUE_NAMES if c in cues]
    hh, ww = x.shape[-2:]
    acc = np.zeros(x.shape[:-3] + (len(names), hh * (ww + 2)), dtype=x.dtype)
    for sl in channel_blocks(x):
        f = flat_rows(x[..., sl, :, :], 3)
        for i, name in enumerate(names):
            maps = cue_maps(f, ww + 2, name)[0]
            maps[..., 0, :] += acc[..., i, :]
            np.add.reduce(maps, axis=-2, out=acc[..., i, :])
    acc /= x.shape[-3]
    return np.ascontiguousarray(acc.reshape(acc.shape[:-1] + (hh, -1))[..., :ww])


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


def grn_parts(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6):
    """Global response normalization with residual, per sample:
    n_c = |x_c|_2 / (mean_c |x_c|_2 + eps); out = gamma * (x * n) + beta + x.

    Returns ``(out, (g, denom, n))`` with channel norms ``g`` [..., C],
    ``denom`` = mean_c g + eps [..., 1] and ratios ``n`` = g / denom, which
    the gradient reuses.
    """
    if eps <= 0:
        raise ConfigurationError("grn eps must be positive")
    g = np.sqrt(np.einsum("...hw,...hw->...", x, x))
    denom = g.mean(axis=-1, keepdims=True) + eps
    n = g / denom
    out = x * (gamma * n + 1)[..., None, None]  # = gamma * (x * n) + x
    out += beta[:, None, None]
    return out, (g, denom, n)


def group_norm_parts(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, groups: int = 2, eps: float = 1e-5
):
    """Group normalization over (channels-in-group, H, W) of each sample, with a
    per-channel affine. Returns the output and ``(xhat, inv)`` in grouped shape
    [..., G, C/G, H, W], which the gradient reuses."""
    c = x.shape[-3]
    if c % groups != 0:
        raise ConfigurationError(f"{c} channels not divisible into {groups} groups")
    xg = x.reshape(x.shape[:-3] + (groups, c // groups) + x.shape[-2:])
    mu = xg.mean(axis=(-3, -2, -1), keepdims=True)
    var = ((xg - mu) ** 2).mean(axis=(-3, -2, -1), keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xg - mu) * inv
    return gamma[:, None, None] * xhat.reshape(x.shape) + beta[:, None, None], (xhat, inv)


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

