"""Forward kernels on numpy arrays: convolutions, the frequency descriptor's
fixed-filter cues, the gated channel mixing (GLU), group normalization with
its LeakyReLU, softmax, the arithmetic's broadcast rule (with the block's
center suppression and gated sum), channel concatenation and the packing of
frame blocks along channels. Elementwise maths with no shape rule of its own
sits in :mod:`perigate.autodiff`, beside its derivative.

Conventions shared by every operation here:

* feature maps are ``[..., C, H, W]`` arrays: any number of leading axes
  (a minibatch ``[N, C, H, W]``, or none for one ``[C, H, W]`` sample) in
  front of channels and space. Every operation treats each leading index as
  an independent sample; statistics (group and response normalization) are
  taken per sample, never across the leading axes;
* convolutions are cross-correlations (no kernel flip) with zero
  same-padding, so spatial shape is preserved (halved, rounding up, by a
  stride-2 dense convolution);
* depthwise kernels are per-channel, ``[C, k]`` / ``[C, k, k]``;
* k x k convolutions, dense and depthwise, sum one product per tap, each
  reading a contiguous slice of the padded input's rows, or at stride 2 of
  one of its row/column parity planes (:func:`tap_windows`); the upsampling
  conv writes its output's parity planes, and the two are an adjoint pair,
  each one's input gradient laid out as the other's forward;
* dense and point-wise convolutions, the GLU's expand and projection, and
  the 1 x k / k x 1 passes of the separable convolution (products with
  banded Toeplitz matrices), are matrix products handed to BLAS, whose
  summation order depends on the numpy/BLAS build, the CPU and the thread
  count: repeated calls on one machine and build, with the same BLAS thread
  count, are bitwise identical, while results across machines agree only to
  rounding. The other reductions run in fixed ascending index order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def _check_odd(k: int, kw: int | None = None):
    """A k (x kw) kernel must be odd, positive and, given kw, square."""
    if k % 2 == 0 or k < 1:
        raise ConfigurationError(f"kernel size must be odd and positive, got {k}")
    if kw is not None and kw != k:
        raise ConfigurationError(f"kernel must be square, got {k}x{kw}")


def _per_channel(kernel: np.ndarray, channels: int, spatial_rank: int) -> np.ndarray:
    """``kernel`` as an array, checked: per-channel [C, k] / [C, k, k], odd, square."""
    kernel = np.asarray(kernel)
    if kernel.ndim != spatial_rank + 1:
        raise ConfigurationError(f"depthwise kernel must be [C{', k' * spatial_rank}],"
                                 f" got shape {kernel.shape}")
    if kernel.shape[0] != channels:
        raise ConfigurationError(f"kernel has {kernel.shape[0]} channels, input has {channels}")
    _check_odd(*kernel.shape[1:])
    return kernel


def _toeplitz(kernel: np.ndarray, n: int) -> np.ndarray:
    """Per-channel banded Toeplitz matrices [C, n, n] of [C, k] taps:
    ``T[c, i, j] = kernel[c, i - j + p]`` on the band |i - j| <= p, zero off it.

    The band is clipped to the n x n matrix, so k > n needs no padding. The
    reversed taps sit in the middle of a zero buffer of 2m + 1 items a channel,
    with m = max(n - 1, p); each matrix is one strided view of that buffer, m
    items in, stepping -1 item a row and +1 item a column, so the copy out reads
    each row forward.
    """
    c, k = kernel.shape
    p = (k - 1) // 2
    m = max(n - 1, p)
    taps = np.zeros((c, 2 * m + 1), dtype=kernel.dtype)
    taps[:, m - p : m + p + 1] = kernel[:, ::-1]  # taps[:, m + d] = kernel[:, p - d]
    step = taps.itemsize
    # view[c, i, j] = taps[c, m - i + j]
    view = np.ndarray((c, n, n), taps.dtype, taps, m * step, (taps.strides[0], -step, step))
    return view.copy()


def _dwconv_1d(x: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Depthwise 1-D correlation along ``axis``: -1 (1 x k, width) or -2 (k x 1, height).

    One batched matmul against per-channel banded Toeplitz matrices:
    ``x @ T_c`` along the width, ``T_c^T @ x`` along the height.
    """
    kernel = _per_channel(kernel, x.shape[-3], 1)
    t = _toeplitz(kernel, x.shape[axis])
    return x @ t if axis == -1 else np.swapaxes(t, -1, -2) @ x


def sep_conv_parts(x: np.ndarray, h: np.ndarray, v: np.ndarray):
    """Separable depthwise correlation: a 1 x k pass along the width with ``h``,
    then a k x 1 pass along the height with ``v``. Returns the output and the
    horizontal pass, which the gradient reuses."""
    mid = _dwconv_1d(x, h, -1)
    return _dwconv_1d(mid, v, -2), mid


def _extent(n: int, stride: int) -> int:
    """Output extent of a same-padded correlation over n pixels at ``stride``."""
    return (n - 1) // stride + 1


def flat_rows(x: np.ndarray, k: int, stride: int = 1) -> np.ndarray:
    """x zero-padded for a k x k window and split into its stride x stride row and
    column parity planes, each read as one flat run of rows of width Wo + r:
    [..., stride**2, C, (Ho + r + 1) * (Wo + r)], with Ho, Wo the output extents and
    r = (k - 1) // stride. Plane a * stride + b holds the padded rows a, a + stride, ...
    and columns b, b + stride, ...; tap (u, v) of output (i, j) reads plane
    (u % stride) * stride + v % stride at row i + u // stride, column j + v // stride, so
    its window is the contiguous slice from (u // stride) * (Wo + r) + v // stride of
    length Ho * (Wo + r). One spare zero row keeps the last tap's slice inside. At
    stride 1 there is one plane, rows W + k - 1 wide."""
    lead, (c, hh, ww), s = x.shape[:-3], x.shape[-3:], stride
    p, r = (k - 1) // 2, (k - 1) // s
    rows, wq = _extent(hh, s) + r + 1, _extent(ww, s) + r
    xp = np.zeros(lead + (c, s * rows, s * wq), dtype=x.dtype)
    xp[..., p : p + hh, p : p + ww] = x
    if s == 1:
        return xp.reshape(lead + (1, c, -1))
    planes = xp.reshape(lead + (c, rows, s, wq, s))
    n = len(lead)
    planes = planes.transpose(tuple(range(n)) + (n + 2, n + 4, n, n + 1, n + 3))
    return np.ascontiguousarray(planes).reshape(lead + (s * s, c, -1))


def tap_windows(x: np.ndarray, k: int, stride: int = 1) -> list:
    """``(u, v, window)`` per k x k tap: the [..., C, Ho * (Wo + r)] slice of its
    :func:`flat_rows` plane; r = (k - 1) // stride columns per row wrap."""
    s, r = stride, (k - 1) // stride
    wq = _extent(x.shape[-1], s) + r
    planes, n = flat_rows(x, k, s), _extent(x.shape[-2], s) * wq
    starts = [(u, v, (u % s) * s + v % s, (u // s) * wq + v // s)
              for u in range(k) for v in range(k)]
    return [(u, v, planes[..., q, :, st : st + n]) for u, v, q, st in starts]


def wrap_padded(g: np.ndarray, k: int, stride: int = 1) -> np.ndarray:
    """[..., C, Ho, Wo] with (k - 1) // stride zero columns per row, flat like a tap window."""
    gp = np.zeros(g.shape[:-1] + (g.shape[-1] + (k - 1) // stride,), dtype=g.dtype)
    gp[..., : g.shape[-1]] = g
    return gp.reshape(g.shape[:-2] + (-1,))


def _cut(flat: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """[..., C, rows * width] read as rows, the first ``cols`` columns kept: a view."""
    return flat.reshape(flat.shape[:-1] + (rows, -1))[..., :cols]


def _tap_sum(windows, product, out: np.ndarray) -> np.ndarray:
    """``out`` [..., C', m] set to the sum over ``windows``' ``(u, v, window)``, each
    window m columns long, of ``product(u, v, window, o)``: the first product written
    into ``out``, later ones into one scratch ``o`` and added in place, in window order."""
    (u, v, win), *rest = windows
    product(u, v, win, out)
    tmp = None
    for u, v, win in rest:
        tmp = product(u, v, win, tmp)
        out += tmp
    return out


# Input bytes one pass of a blocked kernel covers (the channel blocks of dwconv_2d, the
# descriptor and the GLU, the pixel blocks of conv2d, metrics.ssim's frame blocks, and
# the frame blocks the model's encoder and decoder run on, sized by one sample's
# full-resolution latent frame), so that its temporaries stay in L2. A partition depends
# only on the item count and the item bytes, and each block writes only its own slice
# of its kernel's output.
BLOCK_BYTES = 256 * 1024


def index_blocks(count: int, item_bytes: int) -> list:
    """Slices of ``max(1, BLOCK_BYTES // item_bytes)`` of ``range(count)``: the channel
    blocks of a map, the pixel-column blocks of a tap GEMM or the frame blocks of SSIM.
    The partition depends only on ``count`` and ``item_bytes``; a blocked kernel
    allocates its output once and each block writes only its own slice of it."""
    step = max(1, BLOCK_BYTES // item_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _dw_taps(windows, kernel: np.ndarray, hh: int, ww: int) -> np.ndarray:
    """The :func:`_tap_sum` of a per-channel k x k ``kernel`` over the ``(u, v, window)``
    tap windows of H x W = (hh, ww) channels: a view that cuts the wrapped columns."""
    win = windows[0][2]
    out = np.empty(win.shape, dtype=np.result_type(win, kernel))
    _tap_sum(windows, lambda u, v, w, o: np.multiply(w, kernel[:, u, v, None], out=o), out)
    return _cut(out, hh, ww)


def dwconv_2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Dense depthwise k x k correlation: k*k multiply-adds over the :func:`tap_windows`
    in :func:`index_blocks` of channels, each block's cut rows written into its slice of
    one contiguous output; channels are independent, so blocks leave the result bitwise
    unchanged."""
    kernel = _per_channel(kernel, x.shape[-3], 2)
    k = kernel.shape[1]
    out = np.empty(x.shape, dtype=np.result_type(x, kernel))
    for sl in index_blocks(x.shape[-3], x[..., 0, :, :].nbytes):
        out[..., sl, :, :] = _dw_taps(tap_windows(x[..., sl, :, :], k), kernel[sl],
                                      *x.shape[-2:])
    return out


def _tap_gemms(windows, mats: np.ndarray) -> np.ndarray:
    """[..., M, n]: the :func:`_tap_sum` of ``mats[u, v] @ window`` ([M, K] matrices) over
    ``windows`` of n columns, one :func:`index_blocks` block of the columns at a time, so
    each GEMM is small and its accumulator stays in L2. The blocks depend only on K and
    the windows' itemsize, never on the leading axes: a batch and each of its samples
    take the same partition."""
    win = windows[0][2]
    n = win.shape[-1]
    out = np.empty(win.shape[:-2] + (mats.shape[-2], n), dtype=np.result_type(win, mats))
    blocks = index_blocks(n, mats.shape[-1] * win.itemsize)
    for sl in blocks:
        part = windows if len(blocks) == 1 else [(u, v, w[..., sl]) for u, v, w in windows]
        _tap_sum(part, lambda u, v, w, o: np.matmul(mats[u, v], w, out=o), out[..., sl])
    return out


def conv2d(x: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
    """Full k x k correlation [..., Cin,H,W] -> [..., Cout,Ho,Wo] with zero same-padding
    and no bias (every conv feeds a normalization).

    The sum over the :func:`tap_windows` of ``w[:, :, u, v] @ window`` (:func:`_tap_gemms`),
    or with one input channel one product with the k*k stacked windows (an inner size
    of 1 is slow). Stride 2 reads each tap from the input's row/column parity planes,
    so it computes only the Ho x Wo outputs, Ho = ceil(H / 2), and is the adjoint of
    :func:`upsample_conv2d` (Dumoulin & Visin, arXiv:1603.07285)."""
    co, ci, k, kw = w.shape
    _check_odd(k, kw)
    if ci != x.shape[-3]:
        raise ConfigurationError(f"conv expects {ci} input channels, got {x.shape[-3]}")
    if stride not in (1, 2):
        raise ConfigurationError(f"unsupported stride {stride}")
    windows = tap_windows(x, k, stride)
    if ci == 1:
        out = w.reshape(co, k * k) @ np.stack([win[..., 0, :] for _, _, win in windows], axis=-2)
    else:
        taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # [k, k, Co, Ci]
        out = _tap_gemms(windows, taps)
    out = _cut(out, _extent(x.shape[-2], stride), _extent(x.shape[-1], stride))
    return np.ascontiguousarray(out)


# Nearest 2x upsampling then a 3 x 3 tap: along each axis, output 2r + a reads the input
# at r - 1 + a + i, i = 0, 1, with the taps summed by row (a, i) of this 0/1 matrix:
# (w0, w1 + w2) for a = 0, (w0 + w1, w2) for a = 1. Over both axes, [i, j, a, b, u, v]:
# tap (i, j) of output parity plane (a, b) sums the 3 x 3 taps (u, v) where it is 1.
_FOLD_1D = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
UPSAMPLE_FOLD = np.einsum("aiu,bjv->ijabuv", _FOLD_1D, _FOLD_1D)


def stride2_adjoint_fold(k: int) -> np.ndarray:
    """The [t, t, 2, 2, k, k] fold under which :func:`upsample_conv2d` of g with [Ci, Co,
    k, k] weights is the stride-2 k x k :func:`conv2d`'s input gradient, uncropped: input
    2r + a takes tap u of g at r + d, 2d = a + p - u, as tap i = d - a + t // 2 (at k = 3,
    plane 0 takes tap 1 at offset 0, plane 1 tap 2 at 0 and tap 0 at +1)."""
    p, t = (k - 1) // 2, max(k + 1, 4) // 2
    a, i, u = np.ogrid[:2, :t, :k]
    f1d = (2 * (i + a - t // 2) == a + p - u).astype(float)
    return np.einsum("aiu,bjv->ijabuv", f1d, f1d)


def upsample_taps(w: np.ndarray, fold: np.ndarray = UPSAMPLE_FOLD) -> np.ndarray:
    """[t, t, 4 Co, Ci]: row (a, b, o) of tap (i, j) is output channel o's tap (i, j) on
    output parity plane (a, b) of a k x k ``w`` [Co, Ci, k, k] under a [t, t, 2, 2, k, k]
    ``fold``, one product with it."""
    t, (ci, k) = len(fold), w.shape[1:3]
    return (fold.reshape(-1, k * k).astype(w.dtype) @ w.reshape(-1, k * k).T).reshape(t, t, -1, ci)


def upsample_conv2d(x: np.ndarray, w: np.ndarray, fold: np.ndarray = UPSAMPLE_FOLD) -> np.ndarray:
    """Nearest 2x upsampling, then a same-padded 3 x 3 correlation without bias:
    [..., Ci, H, W] -> [..., Co, 2H, 2W], without the upsampled map. Output rows 2r + a
    and columns 2s + b, parity plane (a, b), are a 2 x 2 correlation of x with the
    :func:`upsample_taps` (the sub-pixel form of Shi et al., CVPR 2016): 16 products of
    Co x Ci at H x W in place of 9 at 2H x 2W. The four planes' taps (i, j) share one
    GEMM (:func:`_tap_gemms`) over x's stride-1 :func:`flat_rows`, (H + 1)(W + 2) + 1
    items from i (W + 2) + j, each plane reading them a (W + 2) + b items further in,
    cut straight into its strided slice of the output. The summed taps round
    differently from ``conv2d`` of the upsampled map.

    Under another ``fold`` [t, t, 2, 2, k, k] (t >= 2) tap (i, j) of plane (a, b) reads x
    at (r + a + i - t // 2, s + b + j - t // 2): under :func:`stride2_adjoint_fold` it is
    the input gradient of a stride-2 :func:`conv2d`, this op's adjoint pair."""
    co, ci, k, kw = w.shape
    t, kf = len(fold), fold.shape[-1]
    if (k, kw) != (kf, kf):
        raise ConfigurationError(f"upsampling conv needs a {kf}x{kf} kernel, got {k}x{kw}")
    if ci != x.shape[-3]:
        raise ConfigurationError(f"conv expects {ci} input channels, got {x.shape[-3]}")
    (hh, ww), wq, lo = x.shape[-2:], x.shape[-1] + 2 * t - 2, t - 1 - t // 2
    f, n = flat_rows(x, 2 * t - 1)[..., 0, :, :], (hh + 1) * wq + 1
    windows = [(i, j, f[..., (i + lo) * wq + j + lo :][..., :n])
               for i in range(t) for j in range(t)]
    planes = _tap_gemms(windows, upsample_taps(w, fold))  # [..., 4 Co, n]
    out = np.empty(x.shape[:-3] + (co, 2 * hh, 2 * ww), dtype=planes.dtype)
    for a in range(2):
        for b in range(2):
            rows = planes[..., (2 * a + b) * co : (2 * a + b + 1) * co, a * wq + b :]
            out[..., a::2, b::2] = _cut(rows[..., : hh * wq], hh, ww)
    return out


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


def sobel_magnitude(sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """The f1 cue from the two Sobel responses: sqrt(sx^2 + sy^2 + EPS_MAGNITUDE)."""
    return np.sqrt(sx * sx + sy * sy + sx.dtype.type(EPS_MAGNITUDE))


def cue_maps(f: np.ndarray, wp: int, cue: str):
    """One cue's per-channel map of the :func:`flat_rows` ``f``, laid out like
    :func:`stencil3`, and the responses its adjoint reads: f1 the Sobel magnitude
    sqrt(sx^2 + sy^2 + EPS_MAGNITUDE) with (sx, sy); f2 |Laplacian| with (Laplacian,);
    f3 the local variance box(x^2) - box(x)^2, clamped at zero (0 * var), with (box(x),)."""
    if cue == "f1":
        sx, sy = stencil3(f, SOBEL_X, wp), stencil3(f, SOBEL_Y, wp)
        return sobel_magnitude(sx, sy), (sx, sy)
    if cue == "f2":
        lap = stencil3(f, LAPLACIAN, wp)
        return np.abs(lap), (lap,)
    mean = box_mean3(f, wp)
    var = box_mean3(f * f, wp) - mean * mean
    return var * (var > 0), (mean,)


def freq_descriptor(x: np.ndarray, cues, keep: bool = False):
    """The selected cues of :data:`CUE_NAMES`, each averaged over channels, stacked
    in fixed (f1, f2, f3) order: [..., C, H, W] -> [..., len(cues), H, W].

    One zero-padded copy per :func:`index_blocks` block. Each channel sum runs from 0
    in ascending channel order (a block's first map adds the sum so far), then is
    divided by C: bitwise ``mean(axis=-3)``. Returns ``(out, saved)``; with ``keep``,
    ``saved`` holds per block, per selected cue, the maps the gradient reads, laid out
    like :func:`stencil3`: f1 (sx, sy), f2 (Laplacian,), f3 (var > 0, box(x)); else
    None."""
    names = [c for c in CUE_NAMES if c in cues]
    hh, ww = x.shape[-2:]
    acc = np.zeros(x.shape[:-3] + (len(names), hh * (ww + 2)), dtype=x.dtype)
    saved = [] if keep else None
    for sl in index_blocks(x.shape[-3], x[..., 0, :, :].nbytes):
        f = flat_rows(x[..., sl, :, :], 3)[..., 0, :, :]
        kept = []
        for i, name in enumerate(names):
            maps, parts = cue_maps(f, ww + 2, name)
            if keep:  # before the sum so far lands in the first map
                kept.append((maps > 0,) + parts if name == "f3" else parts)
            maps[..., 0, :] += acc[..., i, :]
            np.add.reduce(maps, axis=-2, out=acc[..., i, :])
        if keep:
            saved.append(kept)
    acc /= x.shape[-3]
    return np.ascontiguousarray(acc.reshape(acc.shape[:-1] + (hh, -1))[..., :ww]), saved


def softmax_channels(x: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the channel axis with max subtraction."""
    m = x.max(axis=-3, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-3, keepdims=True)


def broadcast_operand(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``b`` shaped to combine with ``a``: equal shape, a per-channel ``[C]`` vector,
    or a ``[..., 1, H, W]`` map broadcast over channels."""
    b = np.asarray(b)
    if b.shape == a.shape:
        return b
    if a.ndim >= 3:
        if b.shape == (a.shape[-3],):
            return b[:, None, None]
        if b.shape == a.shape[:-3] + (1,) + a.shape[-2:]:
            return b
    raise ConfigurationError(f"cannot broadcast {b.shape} onto {a.shape}")


def suppress(p, center, coef):
    """Center suppression p - coef * center, with ``coef`` a per-channel [C] vector or
    a fixed scalar (a Python float keeps the maps' dtype): the product, then the
    difference, as ``autodiff.sub(p, autodiff.mul(center, coef))`` rounds them. The
    difference is written over the product when it fits there."""
    scaled = center * (coef if np.ndim(coef) == 0 else broadcast_operand(center, coef))
    if scaled.shape == p.shape and scaled.dtype == np.result_type(p, scaled):
        return np.subtract(p, scaled, out=scaled)
    return p - broadcast_operand(p, scaled)


def gated_sum(alpha, ys):
    """Per-pixel gated sum over k of ``alpha[..., k]`` times ``ys[k]``: alpha
    [..., K, H, W] broadcast over the channels of K maps [..., C, H, W]. The products
    are added in ascending k, ((y_0 a_0 + y_1 a_1) + y_2 a_2) + ..., into the first."""
    if alpha.shape[-3] != len(ys):
        raise ConfigurationError(f"{alpha.shape[-3]} gate maps for {len(ys)} responses")
    out = ys[0] * alpha[..., :1, :, :]
    for k in range(1, len(ys)):
        term = ys[k] * alpha[..., k : k + 1, :, :]
        # in place unless the sum widens the dtype
        out = np.add(out, term, out=out if out.dtype == np.result_type(out, term) else None)
    return out


# Global response normalization's guard: n_c = |z_c|_2 / (mean_c |z_c|_2 + GRN_EPS)
GRN_EPS = 1e-6


def glu_operands(x, w_e, b_e):
    """The expand GEMM's operands of :func:`glu`: x zero-padded once for 3 x 3 taps with
    a ones row appended, [..., C + 1, (H + 3)(W + 2)] in stride-1 :func:`flat_rows`
    layout (the ones row is zero in the padding, so every expanded row is zero there),
    and ``[w_e | b_e]`` per half, [2, E, C + 1], the gate half negated. The bias is the
    last term of each dot product, as ``w_e @ x + b_e`` adds it."""
    lead, (c, hh, ww) = x.shape[:-3], x.shape[-3:]
    xp = np.zeros(lead + (c + 1, hh + 3, ww + 2), dtype=x.dtype)
    xp[..., :c, 1 : hh + 1, 1 : ww + 1] = x
    xp[..., c, 1 : hh + 1, 1 : ww + 1] = 1.0
    wb = np.empty((2, w_e.shape[0] // 2, c + 1), dtype=np.result_type(w_e, x))
    wb[..., :c] = w_e.reshape(2, -1, c)
    wb[..., c] = b_e.reshape(2, -1)
    np.negative(wb[0], out=wb[0])
    return xp.reshape(lead + (c + 1, -1)), wb


def padded_windows(f: np.ndarray, hh: int, ww: int) -> list:
    """``(u, v, window)`` per 3 x 3 tap of ``f`` [..., C, (H + 3)(W + 2)], an H x W map
    already in stride-1 :func:`flat_rows` layout: the H (W + 2) items from u (W + 2) + v."""
    wq, n = ww + 2, hh * (ww + 2)
    return [(u, v, f[..., u * wq + v : u * wq + v + n]) for u in range(3) for v in range(3)]


def glu(x, w_e, b_e, dw, gamma, beta, w_p, b_p, keep: bool = False):
    """Gated channel mixing [..., C, H, W] -> [..., C, H, W] through E = ``dw.shape[0]``
    hidden channels: the expand rows [0, E) of ``w_e``/``b_e`` give the gate u, rows
    [E, 2E) the value v; the gated map z = sigmoid(u) * (3 x 3 depthwise ``dw`` of v);
    global response normalization per sample, z (gamma n + 1) + beta with channel
    norms G_c = |z_c|_2 and n = G / (mean_c G + GRN_EPS); then the projection
    ``w_p``/``b_p``, folded with the normalization into one product:
    (w_p diag(gamma n + 1)) z + (w_p beta + b_p).

    Everything before the projection runs per :func:`index_blocks` block of the E
    channels, sized from one sample's channel bytes: a batch and each of its samples
    take the same blocks, so each sample's result is bitwise the one it gets alone.
    A block's gate and value rows are one GEMM against the :func:`glu_operands`: the
    value rows come out zero-padded for their taps, and the gate rows as -u, so the
    sigmoid 1 / (1 + exp(-u)) takes three passes. Returns ``(out, saved)``; with
    ``keep``, ``saved`` is (sigmoid(u), the depthwise output, z, G, mean_c G + GRN_EPS,
    n), which the gradient reads; else None, each block's temporaries die with the
    block, and the projection is written into the padded operand's buffer."""
    e = dw.shape[0]
    lead, (c, hh, ww) = x.shape[:-3], x.shape[-3:]
    if w_e.shape != (2 * e, c) or w_p.shape != (c, e):
        raise ConfigurationError(
            f"GLU weights {w_e.shape}, {w_p.shape} do not fit {c} channels and {e} hidden"
        )
    xp, wb = glu_operands(x, w_e, b_e)
    inner = slice(ww + 3, ww + 3 + hh * (ww + 2))  # the pixels' rows, wrapped columns too
    z = np.empty(lead + (e, hh, ww), dtype=np.result_type(w_e, x, dw))
    norms = np.empty(lead + (e,), dtype=z.dtype)
    if keep:
        sig_all, d_all = np.empty(z.shape, wb.dtype), np.empty_like(z)
    for sl in index_blocks(e, hh * ww * x.itemsize):
        eb = sl.stop - sl.start
        rows = wb[:, sl].reshape(2 * eb, -1) @ xp  # [..., 2 eb, (H + 3)(W + 2)]
        sig = rows[..., :eb, inner]
        np.exp(sig, out=sig)  # the sigmoid of u, in place
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        sig = _cut(sig, hh, ww)
        d = _dw_taps(padded_windows(rows[..., eb:, :], hh, ww), dw[sl], hh, ww)
        zb = np.multiply(sig, d, out=z[..., sl, :, :])
        norms[..., sl] = np.sqrt(np.einsum("...hw,...hw->...", zb, zb))
        if keep:
            sig_all[..., sl, :, :], d_all[..., sl, :, :] = sig, d
    denom = norms.mean(axis=-1, keepdims=True) + GRN_EPS
    n = norms / denom
    proj, z2 = w_p * (gamma * n + 1)[..., None, :], z.reshape(lead + (e, hh * ww))
    buf = xp.reshape(-1)[: x.size].reshape(lead + (c, -1))  # xp is dead after the blocks
    reuse = not keep and buf.dtype == np.result_type(proj, z2)  # a kept out holds all of xp
    out = np.matmul(proj, z2, out=buf if reuse else None)
    out += (w_p @ beta + b_p)[:, None]
    return out.reshape(x.shape), (sig_all, d_all, z, norms, denom, n) if keep else None


GN_GROUPS = 2  # group normalization: groups per sample
GN_EPS = 1e-5  # group normalization: variance guard
LEAKY_SLOPE = 0.2  # the LeakyReLU after it


def group_norm_act(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, keep: bool = False):
    """Group normalization over (channels-in-group, H, W) of each sample in GN_GROUPS
    groups, with a per-channel affine, then LeakyReLU: y = max(a, LEAKY_SLOPE * a) with
    a = gamma * xhat + beta, in place (bitwise ``where(a > 0, a, LEAKY_SLOPE * a)``, at
    signed zeros, infinities and NaN too). Returns ``(y, saved)``; with ``keep``,
    ``saved`` is (xhat, 1 / std) in grouped shape [..., G, C/G, H, W], which the
    gradient reads, else None and the affine runs over xhat in place."""
    c = x.shape[-3]
    if c % GN_GROUPS != 0:
        raise ConfigurationError(f"{c} channels not divisible into {GN_GROUPS} groups")
    xg = x.reshape(x.shape[:-3] + (GN_GROUPS, c // GN_GROUPS) + x.shape[-2:])
    axes = (-3, -2, -1)
    xhat = xg - xg.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=axes, keepdims=True) + GN_EPS)
    xhat *= inv
    y = np.multiply(xhat.reshape(x.shape), gamma[:, None, None],
                    out=None if keep else xhat.reshape(x.shape))
    y += beta[:, None, None]
    np.maximum(y, LEAKY_SLOPE * y, out=y)
    return y, (xhat, inv) if keep else None


def concat_channels(xs) -> np.ndarray:
    xs = [np.asarray(x) for x in xs]
    ref = xs[0].shape
    for x in xs[1:]:
        if x.ndim != len(ref) or x.shape[:-3] + x.shape[-2:] != ref[:-3] + ref[-2:]:
            raise ConfigurationError(f"spatial mismatch: {x.shape} vs {ref}")
    return np.concatenate(xs, axis=-3)


def unpack_frames(z: np.ndarray, t: int) -> np.ndarray:
    """[..., T C, H, W] read as its T = ``t`` frames of C channels, [T, ..., C, H, W]:
    frame i is channels [i C, (i + 1) C). A view when z's channels reshape as one."""
    lead, (tc, hh, ww) = z.shape[:-3], z.shape[-3:]
    if tc % t:
        raise ConfigurationError(f"{tc} channels do not split into {t} frames")
    return np.moveaxis(z.reshape(lead + (t, tc // t, hh, ww)), -4, 0)


def pack_frames(blocks) -> np.ndarray:
    """Frame blocks [F_b, ..., C, H, W], frames in order, packed along channels in one
    copy: [..., T C, H, W] with T = sum F_b, the inverse of :func:`unpack_frames`."""
    shape = blocks[0].shape[1:]
    if any(b.shape[1:] != shape for b in blocks):
        raise ConfigurationError(f"frame blocks {[b.shape for b in blocks]} differ per frame")
    t = sum(b.shape[0] for b in blocks)
    out = np.empty(shape[:-3] + (t * shape[-3],) + shape[-2:], dtype=np.result_type(*blocks))
    frames, lo = unpack_frames(out, t), 0
    for b in blocks:
        frames[lo : lo + b.shape[0]] = b
        lo += b.shape[0]
    return out
