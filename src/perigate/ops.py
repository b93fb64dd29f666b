"""Forward kernels on numpy arrays: convolutions, the frequency descriptor's
fixed-filter cues, the gated channel mixing (GLU), group normalization with
its LeakyReLU, softmax, the broadcasting arithmetic and channel
concatenation. Elementwise maths with no shape rule of its own sits in
:mod:`perigate.autodiff`, beside its derivative.

Conventions shared by every operation here:

* feature maps are ``[..., C, H, W]`` arrays: any number of leading axes
  (a minibatch ``[N, C, H, W]``, or none for one ``[C, H, W]`` sample) in
  front of channels and space. Every operation treats each leading index as
  an independent sample; statistics (group and response normalization) are
  taken per sample, never across the leading axes;
* convolutions are cross-correlations (no kernel flip) with zero
  same-padding, so spatial shape is preserved (halved, rounding up, by a
  stride-2 dense convolution);
* depthwise kernels may be per-channel (``[C, k]`` / ``[C, k, k]``) or shared
  (``[k]`` / ``[k, k]``);
* k x k convolutions, dense and depthwise, sum one product per tap, each
  reading a contiguous slice of the padded input's rows, or at stride 2 of
  one of its row/column parity planes (:func:`tap_windows`);
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

    The band is clipped to the n x n matrix, so k > n needs no padding. The
    taps sit in the middle of a zero buffer of 2m + 1 items a channel, with
    m = max(n - 1, p); each matrix is one strided view of that buffer, m items
    in, stepping +1 item a row and -1 item a column, copied out once.
    """
    c, k = kernel.shape
    p = (k - 1) // 2
    m = max(n - 1, p)
    taps = np.zeros((c, 2 * m + 1), dtype=kernel.dtype)
    taps[:, m - p : m + p + 1] = kernel  # taps[:, m + d] = kernel[:, p + d]
    step = taps.itemsize
    # view[c, i, j] = taps[c, m + i - j]
    view = np.ndarray((c, n, n), taps.dtype, taps, m * step, (taps.strides[0], step, -step))
    return view.copy()


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


def _extent(n: int, stride: int) -> int:
    """Output extent of a same-padded correlation over n pixels at ``stride``."""
    return (n - 1) // stride + 1


def _phase(a: int, p: int, stride: int) -> tuple[int, int]:
    """(first plane index i, first input index) of parity plane ``a`` of an input
    padded by p: plane index i holds input index stride * i + a - p."""
    i0 = -((a - p) // stride)
    return i0, stride * i0 + a - p


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


def _cut(flat: np.ndarray, rows: int, cols: int, lo: int = 0) -> np.ndarray:
    """[..., C, rows * width] read as rows, columns [lo, lo + cols) kept: a view."""
    return flat.reshape(flat.shape[:-1] + (rows, -1))[..., lo : lo + cols]


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
# descriptor and the GLU, the pixel blocks of conv2d, metrics.ssim's frame blocks), so
# that its temporaries stay in L2. A partition depends only on the item count and the
# item bytes, and each block writes only its own slice of its kernel's output.
BLOCK_BYTES = 256 * 1024


def index_blocks(count: int, item_bytes: int) -> list:
    """Slices of ``max(1, BLOCK_BYTES // item_bytes)`` of ``range(count)``: the channel
    blocks of a map, the pixel-column blocks of a tap GEMM or the frame blocks of SSIM.
    The partition depends only on ``count`` and ``item_bytes``; a blocked kernel
    allocates its output once and each block writes only its own slice of it."""
    step = max(1, BLOCK_BYTES // item_bytes)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _dw_taps(x: np.ndarray, kernel: np.ndarray, k: int) -> np.ndarray:
    """The :func:`_tap_sum` of a per-channel k x k ``kernel`` over x's channels: a view
    that cuts the wrapped columns."""
    hh, ww = x.shape[-2:]
    out = np.empty(x.shape[:-2] + (hh * (ww + k - 1),), dtype=np.result_type(x, kernel))
    _tap_sum(tap_windows(x, k),
             lambda u, v, win, o: np.multiply(win, kernel[:, u, v, None], out=o), out)
    return _cut(out, hh, ww)


def dwconv_2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Dense depthwise k x k correlation: k*k multiply-adds over the :func:`tap_windows`
    in :func:`index_blocks` of channels, each block's cut rows written into its slice of
    one contiguous output; channels are independent, so blocks leave the result bitwise
    unchanged."""
    kernel = _per_channel(kernel, x.shape[-3], 2)
    k = kernel.shape[1]
    _check_odd(k, kernel.shape[2])
    out = np.empty(x.shape, dtype=np.result_type(x, kernel))
    for sl in index_blocks(x.shape[-3], x[..., 0, :, :].nbytes):
        out[..., sl, :, :] = _dw_taps(x[..., sl, :, :], kernel[sl], k)
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


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int = 1) -> np.ndarray:
    """Full k x k correlation [..., Cin,H,W] -> [..., Cout,Ho,Wo] with zero same-padding.

    The sum over the :func:`tap_windows` of ``w[:, :, u, v] @ window`` (:func:`_tap_gemms`),
    or with one input channel one product with the k*k stacked windows (an inner size
    of 1 is slow). Stride 2 reads each tap from the input's row/column parity planes,
    so it computes only the Ho x Wo outputs, Ho = ceil(H / 2). ``b=None`` skips the
    bias (convs feeding a normalization layer).
    """
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
    return np.ascontiguousarray(out) if b is None else out + b[:, None, None]


def conv2d_input_grad(g: np.ndarray, w: np.ndarray, hw: tuple, stride: int = 1) -> np.ndarray:
    """Input gradient [..., Cin, H, W] of :func:`conv2d` over H x W = ``hw`` for the output
    gradient ``g`` [..., Cout, Ho, Wo]: the adjoint of its tap windows, read where the
    input sits in each :func:`flat_rows` plane. Plane item m gathers
    ``w[:, :, u, v].T @ g`` at m minus tap (u, v)'s window start over the plane's taps,
    in reverse row-major order (a correlation with the flipped kernel), through
    :func:`_tap_gemms`; at stride 2 each plane is a quarter of the input."""
    co, ci, k, _ = w.shape
    (hh, ww), (ho, wo) = hw, g.shape[-2:]
    s, p, r = stride, (k - 1) // 2, (k - 1) // stride
    wq, lead = wo + r, g.shape[:-3]
    d = r * wq + r  # the last tap's window start
    gext = np.zeros(lead + (co, d + (ho + r + 1) * wq), dtype=g.dtype)
    gext[..., d : d + ho * wq] = wrap_padded(g, k, s)
    taps = np.ascontiguousarray(w.transpose(2, 3, 1, 0))  # [k, k, Ci, Co]
    gx = np.empty(lead + (ci, hh, ww), dtype=np.result_type(g, w))
    for a in range(s):
        for b in range(s):
            (i0, ri), (j0, cj) = _phase(a, p, s), _phase(b, p, s)
            rows, cols = len(range(ri, hh, s)), len(range(cj, ww, s))
            if not rows * cols:
                continue
            starts = [(u, v, d - (u // s) * wq - v // s + i0 * wq)
                      for u in range(k - 1, -1, -1) for v in range(k - 1, -1, -1)
                      if u % s == a and v % s == b]
            windows = [(u, v, gext[..., st : st + rows * wq]) for u, v, st in starts]
            # a plane no tap reads (k = 1 at stride 2) gets a zero gradient
            gx[..., ri::s, cj::s] = (_cut(_tap_gemms(windows, taps), rows, cols, j0)
                                     if windows else 0)
    return gx


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

    One zero-padded copy per :func:`index_blocks` block. Each channel sum runs from 0
    in ascending channel order (a block's first map adds the sum so far), then is
    divided by C: bitwise ``mean(axis=-3)``."""
    names = [c for c in CUE_NAMES if c in cues]
    hh, ww = x.shape[-2:]
    acc = np.zeros(x.shape[:-3] + (len(names), hh * (ww + 2)), dtype=x.dtype)
    for sl in index_blocks(x.shape[-3], x[..., 0, :, :].nbytes):
        f = flat_rows(x[..., sl, :, :], 3)[..., 0, :, :]
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


# Global response normalization's guard: n_c = |z_c|_2 / (mean_c |z_c|_2 + GRN_EPS)
GRN_EPS = 1e-6


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
    Returns ``(out, saved)``; with ``keep``, ``saved`` is (sigmoid(u), the depthwise
    output, z, G, mean_c G + GRN_EPS, n), which the gradient reads; else None, and each
    block's temporaries die with the block."""
    e = dw.shape[0]
    lead, (c, hh, ww) = x.shape[:-3], x.shape[-3:]
    if w_e.shape != (2 * e, c) or w_p.shape != (c, e):
        raise ConfigurationError(
            f"GLU weights {w_e.shape}, {w_p.shape} do not fit {c} channels and {e} hidden"
        )
    x2 = x.reshape(lead + (c, hh * ww))
    z = np.empty(lead + (e, hh, ww), dtype=np.result_type(w_e, x, dw))
    norms = np.empty(lead + (e,), dtype=z.dtype)
    if keep:
        sig_all, d_all = np.empty(z.shape, np.result_type(w_e, x)), np.empty_like(z)
    for sl in index_blocks(e, hh * ww * x.itemsize):
        shape = lead + (sl.stop - sl.start, hh, ww)
        sig = w_e[sl] @ x2
        sig += b_e[sl, None]
        np.exp(np.negative(sig, out=sig), out=sig)  # the sigmoid, in place
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        v = w_e[e + sl.start : e + sl.stop] @ x2
        v += b_e[e + sl.start : e + sl.stop, None]
        d = _dw_taps(v.reshape(shape), dw[sl], 3)
        zb = np.multiply(sig.reshape(shape), d, out=z[..., sl, :, :])
        norms[..., sl] = np.sqrt(np.einsum("...hw,...hw->...", zb, zb))
        if keep:
            sig_all[..., sl, :, :], d_all[..., sl, :, :] = sig.reshape(shape), d
    denom = norms.mean(axis=-1, keepdims=True) + GRN_EPS
    n = norms / denom
    out = (w_p * (gamma * n + 1)[..., None, :]) @ z.reshape(lead + (e, hh * ww))
    out += (w_p @ beta + b_p)[:, None]
    return out.reshape(x.shape), (sig_all, d_all, z, norms, denom, n) if keep else None


def group_norm_act(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, groups: int = 2,
                   slope: float = 0.2, eps: float = 1e-5, keep: bool = False):
    """Group normalization over (channels-in-group, H, W) of each sample with a
    per-channel affine, then LeakyReLU: y = max(a, slope * a) with
    a = gamma * xhat + beta, in place (for 0 <= slope < 1 this is bitwise
    ``where(a > 0, a, slope * a)``, at signed zeros, infinities and NaN too). Returns
    ``(y, saved)``; with ``keep``, ``saved`` is (xhat, 1 / std) in grouped shape
    [..., G, C/G, H, W], which the gradient reads, else None and the affine runs
    over xhat in place."""
    c = x.shape[-3]
    if c % groups != 0:
        raise ConfigurationError(f"{c} channels not divisible into {groups} groups")
    xg = x.reshape(x.shape[:-3] + (groups, c // groups) + x.shape[-2:])
    axes = (-3, -2, -1)
    xhat = xg - xg.mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=axes, keepdims=True) + eps)
    xhat *= inv
    y = np.multiply(xhat.reshape(x.shape), gamma[:, None, None],
                    out=None if keep else xhat.reshape(x.shape))
    y += beta[:, None, None]
    np.maximum(y, slope * y, out=y)
    return y, (xhat, inv) if keep else None


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

