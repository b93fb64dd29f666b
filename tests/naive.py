"""Independent loop-level oracles for the vectorized kernels.

These stay deliberately dumb: explicit Python loops over output elements,
nothing shared with the library implementations. The strided-view Toeplitz
and band sums and the per-parameter Adam step are earlier forms of library
code, kept as bitwise references.
"""

import numpy as np


def dense_dwconv2d(x, kernel):
    """Per-channel k x k cross-correlation with zero padding, via loops."""
    c, h, w = x.shape
    if kernel.ndim == 2:
        kernel = np.stack([kernel] * c)
    k = kernel.shape[1]
    p = (k - 1) // 2
    out = np.zeros_like(x)
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for u in range(k):
                    for v in range(k):
                        ii, jj = i + u - p, j + v - p
                        if 0 <= ii < h and 0 <= jj < w:
                            acc += kernel[ch, u, v] * x[ch, ii, jj]
                out[ch, i, j] = acc
    return out


def dense_dwconv2d_grads(x, kernel, g):
    """Input gradient [C, H, W] and per-channel kernel gradient [C, k, k] of
    :func:`dense_dwconv2d` for output gradient g, scattered back output by
    output onto the input pixel and the tap that produced it."""
    c, h, w = x.shape
    if kernel.ndim == 2:
        kernel = np.stack([kernel] * c)
    k = kernel.shape[1]
    p = (k - 1) // 2
    gx = np.zeros((c, h, w))
    gk = np.zeros((c, k, k))
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                for u in range(k):
                    for v in range(k):
                        ii, jj = i + u - p, j + v - p
                        if 0 <= ii < h and 0 <= jj < w:
                            gx[ch, ii, jj] += kernel[ch, u, v] * g[ch, i, j]
                            gk[ch, u, v] += x[ch, ii, jj] * g[ch, i, j]
    return gx, gk


def _taps_per_channel(kernel, c):
    return np.stack([kernel] * c) if kernel.ndim == 1 else kernel


def _shifted(i, j, t, p, axis):
    """Input pixel that tap t of a 1-D pass along ``axis`` reads for output (i, j)."""
    return (i + t - p, j) if axis == -2 else (i, j + t - p)


def dwconv_1d(x, kernel, axis):
    """One depthwise 1-D correlation of [C, H, W] along axis -1 (a 1 x k
    pass) or -2 (a k x 1 pass) with zero padding, via loops."""
    c, h, w = x.shape
    kernel = _taps_per_channel(kernel, c)
    k = kernel.shape[1]
    p = (k - 1) // 2
    out = np.zeros((c, h, w))
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for t in range(k):
                    ii, jj = _shifted(i, j, t, p, axis)
                    if 0 <= ii < h and 0 <= jj < w:
                        acc += kernel[ch, t] * x[ch, ii, jj]
                out[ch, i, j] = acc
    return out


def dwconv_1d_grads(x, kernel, g, axis):
    """Input gradient [C, H, W] and per-channel kernel gradient [C, k] of
    :func:`dwconv_1d` for output gradient g: every output's gradient is
    scattered back onto the input pixel and the tap that produced it."""
    c, h, w = x.shape
    kernel = _taps_per_channel(kernel, c)
    k = kernel.shape[1]
    p = (k - 1) // 2
    gx = np.zeros((c, h, w))
    gk = np.zeros((c, k))
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                for t in range(k):
                    ii, jj = _shifted(i, j, t, p, axis)
                    if 0 <= ii < h and 0 <= jj < w:
                        gx[ch, ii, jj] += kernel[ch, t] * g[ch, i, j]
                        gk[ch, t] += x[ch, ii, jj] * g[ch, i, j]
    return gx, gk


def dense_conv2d(x, weight, bias, stride=1):
    """Full convolution oracle."""
    ci, h, w = x.shape
    co, _, k, _ = weight.shape
    p = (k - 1) // 2
    ho = (h + 2 * p - k) // stride + 1
    wo = (w + 2 * p - k) // stride + 1
    out = np.zeros((co, ho, wo))
    for o in range(co):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0 if bias is None else bias[o]
                for cc in range(ci):
                    for u in range(k):
                        for v in range(k):
                            ii, jj = stride * i + u - p, stride * j + v - p
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += weight[o, cc, u, v] * x[cc, ii, jj]
                out[o, i, j] = acc
    return out


def dense_conv2d_grads(x, weight, g, stride=1):
    """Input gradient [Ci, H, W], weight gradient [Co, Ci, k, k] and bias
    gradient [Co] of :func:`dense_conv2d` for output gradient g, scattered
    back output by output onto the input pixel and the tap that produced it."""
    ci, h, w = x.shape
    co, _, k, _ = weight.shape
    p = (k - 1) // 2
    gx = np.zeros((ci, h, w))
    gw = np.zeros((co, ci, k, k))
    gb = np.zeros(co)
    for o in range(co):
        for i in range(g.shape[1]):
            for j in range(g.shape[2]):
                gb[o] += g[o, i, j]
                for cc in range(ci):
                    for u in range(k):
                        for v in range(k):
                            ii, jj = stride * i + u - p, stride * j + v - p
                            if 0 <= ii < h and 0 <= jj < w:
                                gx[cc, ii, jj] += weight[o, cc, u, v] * g[o, i, j]
                                gw[o, cc, u, v] += x[cc, ii, jj] * g[o, i, j]
    return gx, gw, gb


def group_norm_act(x, gamma, beta, groups=2, slope=0.2, eps=1e-5):
    """Group normalization of one [C, H, W] sample then LeakyReLU, via loops: each
    group's mean and (biased) variance over its channels and pixels, the affine
    gamma * xhat + beta, and slope times every value that is not positive."""
    c, h, w = x.shape
    per = c // groups
    out = np.zeros((c, h, w))
    for grp in range(groups):
        chans = range(grp * per, (grp + 1) * per)
        vals = [x[ch, i, j] for ch in chans for i in range(h) for j in range(w)]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        for ch in chans:
            for i in range(h):
                for j in range(w):
                    a = gamma[ch] * (x[ch, i, j] - mean) / np.sqrt(var + eps) + beta[ch]
                    out[ch, i, j] = a if a > 0 else slope * a
    return out


def window_mean3(x):
    """3x3 zero-padded mean with fixed divisor 9, via loops: per output pixel the
    three-tap sums (a + b) + c of rows i - 1, i and i + 1, added in that order,
    times 1/9 (the summation order of the library's box mean, so that float64
    results agree bit for bit)."""
    c, h, w = x.shape

    def at(ch, i, j):
        return x[ch, i, j] if 0 <= i < h and 0 <= j < w else 0.0

    out = np.zeros_like(x)
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                rows = [at(ch, i + u, j - 1) + at(ch, i + u, j) + at(ch, i + u, j + 1)
                        for u in (-1, 0, 1)]
                out[ch, i, j] = (rows[0] + rows[1] + rows[2]) * (1.0 / 9.0)
    return out


def window_mean3_grad(g):
    """Input gradient of :func:`window_mean3` for output gradient g: each output's
    gradient over 9, scattered back onto the pixels of its window."""
    c, h, w = g.shape
    gx = np.zeros((c, h, w))
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                for u in (-1, 0, 1):
                    for v in (-1, 0, 1):
                        ii, jj = i + u, j + v
                        if 0 <= ii < h and 0 <= jj < w:
                            gx[ch, ii, jj] += g[ch, i, j] / 9.0
    return gx


# The frequency descriptor's fixed filters and sqrt guard, restated
SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()
LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
EPS_MAGNITUDE = 1e-12


def _cue_parts(x):
    """Per-channel cue maps of [C, H, W] x and the responses their gradients read."""
    sx, sy = dense_dwconv2d(x, SOBEL_X), dense_dwconv2d(x, SOBEL_Y)
    lap = dense_dwconv2d(x, LAPLACIAN)
    m = window_mean3(x)
    pre = window_mean3(x * x) - m * m
    return {"f1": np.sqrt(sx * sx + sy * sy + EPS_MAGNITUDE),
            "f2": np.abs(lap),
            "f3": np.where(pre > 0, pre, 0.0 * pre)}, (sx, sy, lap, m)


def freq_descriptor(x, cues):
    """The frequency descriptor of [C, H, W] x: for each selected cue in (f1, f2,
    f3) order, its per-channel map (f1 the Sobel magnitude sqrt(sx^2 + sy^2 +
    1e-12), f2 the absolute Laplacian, f3 the 3x3 variance clamped at zero, 0 *
    value below) summed over channels from 0 in ascending order, over C."""
    maps, _ = _cue_parts(x)
    out = []
    for name in ("f1", "f2", "f3"):
        if name in cues:
            acc = np.zeros(x.shape[1:])
            for ch in range(x.shape[0]):
                acc += maps[name][ch]
            out.append(acc / x.shape[0])
    return np.stack(out)


def freq_descriptor_grad(x, cues, g):
    """Input gradient of :func:`freq_descriptor` for output gradient g, by the
    chain rule through the loop oracles: :func:`dense_dwconv2d_grads` for the
    filters, :func:`window_mean3_grad` for the box means."""
    maps, (sx, sy, lap, m) = _cue_parts(x)
    gx = np.zeros(x.shape)
    rows = iter(g)
    for name in ("f1", "f2", "f3"):
        if name not in cues:
            continue
        d = np.broadcast_to(next(rows) / x.shape[0], x.shape)
        if name == "f1":
            gx += dense_dwconv2d_grads(x, SOBEL_X, d * sx / maps["f1"])[0]
            gx += dense_dwconv2d_grads(x, SOBEL_Y, d * sy / maps["f1"])[0]
        elif name == "f2":
            gx += dense_dwconv2d_grads(x, LAPLACIAN, d * np.sign(lap))[0]
        else:
            dvar = d * (maps["f3"] > 0)
            gx += 2.0 * x * window_mean3_grad(dvar) - window_mean3_grad(2.0 * m * dvar)
    return gx


GRN_EPS = 1e-6


def _pointwise(w, x):
    """[Cout, H, W] = sum over input channels of w[o, c] * x[c], via a loop."""
    out = np.zeros((w.shape[0],) + x.shape[1:])
    for o in range(w.shape[0]):
        for c in range(x.shape[0]):
            out[o] += w[o, c] * x[c]
    return out


def _glu_parts(x, w_e, b_e, dw, gamma, beta):
    """The GLU chain of [C, H, W] x up to the response-normalized map: expand,
    split, sigmoid, depthwise 3x3, product, global response normalization."""
    e = dw.shape[0]
    h = _pointwise(w_e, x) + b_e[:, None, None]
    u, v = h[:e], h[e:]
    s = 1.0 / (1.0 + np.exp(-u))
    d = dense_dwconv2d(v, dw)
    z = s * d
    norms = np.array([np.sqrt((z[ch] ** 2).sum()) for ch in range(e)])
    denom = norms.mean() + GRN_EPS
    n = norms / denom
    normed = gamma[:, None, None] * (z * n[:, None, None]) + beta[:, None, None] + z
    return v, s, d, z, norms, denom, n, normed


def glu(x, w_e, b_e, dw, gamma, beta, w_p, b_p):
    """The composed gated channel mixing of one [C, H, W] sample: expand to 2E,
    sigmoid of the first half times the 3x3 depthwise of the second, global response
    normalization gamma (z n) + beta + z with n = |z_c| / (mean |z_c| + 1e-6), project."""
    normed = _glu_parts(x, w_e, b_e, dw, gamma, beta)[-1]
    return _pointwise(w_p, normed) + b_p[:, None, None]


def glu_grads(x, w_e, b_e, dw, gamma, beta, w_p, b_p, g):
    """Gradients of :func:`glu` for output gradient g, in argument order, by the chain
    rule back through each step of the composed chain."""
    v, s, d, z, norms, denom, n, normed = _glu_parts(x, w_e, b_e, dw, gamma, beta)
    e = dw.shape[0]
    g_wp = np.array([[(g[o] * normed[j]).sum() for j in range(e)] for o in range(g.shape[0])])
    g_normed = _pointwise(w_p.T, g)
    g_gamma = (g_normed * z * n[:, None, None]).sum(axis=(1, 2))
    dn = gamma * (g_normed * z).sum(axis=(1, 2))
    # n_j = norms_j / (mean(norms) + eps)
    dnorms = dn / denom - (dn * norms).sum() / (denom * denom * e)
    g_z = g_normed * (gamma * n + 1.0)[:, None, None]
    for ch in range(e):
        if norms[ch] > 0:
            g_z[ch] += dnorms[ch] * z[ch] / norms[ch]
    g_u = g_z * d * s * (1.0 - s)
    g_v, g_dw = dense_dwconv2d_grads(v, dw, g_z * s)
    g_h = np.concatenate([g_u, g_v])
    g_we = np.array([[(g_h[j] * x[c]).sum() for c in range(x.shape[0])] for j in range(2 * e)])
    return (_pointwise(w_e.T, g_h), g_we, g_h.sum(axis=(1, 2)), g_dw, g_gamma,
            g_normed.sum(axis=(1, 2)), g_wp, g.sum(axis=(1, 2)))


def window_variance3(x2d):
    """Per-pixel 3x3 variance (fixed divisor 9, zero padding), via loops."""
    h, w = x2d.shape
    out = np.zeros_like(x2d)
    for i in range(h):
        for j in range(w):
            vals = []
            for u in (-1, 0, 1):
                for v in (-1, 0, 1):
                    ii, jj = i + u, j + v
                    vals.append(x2d[ii, jj] if 0 <= ii < h and 0 <= jj < w else 0.0)
            arr = np.array(vals)
            out[i, j] = (arr**2).mean() - arr.mean() ** 2
    return out


def kernel_radial_dtft(h, v, n, num_angles):
    """Radially averaged real part of the 2-D DTFT of v (x) h on [0, pi].

    Complex exponentials summed tap by tap, one angle at a time; h runs
    along w1 = r cos(theta), v along w2 = r sin(theta), theta in [0, pi).
    """
    k = len(h)
    r = np.linspace(0.0, np.pi, n)
    offsets = np.arange(k) - (k - 1) / 2.0
    out = np.zeros(n)
    for theta in np.linspace(0.0, np.pi, num_angles, endpoint=False):
        eh = np.zeros(n, dtype=np.complex128)
        ev = np.zeros(n, dtype=np.complex128)
        for tap in range(k):
            eh += h[tap] * np.exp(-1j * r * np.cos(theta) * offsets[tap])
            ev += v[tap] * np.exp(-1j * r * np.sin(theta) * offsets[tap])
        out += (eh * ev).real
    return out / num_angles


def ssim(pred, gt):
    """Structural similarity of [N, T, C, H, W] batches, one frame and channel
    at a time: 11 x 11 Gaussian window of sigma 1.5 on valid patches, unit
    dynamic range, the mean over channels, then over the N*T frames."""
    from numpy.lib.stride_tricks import sliding_window_view

    k = 11
    offsets = np.arange(k, dtype=np.float64) - (k - 1) / 2.0
    w = np.exp(-(offsets**2) / (2.0 * 1.5 * 1.5))
    w = w / w.sum()

    def windowed(img):
        rows = sliding_window_view(img, k, axis=0) @ w
        return sliding_window_view(rows, k, axis=1) @ w

    c1, c2 = (0.01 * 1.0) ** 2, (0.03 * 1.0) ** 2
    n, t, c = pred.shape[:3]
    scores = np.empty((n, t))
    for i in range(n):
        for j in range(t):
            per_channel = []
            for ch in range(c):
                x, y = pred[i, j, ch], gt[i, j, ch]
                mu_x, mu_y = windowed(x), windowed(y)
                sig_x = windowed(x * x) - mu_x * mu_x
                sig_y = windowed(y * y) - mu_y * mu_y
                sig_xy = windowed(x * y) - mu_x * mu_y
                num = (2.0 * mu_x * mu_y + c1) * (2.0 * sig_xy + c2)
                den = (mu_x * mu_x + mu_y * mu_y + c1) * (sig_x + sig_y + c2)
                per_channel.append(float((num / den).mean()))
            scores[i, j] = float(np.mean(per_channel))
    return float(scores.mean())


def toeplitz(kernel, n):
    """Per-channel banded Toeplitz matrices [C, n, n] of [C, k] taps, each a
    reversed sliding window over the zero-padded, reversed taps."""
    from numpy.lib.stride_tricks import sliding_window_view

    c, k = kernel.shape
    p = (k - 1) // 2
    m = max(n - 1, p)
    taps = np.zeros((c, 2 * m + 1), dtype=kernel.dtype)
    taps[:, m - p : m + p + 1] = kernel[:, ::-1]  # taps[:, m + d] = kernel[:, p - d]
    # win[:, s, j] = taps[:, m - n + 1 + s + j]; row s = n - 1 - i gives taps[:, m + j - i]
    win = sliding_window_view(taps[:, m - n + 1 : m + n], n, axis=-1)
    return np.ascontiguousarray(win[:, ::-1, :])


def band_sums(m, k):
    """[C, k] sums of the k central diagonals of [..., C, n, n] matrices over the
    leading axes, read through ``as_strided`` from a buffer padded by p zero rows."""
    from numpy.lib.stride_tricks import as_strided

    c, n = m.shape[-3:-1]
    p = (k - 1) // 2
    mp = np.zeros((c, n + 2 * p, n), dtype=m.dtype)
    np.sum(m.reshape((-1, c, n, n)), axis=0, out=mp[:, p : p + n])
    step = mp.itemsize
    diagonals = as_strided(mp, (c, k, n), (mp.strides[0], n * step, (n + 1) * step))
    return diagonals.sum(axis=-1)


def adam_step(store, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step t (counted from 1), one parameter at a time: the per-name moment
    arrays in the dicts ``m`` and ``v`` update in place and every parameter of
    the store is rebound to its new value."""
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name in store.names():
        g = store.grad(name)
        mn = m[name]
        vn = v[name]
        mn *= beta1
        mn += (1.0 - beta1) * g
        vn *= beta2
        vn += (1.0 - beta2) * g * g
        update = (mn / bias1) / (np.sqrt(vn / bias2) + eps)
        p = store.var(name)
        p.value = p.value - (lr * update).astype(p.value.dtype)
