"""Independent loop-level oracles for the vectorized kernels.

These stay deliberately dumb: explicit Python loops over output elements,
nothing shared with the library implementations. The strided-view Toeplitz
and band sums, the per-parameter Adam step, center suppression and fusion
composed from the arithmetic ops, the frequency descriptor's vjp that
recomputes its maps, the GLU with its bias passes, the model's prediction
with one encoder and one decoder call per frame, the SNR as one allocating
expression and its grid maximum, the ring bisection with all its halvings, the
ring's positive runs found by a scan over each sample, the closed forms and
their composite evaluated on 0-d arrays and the stride-2 conv's input gradient
through a zero-interleaved map are earlier forms of library code, kept as bitwise
references.
"""

from functools import partial

import numpy as np

from perigate import autodiff as ad
from perigate import ops, spectral
from perigate.errors import DegeneracyError


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


def conv2d_stride2_input_grad(g, weight, hh, ww):
    """Input gradient [..., Ci, H, W] of a stride-2 ``ops.conv2d`` of an H x W map for
    the output gradient g [..., Co, Ho, Wo]: g interleaved with zeros over H x W
    (``gs[..., ::2, ::2] = g``), then ``ops.conv2d`` on the flipped [Ci, Co, k, k] kernel."""
    gs = np.zeros(g.shape[:-2] + (hh, ww), dtype=g.dtype)
    gs[..., ::2, ::2] = g
    return ops.conv2d(gs, weight[:, :, ::-1, ::-1].swapaxes(0, 1))


def upsample_conv2d(x, weight):
    """Nearest 2x upsampling of one [Ci, H, W] sample by ``np.repeat``, then the loop
    conv oracle without bias: [Co, 2H, 2W]."""
    return dense_conv2d(np.repeat(np.repeat(x, 2, axis=-2), 2, axis=-1), weight, None)


def upsample_conv2d_grads(x, weight, g):
    """Input gradient [Ci, H, W] and weight gradient of :func:`upsample_conv2d` for
    output gradient g: the loop conv oracle's on the upsampled map, each input pixel
    taking the sum over its 2 x 2 cell."""
    gu, gw, _ = dense_conv2d_grads(np.repeat(np.repeat(x, 2, axis=-2), 2, axis=-1), weight, g)
    gx = np.zeros(x.shape)
    for i in range(x.shape[1]):
        for j in range(x.shape[2]):
            gx[:, i, j] = gu[:, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].sum(axis=(1, 2))
    return gx, gw


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


def snr_expression(beta, coeffs):
    """SNR(beta) over an array of betas as one numpy expression, each temporary
    allocated: (A - 2 beta B + beta^2 C) / (sigma2 (At - 2 beta Bt + beta^2 Ct)),
    refusing a noise energy <= 0 anywhere."""
    num = coeffs.a - 2.0 * beta * coeffs.b + beta * beta * coeffs.c
    den = coeffs.sigma2 * (coeffs.at - 2.0 * beta * coeffs.bt + beta * beta * coeffs.ct)
    if np.any(den <= 0):
        raise DegeneracyError(
            "noise energy vanished; responses are linearly dependent at some beta")
    return num / den


def grid_snr_max(coeffs, block=100_000):
    """The SNR maximum on the beta grid check's 100,000 points: :func:`snr_expression`
    on each run of ``block`` betas in turn (by default one dense array), then the
    largest block maximum."""
    betas = np.linspace(-1 + 1e-9, 1 - 1e-9, 100_000)
    return np.max([np.max(snr_expression(betas[i : i + block], coeffs))
                   for i in range(0, betas.size, block)])


def companion_stationary_betas(coeffs):
    """spectral.stationary_betas by way of a companion-matrix eigensolve: the cubic
    (C Ct - Ct C, c2, c1, c0) of the unit-scaled coefficients, leading entries at most
    1e-12 of the largest product stripped, np.roots, the roots real to 1e-9 polished by
    three Newton steps; then the same noise-energy, constant-SNR, pole and derivative
    checks and 14-decimal rounding."""
    unit, _ = spectral._unit_scaled(coeffs)
    gram = unit.at * unit.ct
    if coeffs.at < 0 or coeffs.ct < 0 or unit.bt * unit.bt - gram > 1e-12 * max(gram, 1e-300):
        raise DegeneracyError(
            "noise energy At - 2 beta Bt + beta^2 Ct is negative for some beta")
    a, b, c, at, bt, ct = unit.a, unit.b, unit.c, unit.at, unit.bt, unit.ct
    poly = np.array([c * ct - ct * c, b * ct - c * bt, c * at - a * ct, a * bt - at * b])
    magnitude = max(abs(a * bt), abs(at * b), abs(c * at), abs(a * ct), abs(b * ct),
                    abs(c * bt), 1e-300)
    tol = 1e-12 * magnitude
    if np.all(np.abs(poly) <= tol):
        raise DegeneracyError(
            "stationary equation vanishes identically; SNR is constant")
    lead = 0
    while abs(poly[lead]) <= tol:
        lead += 1
    trimmed = poly[lead:]
    if trimmed.size == 1:
        return []
    real = []
    for z in np.roots(trimmed):
        if abs(z.imag) > 1e-9 * max(1.0, abs(z.real)):
            continue
        x = float(z.real)
        for _ in range(3):
            dp = np.polyval(np.polyder(trimmed), x)
            if dp == 0:
                break
            x -= np.polyval(trimmed, x) / dp
        real.append(x)
    real = [x for x in real if not spectral._is_pole(x, coeffs)]
    for x in real:
        spectral._check_stationary(float(x), coeffs)
    return sorted(set(round(x, 14) for x in real))


def bisect80(fn, lo, hi, lo_positive):
    """The sign change of fn between lo and hi after all 80 halvings."""
    with np.errstate(over="ignore"):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (float(fn(mid)) > 0.0) == lo_positive:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def closed_form_0d(form):
    """An ExpDecay or GaussianDecay evaluated on a 0-d float64 array, as the closed
    forms once evaluated a scalar radius."""

    def fn(r):
        r = np.asarray(r, dtype=np.float64)
        if isinstance(form, spectral.ExpDecay):
            return np.exp(-form.rate * r)
        return form.dc_gain * np.exp(-(r * r) / (2.0 * form.variance))

    return fn


def composite_0d(fl, fs, beta):
    """spectral.composite's closed form H_L - beta * H_S on 0-d arrays, as it once was."""
    return lambda r: np.asarray(fl(r)) - beta * np.asarray(fs(r))


def positive_runs(v):
    """(first, last) index of each run of samples > 0 with a sample on either side."""
    n, runs, i = len(v), [], 0
    while i < n:
        if v[i] > 0.0:
            j = i
            while j + 1 < n and v[j + 1] > 0.0:
                j += 1
            if i > 0 and j < n - 1:
                runs.append((i, j))
            i = j + 1
        else:
            i += 1
    return runs


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
    for p in store.variables():
        g = store.grad(p.name)
        mn = m[p.name]
        vn = v[p.name]
        mn *= beta1
        mn += (1.0 - beta1) * g
        vn *= beta2
        vn += (1.0 - beta2) * g * g
        update = (mn / bias1) / (np.sqrt(vn / bias2) + eps)
        p.value = p.value - (lr * update).astype(p.value.dtype)


def split_channels(x, sizes):
    """Traced channel slices of x, one node each: a slice's gradient is g in its
    channels and zero in the others."""
    xv, out, lo = x.value, [], 0
    for s in sizes:

        def vjp(g, lo=lo, hi=lo + s):
            gx = np.zeros_like(xv)
            gx[..., lo:hi, :, :] = g
            return (gx,)

        out.append(ad._track(xv[..., lo : lo + s, :, :], (x,), vjp))
        lo += s
    return out


def center_suppress(p_k, center_response, coefficient):
    """P_k - coefficient * center_response as two traced ops: ``sub`` of a ``mul`` by
    a [C] coefficient, or of a ``scale`` by a float."""
    if isinstance(coefficient, float):
        return ad.sub(p_k, ad.scale(center_response, coefficient))
    return ad.sub(p_k, ad.mul(center_response, coefficient))


def fuse(alpha, responses):
    """sum_k alpha_k * Y_k as traced ops: alpha split into channel slices, one ``mul``
    per scale, the products added in ascending k."""
    slices = split_channels(alpha, [1] * len(responses))
    total = None
    for a_k, y_k in zip(slices, responses):
        term = ad.mul(y_k, a_k)
        total = term if total is None else ad.add(total, term)
    return total


def glu_bias_passes(x, w_e, b_e, dw, gamma, beta, w_p, b_p, keep=False):
    """``ops.glu`` as it computed the gated map before the expand GEMM read padded
    rows: per hidden block the gate rows and the value rows as two GEMMs on x, each
    bias added in a pass of its own, the sigmoid in four passes and the value rows
    zero-padded again by ``ops.dwconv_2d``. Returns ``(out, saved)`` as ``ops.glu``."""
    e = dw.shape[0]
    lead, (c, hh, ww) = x.shape[:-3], x.shape[-3:]
    x2 = x.reshape(lead + (c, hh * ww))
    z = np.empty(lead + (e, hh, ww), dtype=np.result_type(w_e, x, dw))
    norms = np.empty(lead + (e,), dtype=z.dtype)
    sig_all, d_all = np.empty(z.shape, np.result_type(w_e, x)), np.empty_like(z)
    for sl in ops.index_blocks(e, hh * ww * x.itemsize):
        shape = lead + (sl.stop - sl.start, hh, ww)
        sig = w_e[sl] @ x2
        sig += b_e[sl, None]
        np.exp(np.negative(sig, out=sig), out=sig)
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        v = w_e[e + sl.start : e + sl.stop] @ x2
        v += b_e[e + sl.start : e + sl.stop, None]
        d = ops.dwconv_2d(v.reshape(shape), dw[sl])
        zb = np.multiply(sig.reshape(shape), d, out=z[..., sl, :, :])
        norms[..., sl] = np.sqrt(np.einsum("...hw,...hw->...", zb, zb))
        sig_all[..., sl, :, :], d_all[..., sl, :, :] = sig.reshape(shape), d
    denom = norms.mean(axis=-1, keepdims=True) + ops.GRN_EPS
    n = norms / denom
    out = (w_p * (gamma * n + 1)[..., None, :]) @ z.reshape(lead + (e, hh * ww))
    out += (w_p @ beta + b_p)[:, None]
    return out.reshape(x.shape), (sig_all, d_all, z, norms, denom, n) if keep else None


def freq_descriptor_vjp(xv, cues, g):
    """Input gradient of ``ops.freq_descriptor`` that recomputes, per channel block,
    the padded rows and the cue maps the forward built."""
    wp = xv.shape[-1] + 2
    d = ops.wrap_padded(g / xv.shape[-3], 3)
    gx = np.empty(xv.shape, dtype=xv.dtype)
    for sl in ops.index_blocks(xv.shape[-3], xv[..., 0, :, :].nbytes):
        f = ops.flat_rows(xv[..., sl, :, :], 3)[..., 0, :, :]
        pad = np.zeros_like(f)
        inner = pad[..., wp + 1 : 1 - 2 * wp]

        def adjoint(q, kernel=None):
            inner[...] = q
            return ops.box_mean3(pad, wp) if kernel is None else ops.stencil3(
                pad, kernel[::-1, ::-1], wp)

        acc = np.zeros_like(inner)
        for i, name in enumerate(c for c in ops.CUE_NAMES if c in cues):
            di = d[..., i : i + 1, :]
            cue, saved = ops.cue_maps(f, wp, name)
            if name == "f1":
                acc += adjoint(di / cue * saved[0], ops.SOBEL_X)
                acc += adjoint(di / cue * saved[1], ops.SOBEL_Y)
            elif name == "f2":
                acc += adjoint(di * np.sign(saved[0]), ops.LAPLACIAN)
            else:
                dvar2 = 2 * di * (cue > 0)
                acc += f[..., wp + 1 : 1 - 2 * wp] * adjoint(dvar2) - adjoint(saved[0] * dvar2)
        gx[..., sl, :, :] = acc.reshape(acc.shape[:-1] + (-1, wp))[..., :-2]
    return gx


def pack_time(frames):
    """Per-frame features [..., C, h, w] packed along channels in time order."""
    return ad.concat_channels(frames)


def unpack_time(z, t):
    """The inverse of :func:`pack_time`: t equal channel slices."""
    c_total = z.value.shape[-3]
    return split_channels(z, [c_total // t] * t)


def model_predict(model, frames, mode="eval", drop_draw=None, internals=None):
    """``Model.predict`` as one ``encode_frame`` and one ``decode_frame`` call per
    frame: each pass encodes every input frame, packs the features, translates,
    unpacks and decodes the frames still needed."""
    cfg = model.config
    current = list(frames)
    outputs = []
    for pass_idx in range((cfg.t_out + cfg.t_in - 1) // cfg.t_in):
        feats, skips = zip(*(model.encode_frame(f) for f in current))
        draw = partial(drop_draw, pass_idx) if drop_draw is not None else None
        z = model.translate(pack_time(list(feats)), mode=mode, drop_draw=draw,
                            internals=internals if pass_idx == 0 else None)
        parts = unpack_time(z, cfg.t_in)
        keep = min(cfg.t_in, cfg.t_out - len(outputs))
        outputs.extend(model.decode_frame(parts[t], skips[t]) for t in range(keep))
        current = outputs[-cfg.t_in :]
    return outputs
