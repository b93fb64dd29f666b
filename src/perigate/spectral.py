"""Radial frequency responses, ring pass-band detection, and SNR optimality.

A composite center-surround filter H_L - beta * H_S acts as a ring band-pass
when its radial response is negative near DC, positive on a mid band, and
non-positive beyond it. This module samples real-valued radial responses on
[0, pi], detects that sign pattern, and solves the stationary equation of
SNR(beta) = (A - 2 beta B + beta^2 C) / (sigma^2 (At - 2 beta Bt + beta^2 Ct))
whose coefficients are quadrature integrals of the two responses against the
signal spectrum (plain Lebesgue weight for the noise side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import OrderedDict
from functools import cache, lru_cache
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .container import write_csv
from .errors import ConfigurationError, DegeneracyError, InputError

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

DEFAULT_SAMPLES = 1024
MIN_SAMPLES = 64
_EDGE = 1e-9  # beta domains are open: endpoints are approached this close
_BLOCK_BYTES = 2**20  # kernel spectra: a row block's Chebyshev rows and basis rows
_TABLE_BYTES = 2**23  # kernel spectra: the retained basis tables together
NUM_ANGLES = 64  # kernel spectra: directions over [0, pi) in the radial average
_BISECT_ITERS = 80  # ring edges on closed forms: halvings of a bracket at most
DERIVATIVE_TOL = 1e-8  # stationary roots: |dSNR/dbeta| over max(1, |SNR|) at most
# grid_check's betas per block: each of its three float64 buffers is 128 kB, under
# glibc's 128 KiB mmap threshold and in cache, and a call peaks under 400 KiB. Not
# ops.index_blocks: importing ops costs an analyze start 0.4-0.6 ms from bytecode,
# and 8-12 ms where ops.py is compiled from source at each start (no __pycache__).
_CHECK_BLOCK = 16_000


# ---------------------------------------------------------------------------
# Spectral models and sampled responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpDecay:
    """H(r) = exp(-rate * r); slowly decaying large-kernel stand-in."""

    rate: float

    def __call__(self, r):
        return np.exp(-self.rate * np.float64(r))


@dataclass(frozen=True)
class GaussianDecay:
    """H(r) = dc_gain * exp(-r^2 / (2 * variance)); fast-decaying small kernel.

    The explicit DC gain matters: with both responses normalized to 1 at DC
    and |beta| < 1 the composite can never dip below zero near DC, so a gain
    above 1/beta is what makes a ring realizable in parametric tests.
    """

    variance: float
    dc_gain: float = 1.0

    def __post_init__(self):
        if not self.variance > 0:
            raise InputError(f"gaussian variance must be positive, got {self.variance}")

    def __call__(self, r):
        r = np.float64(r)
        return self.dc_gain * np.exp(-(r * r) / (2.0 * self.variance))


@dataclass(frozen=True)
class SepKernel:
    """Separable kernel pair: row kernel ``h`` (1 x k) and column kernel ``v`` (k x 1)."""

    h: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if h.ndim != 1 or v.ndim != 1:
            raise ConfigurationError("separable kernel components must be 1-D")
        if h.shape[0] != v.shape[0]:
            raise ConfigurationError(
                f"row/column kernels must have equal length, got {h.shape[0]} and {v.shape[0]}"
            )
        if h.shape[0] % 2 == 0:
            raise ConfigurationError(f"kernel size must be odd, got {h.shape[0]}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)

    @property
    def k(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class FreqResponse:
    """Real-valued radial response sampled on :func:`grid` of its sample count.

    ``fn`` is the continuous evaluator when one exists (parametric models,
    compositions thereof); kernel-derived responses and the flat and band
    signal spectra are sampled-only.
    """

    values: np.ndarray
    fn: Optional[Callable] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ConfigurationError(f"response values must be 1-D, got shape {v.shape}")
        check_samples(v.size)
        if not np.all(np.isfinite(v)):
            raise InputError("response has non-finite samples")
        object.__setattr__(self, "values", v)

    @property
    def r(self) -> np.ndarray:
        return grid(self.values.size)


def check_samples(n: int):
    """Refuse a grid of fewer than MIN_SAMPLES points."""
    if n < MIN_SAMPLES:
        raise ConfigurationError(f"need at least {MIN_SAMPLES} samples, got {n}")


@lru_cache(maxsize=1)  # a query's responses all share one sample count
def grid(n: int = DEFAULT_SAMPLES) -> np.ndarray:
    """n uniform radii over [0, pi], built once and shared read-only."""
    check_samples(n)
    r = np.linspace(0.0, math.pi, n)
    r.flags.writeable = False
    return r


def response_from_function(fn: Callable, n: int = DEFAULT_SAMPLES) -> FreqResponse:
    """``fn`` sampled on the grid. An exponent of a closed form past the
    float64 range (exp:1e308, gauss:1e-320) stands for its limit, e^(-inf) = 0
    or e^(+inf) = inf, so that overflow neither raises nor warns here or where
    :func:`find_ring` refines a band on ``fn``."""
    r = grid(n)
    with np.errstate(over="ignore"):
        values = np.asarray(fn(r), dtype=np.float64)
    return FreqResponse(values, fn=fn)


def response_from_kernel(sk: SepKernel, n: int = DEFAULT_SAMPLES) -> FreqResponse:
    """Radially averaged real part of the centered 2-D DTFT of v (x) h, over
    :data:`NUM_ANGLES` directions.

    The real part keeps sign information (magnitude spectra cannot certify a
    ring). Radial symmetry of the real part under omega -> -omega lets the
    angular average run over [0, pi).

    The angles come in mirror pairs theta, pi - theta, which flip the sign of
    w1 and keep w2. Each factor's real part is even in its frequency and its
    imaginary part odd, so over a pair the Im_h * Im_v products cancel and
    the Re_h * Re_v products are equal: the average is Re_h * Re_v over
    theta in [0, pi/2], each angle weighted by its number of mirror images.
    With integer tap offsets -p..p, Re(w) = sum_o a_o T_o(cos w), where
    a_0 = h_0, a_o = h_o + h_-o and T_o is the Chebyshev polynomial. So the
    response at radius r is sum_ij a_i b_j M[r, i, j], with a and b the folded
    h and v taps and M[r, i, j] = sum_theta weight T_i(cos w1) T_j(cos w2):
    one [n, P^2] @ [P^2] product, P = p + 1, 2 n P^2 flops.

    M depends only on (n, P), so :func:`_basis_blocks` retains it for the next
    kernel at the same pair (2 MiB for k = 31 at n = 1024): the two kernels of a
    query, or the many kernels of one checkpoint, share it.
    """
    r = grid(n)
    p = (sk.k - 1) // 2
    taps = np.stack([sk.h, sk.v])
    coeffs = taps[:, p:] + taps[:, p::-1]
    coeffs[:, 0] = taps[:, p]
    products = np.outer(coeffs[0], coeffs[1]).ravel()
    values = np.empty(n)
    for rows, block in _basis_blocks(r, p + 1):
        np.matmul(block.reshape(-1, products.size), products, out=values[rows])
    return FreqResponse(values)


_tables: OrderedDict = OrderedDict()  # (n, P) -> read-only [n, P, P] basis


def _basis_blocks(r: np.ndarray, size: int):
    """(rows, M[rows]) over the row blocks of the [r.size, size, size] basis.

    Tables are retained, least recently used out first, within _TABLE_BYTES
    together. A table over that is built one row block at a time, as the caller
    reaches it, and never retained; its blocks and their contraction are the
    retained ones, so responses are bitwise the same. A block's Chebyshev rows
    and basis rows take at most _BLOCK_BYTES. A new table is built in place, in
    its own array: a retained array among freed temporaries would keep the heap
    around it resident."""
    n, angles = r.size, NUM_ANGLES // 2 + 1
    step = max(1, _BLOCK_BYTES // (8 * size * (2 * angles + size)))
    blocks = [slice(start, min(start + step, n)) for start in range(0, n, step)]
    key = (n, size)
    table = _tables.pop(key, None)
    if table is None:
        theta = np.linspace(0.0, math.pi, NUM_ANGLES, endpoint=False)[:angles]
        direction = np.stack([np.cos(theta), np.sin(theta)])  # w1 along h, w2 along v
        weight = np.r_[1.0, np.full(angles - 2, 2.0), 1.0] / NUM_ANGLES  # 0, pi/2: no mirror
        if 8 * n * size * size > _TABLE_BYTES:
            return ((rows, _basis_rows(r[rows], direction, weight, size)) for rows in blocks)
        table = np.empty((n, size, size))
        for rows in blocks:
            _basis_rows(r[rows], direction, weight, size, out=table[rows])
        table.flags.writeable = False
        while sum(t.nbytes for t in _tables.values()) + table.nbytes > _TABLE_BYTES:
            _tables.popitem(last=False)
    _tables[key] = table
    return [(rows, table[rows]) for rows in blocks]


def _basis_rows(r, direction, weight, size, out=None):
    """M at radii r. The Chebyshev rows T_i(cos w1) and weight * T_j(cos w2),
    [size, 2, rows, angles], come from T_(j+1) = 2x T_j - T_(j-1), one contiguous
    pass per degree; then one [size, angles] @ [angles, size] product per radius."""
    x = np.cos(r[:, None] * direction[:, None, :])  # [2, rows, angles]
    cheb = np.empty((size, 2, r.size, weight.size))
    cheb[0, 0] = 1.0
    cheb[0, 1] = weight
    if size > 1:
        np.multiply(cheb[0], x, out=cheb[1])
        x *= 2.0
        for j in range(2, size):
            np.multiply(x, cheb[j - 1], out=cheb[j])
            cheb[j] -= cheb[j - 2]
    return np.matmul(cheb[:, 0].transpose(1, 0, 2), cheb[:, 1].transpose(1, 2, 0), out=out)


def _same_grid(a: FreqResponse, b: FreqResponse):
    if a.values.size != b.values.size:
        raise ConfigurationError("frequency responses sampled on different grids")


def composite(h_l: FreqResponse, h_s: FreqResponse, beta: float) -> FreqResponse:
    """Pointwise H_L - beta * H_S on a shared grid."""
    _same_grid(h_l, h_s)
    if not math.isfinite(beta):
        raise InputError(f"beta must be finite, got {beta}")
    fn = None
    if h_l.fn is not None and h_s.fn is not None:
        fl, fs = h_l.fn, h_s.fn
        fn = lambda r: fl(r) - beta * fs(r)
    return FreqResponse(h_l.values - beta * h_s.values, fn=fn)


# ---------------------------------------------------------------------------
# Ring pass-band detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingBand:
    """Open interval (r1, r2) where the response is strictly positive."""

    r1: float
    r2: float
    multiple: bool = False  # more than one positive interval; this is the widest


def _bisect(fn, lo, hi, lo_positive: bool) -> float:
    """Locate the sign change of fn between lo and hi.

    Stops once the midpoint rounds onto an end of the bracket: the ends are
    then adjacent floats, and no later step can move the midpoint."""
    flo_pos = lo_positive
    with np.errstate(over="ignore"):  # closed-form limits, as in response_from_function
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return mid
            if (float(fn(mid)) > 0.0) == flo_pos:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def _interp_crossing(r0, v0, r1, v1) -> float:
    """The zero of the chord between a sample <= 0 and a sample > 0."""
    return r0 + (0.0 - v0) * (r1 - r0) / (v1 - v0)


def find_ring(h: FreqResponse) -> Optional[RingBand]:
    """Detect the sign pattern <=0, >0, <=0 and return the refined band.

    Positive runs touching either end of the grid do not qualify (no leading
    or trailing non-positive sample). With several qualifying runs the widest
    is returned and flagged.
    """
    v, r = h.values, h.r
    # a run starts where the padded mask rises and ends before it falls
    edges = np.flatnonzero(np.diff(np.concatenate(([False], v > 0.0, [False]))))
    starts, ends = edges[::2], edges[1::2] - 1
    inner = (starts > 0) & (ends < v.size - 1)
    if not inner.any():
        return None
    bands = []
    for start, end in zip(starts[inner].tolist(), ends[inner].tolist()):
        if h.fn is not None:
            r1 = _bisect(h.fn, r[start - 1], r[start], lo_positive=False)
            r2 = _bisect(h.fn, r[end], r[end + 1], lo_positive=True)
        else:
            r1 = _interp_crossing(r[start - 1], v[start - 1], r[start], v[start])
            r2 = _interp_crossing(r[end], v[end], r[end + 1], v[end + 1])
        bands.append((r1, r2))
    widths = [b[1] - b[0] for b in bands]
    best = int(np.argmax(widths))
    return RingBand(bands[best][0], bands[best][1], multiple=len(bands) > 1)


# ---------------------------------------------------------------------------
# SNR quadratic forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadCoeffs:
    """Quadrature coefficients of the SNR numerator/denominator quadratics.

    a, b, c weight the signal spectrum; at, bt, ct use unit weight with the
    white-noise power sigma2 factored out of the denominator.
    """

    a: float
    b: float
    c: float
    at: float
    bt: float
    ct: float
    sigma2: float

    def __post_init__(self):
        bad = [k for k, v in vars(self).items() if not math.isfinite(v)]
        if bad:
            raise InputError(f"non-finite SNR coefficient(s): {', '.join(bad)}")
        if self.sigma2 <= 0:
            raise ConfigurationError(f"noise power must be positive, got {self.sigma2}")


def quad_coeffs(
    h_l: FreqResponse, h_s: FreqResponse, p_s: FreqResponse, sigma2: float
) -> QuadCoeffs:
    """Trapezoidal quadrature of the six response integrals on a shared grid."""
    _same_grid(h_l, h_s)
    _same_grid(h_l, p_s)
    if np.any(p_s.values < 0):
        raise InputError("signal spectrum has negative samples")
    r = h_l.r
    hl, hs, ps = h_l.values, h_s.values, p_s.values

    def integral(y):
        return float(_trapezoid(y, r))

    return QuadCoeffs(
        a=integral(hl * hl * ps),
        b=integral(hl * hs * ps),
        c=integral(hs * hs * ps),
        at=integral(hl * hl),
        bt=integral(hl * hs),
        ct=integral(hs * hs),
        sigma2=float(sigma2),
    )


_VANISHED = "noise energy vanished; responses are linearly dependent at some beta"


def snr(beta, coeffs: QuadCoeffs):
    """SNR(beta); accepts a scalar, computed on numpy scalars, or an array of beta values."""
    beta = np.float64(beta)
    num = coeffs.a - 2.0 * beta * coeffs.b + beta * beta * coeffs.c
    den = coeffs.sigma2 * _noise_energy(beta, coeffs)
    if np.any(den <= 0):
        raise DegeneracyError(_VANISHED)
    out = num / den
    return float(out) if out.ndim == 0 else out


def _snr_into(coeffs: QuadCoeffs, two_beta, beta_sq, num, den, tmp):
    """SNR at a block of betas from their 2 beta and beta^2, written into ``num``
    and returned; ``den`` and ``tmp`` are scratch of ``num``'s size.

    N = (a - (2 beta) b) + (beta^2) c, then D = sigma2 ((at - (2 beta) bt) +
    (beta^2) ct), the refusal of D <= 0 and N / D: the ops of :func:`snr`'s
    expression in its order, each in place, so every value keeps its bits and
    an error is raised at the same op with the same text.
    """
    np.multiply(two_beta, coeffs.b, out=num)
    np.subtract(coeffs.a, num, out=num)
    np.add(num, np.multiply(beta_sq, coeffs.c, out=den), out=num)
    np.multiply(two_beta, coeffs.bt, out=den)
    np.subtract(coeffs.at, den, out=den)
    np.add(den, np.multiply(beta_sq, coeffs.ct, out=tmp), out=den)
    np.multiply(coeffs.sigma2, den, out=den)
    if np.any(den <= 0):
        raise DegeneracyError(_VANISHED)
    return np.divide(num, den, out=num)


def _noise_energy(beta, coeffs: QuadCoeffs):
    return coeffs.at - 2.0 * beta * coeffs.bt + beta * beta * coeffs.ct


def _is_pole(beta: float, coeffs: QuadCoeffs) -> bool:
    """Whether the noise energy vanishes at beta, relative to its terms' size."""
    size = abs(coeffs.at) + abs(2.0 * beta * coeffs.bt) + abs(beta * beta * coeffs.ct)
    return abs(_noise_energy(beta, coeffs)) <= 1e-12 * size


def stationary_polynomial(coeffs: QuadCoeffs) -> tuple[float, float, float]:
    """Coefficients (c2, c1, c0) of the stationary equation, a quadratic.

    Expanding (-B + beta C) * Dt(beta) = (-Bt + beta Ct) * N(beta) and
    collecting powers gives degree at most 3, but the cubic term C*Ct - Ct*C
    is exactly zero, in floating point too: multiplication commutes.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    at, bt, ct = coeffs.at, coeffs.bt, coeffs.ct
    return b * ct - c * bt, c * at - a * ct, a * bt - at * b


def _unit_scaled(coeffs: QuadCoeffs) -> tuple[QuadCoeffs, int]:
    """``coeffs`` with (A, B, C) and (At, Bt, Ct) each scaled by the power of
    two, 2^-e1 and 2^-e2, that brings its largest magnitude into [0.5, 1), and
    e1 - e2. The scaling is exact and the stationary equation is bilinear in
    the two triples, so its roots are unchanged, and its coefficients cannot
    overflow. The SNR of the scaled triples times 2^(e1 - e2) is the SNR."""

    def exponent(*values):
        return math.frexp(max(abs(v) for v in values))[1]

    e1 = exponent(coeffs.a, coeffs.b, coeffs.c)
    e2 = exponent(coeffs.at, coeffs.bt, coeffs.ct)
    return QuadCoeffs(*(math.ldexp(v, -e1) for v in (coeffs.a, coeffs.b, coeffs.c)),
                      *(math.ldexp(v, -e2) for v in (coeffs.at, coeffs.bt, coeffs.ct)),
                      coeffs.sigma2), e1 - e2


def _check_stationary(beta: float, coeffs: QuadCoeffs):
    """Raise :class:`DegeneracyError` unless |dSNR/dbeta| <= DERIVATIVE_TOL max(1, |SNR|)
    at beta, up to 8 epsilon of the magnitudes of the derivative's terms and 8
    subnormal units, the rounding of products that underflow.

    dSNR/dbeta = 2 P / (sigma2 Dt^2), P = (beta C - B) Dt - (beta Ct - Bt) N the
    stationary equation's residual. It is read without dividing, in Python
    floats (an overflow reads inf or nan, unwarned), on the :func:`_unit_scaled`
    triples, where N, Dt and P shrink by 2^-e1, 2^-e2 and 2^-(e1 + e2); so the
    test reads |2P| <= DERIVATIVE_TOL max(sigma2 2^(e2 - e1) Dt^2, |N Dt|) there.
    """
    q, shift = _unit_scaled(coeffs)
    num, den = q.a - 2.0 * beta * q.b + beta * beta * q.c, _noise_energy(beta, q)
    residual = 2.0 * ((beta * q.c - q.b) * den - (beta * q.ct - q.bt) * num)  # N'Dt - NDt'
    num_size = abs(q.a) + abs(2.0 * beta * q.b) + abs(beta * beta * q.c)
    den_size = abs(q.at) + abs(2.0 * beta * q.bt) + abs(beta * beta * q.ct)
    terms = 2.0 * ((abs(beta * q.c) + abs(q.b)) * den_size
                   + (abs(beta * q.ct) + abs(q.bt)) * num_size)
    with np.errstate(over="ignore"):  # sigma2 2^(e2 - e1), held finite so that 0 * it is 0
        floor = min(float(np.ldexp(q.sigma2, -shift)), np.finfo(float).max)
    bound = (DERIVATIVE_TOL * max(floor * den * den, abs(num * den))
             + 8.0 * (np.finfo(float).eps * terms + np.finfo(float).smallest_subnormal))
    if not abs(residual) <= bound:
        raise DegeneracyError(f"stationary root {beta} fails the derivative check: |dSNR/dbeta|"
                              f" sigma2 Dt^2 = {abs(residual):.3e} exceeds {bound:.3e}"
                              " on unit-scaled coefficients")


def stationary_betas(coeffs: QuadCoeffs) -> list[float]:
    """All real roots of the stationary equation, ascending.

    Coefficients within 1e-12 of the largest product in them read as zero; a
    vanishing c2 leaves the root -c0/c1, if any. Otherwise the roots are q/c2
    and c0/q, q = -(c1 + sign(c1) sqrt(disc))/2, free of cancellation; a pair
    complex only through rounding (imaginary part at most 1e-9 max(1, |real
    part|)) is kept as its real part. A zero root is +0.0. Each root is verified
    to zero the SNR derivative, to :data:`DERIVATIVE_TOL` times max(1, |SNR|), by
    :func:`_check_stationary`. When At*Ct = Bt^2 the double root Bt/Ct of the
    noise energy also solves the equation; it is a pole of the SNR, not a
    stationary point, and is dropped. :class:`DegeneracyError` is raised for a
    noise energy that is negative somewhere (At < 0, Ct < 0 or Bt^2 > At*Ct),
    which no pair of real responses gives, and for a root that fails the check.
    """
    unit, _ = _unit_scaled(coeffs)
    gram = unit.at * unit.ct
    # signs from the raw At and Ct: scaling by their triple's largest magnitude
    # can flush either to -0
    if coeffs.at < 0 or coeffs.ct < 0 or unit.bt * unit.bt - gram > 1e-12 * max(gram, 1e-300):
        raise DegeneracyError(
            "noise energy At - 2 beta Bt + beta^2 Ct is negative for some beta"
        )
    c2, c1, c0 = stationary_polynomial(unit)
    magnitude = max(
        abs(unit.a * unit.bt), abs(unit.at * unit.b),
        abs(unit.c * unit.at), abs(unit.a * unit.ct),
        abs(unit.b * unit.ct), abs(unit.c * unit.bt), 1e-300,
    )
    tol = 1e-12 * magnitude
    if max(abs(c2), abs(c1), abs(c0)) <= tol:
        raise DegeneracyError("stationary equation vanishes identically; SNR is constant")
    if abs(c2) <= tol:
        real = [] if abs(c1) <= tol else [-c0 / c1]
    else:  # scaled exactly to unit size, so that disc cannot underflow
        c2, c1, c0 = (math.ldexp(v, -math.frexp(magnitude)[1]) for v in (c2, c1, c0))
        disc = c1 * c1 - 4.0 * c2 * c0
        q = -0.5 * (c1 + math.copysign(math.sqrt(max(disc, 0.0)), c1))
        if disc < 0.0 and math.sqrt(-disc) > 2e-9 * max(abs(c2), abs(q)):
            real = []  # a complex pair, its imaginary part over 1e-9 max(1, |real part|)
        else:
            real = [q / c2, c0 / q] if q != 0.0 else [0.0]
    real = [x + 0.0 for x in real if not _is_pole(x, coeffs)]  # x + 0.0: a zero root is +0.0
    for x in real:  # checked before rounding, which would move a root near 0 onto 0
        _check_stationary(x, coeffs)
    return sorted(set(round(x, 14) for x in real))


def optimal_beta(coeffs: QuadCoeffs) -> tuple[float, float]:
    """SNR-maximizing beta over the open interval (-1, 1).

    Candidates are the in-domain stationary roots plus the endpoints
    approached at a 1e-9 offset. A pole of the SNR (see
    :func:`stationary_betas`) in [-1, 1] has no maximizer and raises
    :class:`DegeneracyError`; so does a noise energy whose minimum there is
    within 1e-12 of its largest coefficient, a pole at float64 resolution.
    :func:`grid_check` cross-checks the result against a dense grid.
    """
    roots = stationary_betas(coeffs)
    unit, _ = _unit_scaled(coeffs)
    pole = unit.bt / unit.ct if unit.ct != 0 else None
    if pole is not None and -1.0 <= pole <= 1.0 and _noise_energy(pole, unit) <= 1e-12:
        raise DegeneracyError(f"noise energy vanishes at beta = {pole:.9g}: the SNR has a pole")
    candidates = [r for r in roots if -1.0 < r < 1.0] + [-1.0 + _EDGE, 1.0 - _EDGE]
    values = [snr(b, coeffs) for b in candidates]
    best = int(np.argmax(values))
    return candidates[best], values[best]


def open_betas(n: int) -> np.ndarray:
    """n betas evenly spanning the open domain (-1, 1), approached _EDGE in from
    each end: beta = +-1 can zero the noise energy for dependent spectra."""
    return np.linspace(-1.0 + _EDGE, 1.0 - _EDGE, n)


@cache
def _check_tables() -> tuple[np.ndarray, np.ndarray]:
    """2 beta and beta^2 over grid_check's betas, built once and shared read-only
    by every call: the values :func:`snr` would form from each beta, bit for bit."""
    betas = open_betas(100_000)
    tables = 2.0 * betas, betas * betas
    for table in tables:
        table.flags.writeable = False
    return tables


def grid_check(coeffs: QuadCoeffs, snr_star: float) -> tuple[bool, float]:
    """Whether snr_star reaches the SNR maximum on a dense grid, and that maximum.

    The grid's 100,000 points are :func:`open_betas`; snr_star may fall short of
    the grid maximum by at most 1e-9 times max(1, |grid maximum|). The maximum
    is taken over blocks of _CHECK_BLOCK betas, each computed by :func:`_snr_into`
    from the retained :func:`_check_tables` into three buffers of the call, and is
    the dense one bit for bit; np.max over the block maxima keeps a NaN, as the
    dense maximum does.
    """
    two_beta, beta_sq = _check_tables()
    buffers = [np.empty(_CHECK_BLOCK) for _ in range(3)]
    maxima = []
    for i in range(0, two_beta.size, _CHECK_BLOCK):
        rows = slice(i, i + _CHECK_BLOCK)
        num, den, tmp = (b[: two_beta[rows].size] for b in buffers)
        maxima.append(np.max(_snr_into(coeffs, two_beta[rows], beta_sq[rows], num, den, tmp)))
    grid_max = float(np.max(maxima))
    return snr_star >= grid_max - 1e-9 * max(1.0, abs(grid_max)), grid_max


def snr_advantage(coeffs: QuadCoeffs) -> Optional[float]:
    """A beta with SNR(beta) strictly above SNR(0), or None when no gain exists.

    The improvement margin Delta(beta) = -2 beta p + beta^2 q with
    p = B*At - A*Bt and q = C*At - A*Ct is positive exactly where the
    composite beats the plain large-kernel filter. Proportional responses
    (tiny Gram determinant At*Ct - Bt^2) have Delta identically zero. When
    p = 0 and q < 0, Delta is never positive: no advantage exists even
    though the responses are independent, and None is returned. All of it is
    read on the :func:`_unit_scaled` triples: the answer does not depend on units.
    """
    unit, _ = _unit_scaled(coeffs)
    gram = unit.at * unit.ct - unit.bt * unit.bt
    if gram <= 1e-12:
        return None
    p = unit.b * unit.at - unit.a * unit.bt
    q = unit.c * unit.at - unit.a * unit.ct
    magnitude = max(
        abs(unit.b * unit.at), abs(unit.a * unit.bt),
        abs(unit.c * unit.at), abs(unit.a * unit.ct), 1e-300,
    )
    tol = 1e-12 * magnitude
    p = 0.0 if abs(p) <= tol else p
    q = 0.0 if abs(q) <= tol else q
    if p == 0.0 and q <= 0.0:
        return None
    if q == 0.0:
        candidate = -math.copysign(1.0, p)
    elif q > 0.0:
        r1 = 2.0 * p / q
        candidate = max(0.0, r1) + max(1.0, abs(r1))
    else:  # q < 0, p != 0: positive strictly between the roots 0 and 2p/q
        candidate = p / q
    base = snr(0.0, unit)
    if snr(candidate, unit) > base:
        return candidate
    # fallback sweep for near-degenerate scaling
    for t in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0):
        for s in (-1.0, 1.0):
            if snr(s * t, unit) > base:
                return s * t
    return None


# ---------------------------------------------------------------------------
# Spectra helpers and CSV emission
# ---------------------------------------------------------------------------


def flat_spectrum(n: int = DEFAULT_SAMPLES) -> FreqResponse:
    return FreqResponse(np.ones_like(grid(n)))


def band_spectrum(lo: float, hi: float, n: int = DEFAULT_SAMPLES) -> FreqResponse:
    if not (0.0 <= lo < hi and math.isfinite(hi)):
        raise InputError(f"invalid band [{lo}, {hi}]")
    r = grid(n)
    return FreqResponse(((r >= lo) & (r <= hi)).astype(np.float64))


def write_ring_csv(
    path, h_l: FreqResponse, h_s: FreqResponse, h_beta: FreqResponse, band: Optional[RingBand]
):
    """Per-sample response table: r, H_L, H_S, H_beta, ring_flag."""
    _same_grid(h_l, h_s)
    _same_grid(h_l, h_beta)
    rows = ([f"{r:.12g}", f"{hl:.12g}", f"{hs:.12g}", f"{hb:.12g}",
             int(band is not None and band.r1 < r < band.r2)]
            for r, hl, hs, hb in zip(h_l.r, h_l.values, h_s.values, h_beta.values))
    write_csv(path, chain([["r", "H_L", "H_S", "H_beta", "ring_flag"]], rows))


def write_snr_sweep_csv(path, betas: np.ndarray, values: np.ndarray):
    rows = ([f"{b:.12g}", f"{s:.12g}"] for b, s in zip(betas, values))
    write_csv(path, chain([["beta", "snr"]], rows))
