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

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .container import atomic_write
from .errors import ConfigurationError, DegeneracyError, InputError, NumericError

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

DEFAULT_SAMPLES = 1024
MIN_SAMPLES = 64
_EDGE = 1e-9  # beta domains are open: endpoints are approached this close


# ---------------------------------------------------------------------------
# Spectral models and sampled responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpDecay:
    """H(r) = exp(-rate * r); slowly decaying large-kernel stand-in."""

    rate: float

    def __call__(self, r):
        return np.exp(-self.rate * np.asarray(r, dtype=np.float64))


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
        r = np.asarray(r, dtype=np.float64)
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

    def outer(self) -> np.ndarray:
        """Equivalent dense 2-D kernel v (x) h."""
        return np.outer(self.v, self.h)


@dataclass(frozen=True)
class FreqResponse:
    """Real-valued radial response sampled on a uniform grid over [0, pi].

    ``fn`` is the continuous evaluator when one exists (parametric models,
    compositions thereof); kernel-derived responses are sampled-only.
    """

    r: np.ndarray
    values: np.ndarray
    fn: Optional[Callable] = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if r.ndim != 1 or r.shape != v.shape:
            raise ConfigurationError("grid and values must be equal-length 1-D arrays")
        if r.size < MIN_SAMPLES:
            raise ConfigurationError(f"grid needs at least {MIN_SAMPLES} samples, got {r.size}")
        if not (math.isclose(r[0], 0.0, abs_tol=1e-15) and math.isclose(r[-1], math.pi)):
            raise ConfigurationError("grid must span [0, pi]")
        if np.any(np.diff(r) <= 0):
            raise ConfigurationError("grid must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise InputError("response has non-finite samples")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "values", v)


def grid(n: int = DEFAULT_SAMPLES) -> np.ndarray:
    if n < MIN_SAMPLES:
        raise ConfigurationError(f"need at least {MIN_SAMPLES} samples, got {n}")
    return np.linspace(0.0, math.pi, n)


def response_from_function(fn: Callable, n: int = DEFAULT_SAMPLES) -> FreqResponse:
    r = grid(n)
    return FreqResponse(r, np.asarray(fn(r), dtype=np.float64), fn=fn)


def response_from_kernel(
    sk: SepKernel, n: int = DEFAULT_SAMPLES, num_angles: int = 64
) -> FreqResponse:
    """Radially averaged real part of the centered 2-D DTFT of v (x) h.

    The real part keeps sign information (magnitude spectra cannot certify a
    ring). Radial symmetry of the real part under omega -> -omega lets the
    angular average run over [0, pi).

    The angles come in mirror pairs theta, pi - theta, which flip the sign of
    w1 and keep w2. Each factor's real part is even in its frequency and its
    imaginary part odd, so over a pair the Im_h * Im_v products cancel and
    the Re_h * Re_v products are equal: the average is Re_h * Re_v over
    theta in [0, pi/2], each angle weighted by its number of mirror images.
    With integer tap offsets -p..p, Re(w) = sum_o a_o cos(o w), where
    a_0 = h_0 and a_o = h_o + h_-o, is summed by Clenshaw's recurrence in
    cos w: O(n * angles * k) time and O(n * angles) memory.
    """
    if num_angles < 1:
        raise ConfigurationError(f"need at least one angle, got {num_angles}")
    r = grid(n)
    p = (sk.k - 1) // 2
    theta = np.linspace(0.0, math.pi, num_angles, endpoint=False)[: num_angles // 2 + 1]
    w1 = r[:, None] * np.cos(theta)[None, :]  # along columns (h)
    w2 = r[:, None] * np.sin(theta)[None, :]  # along rows (v)
    x = np.cos(np.stack([w1, w2]))
    taps = np.stack([sk.h, sk.v])
    coeffs = taps[:, p:] + taps[:, p::-1]
    coeffs[:, 0] = taps[:, p]
    two_x = 2.0 * x
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for j in range(p, -1, -1):  # b_j = a_j + 2 x b_(j+1) - b_(j+2)
        b0 = two_x * b1
        b0 -= b2
        b0 += coeffs[:, j, None, None]
        b1, b2 = b0, b1
    re_h, re_v = b1 - x * b2  # sum_j a_j T_j(x) = b_0 - x b_1
    a = np.arange(theta.size)
    weight = np.where((a == 0) | (2 * a == num_angles), 1.0, 2.0) / num_angles
    return FreqResponse(r, (re_h * re_v) @ weight)


def _same_grid(a: FreqResponse, b: FreqResponse):
    if a.r.shape != b.r.shape or not np.array_equal(a.r, b.r):
        raise ConfigurationError("frequency responses sampled on different grids")


def composite(h_l: FreqResponse, h_s: FreqResponse, beta: float) -> FreqResponse:
    """Pointwise H_L - beta * H_S on a shared grid."""
    _same_grid(h_l, h_s)
    fn = None
    if h_l.fn is not None and h_s.fn is not None:
        fl, fs = h_l.fn, h_s.fn
        fn = lambda r: np.asarray(fl(r)) - beta * np.asarray(fs(r))
    return FreqResponse(h_l.r, h_l.values - beta * h_s.values, fn=fn)


# ---------------------------------------------------------------------------
# Ring pass-band detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingBand:
    """Open interval (r1, r2) where the response is strictly positive."""

    r1: float
    r2: float
    multiple: bool = False  # more than one positive interval; this is the widest


def _bisect(fn, lo, hi, lo_positive: bool, iters: int = 80) -> float:
    """Locate the sign change of fn between lo and hi."""
    flo_pos = lo_positive
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (float(fn(mid)) > 0.0) == flo_pos:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _interp_crossing(r0, v0, r1, v1) -> float:
    if v1 == v0:
        return r0
    return r0 + (0.0 - v0) * (r1 - r0) / (v1 - v0)


def find_ring(h: FreqResponse) -> Optional[RingBand]:
    """Detect the sign pattern <=0, >0, <=0 and return the refined band.

    Positive runs touching either end of the grid do not qualify (no leading
    or trailing non-positive sample). With several qualifying runs the widest
    is returned and flagged.
    """
    v = h.values
    n = v.size
    runs = []
    i = 0
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
    if not runs:
        return None
    bands = []
    for start, end in runs:
        if h.fn is not None:
            r1 = _bisect(h.fn, h.r[start - 1], h.r[start], lo_positive=False)
            r2 = _bisect(h.fn, h.r[end], h.r[end + 1], lo_positive=True)
        else:
            r1 = _interp_crossing(h.r[start - 1], v[start - 1], h.r[start], v[start])
            r2 = _interp_crossing(h.r[end], v[end], h.r[end + 1], v[end + 1])
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


def quad_coeffs(
    h_l: FreqResponse, h_s: FreqResponse, p_s: FreqResponse, sigma2: float
) -> QuadCoeffs:
    """Trapezoidal quadrature of the six response integrals on a shared grid."""
    _same_grid(h_l, h_s)
    _same_grid(h_l, p_s)
    if sigma2 <= 0:
        raise ConfigurationError(f"noise power must be positive, got {sigma2}")
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


def snr(beta, coeffs: QuadCoeffs):
    """SNR(beta); accepts a scalar or an array of beta values."""
    beta = np.asarray(beta, dtype=np.float64)
    num = coeffs.a - 2.0 * beta * coeffs.b + beta * beta * coeffs.c
    den = coeffs.sigma2 * (coeffs.at - 2.0 * beta * coeffs.bt + beta * beta * coeffs.ct)
    if np.any(den <= 0):
        raise DegeneracyError(
            "noise energy vanished; responses are linearly dependent at some beta"
        )
    out = num / den
    return float(out) if out.ndim == 0 else out


def _snr_derivative(beta: float, coeffs: QuadCoeffs, h: float = 1e-6) -> float:
    return (snr(beta + h, coeffs) - snr(beta - h, coeffs)) / (2.0 * h)


def stationary_polynomial(coeffs: QuadCoeffs) -> np.ndarray:
    """Coefficients (highest degree first) of the stationary equation.

    Expanding (-B + beta C) * Dt(beta) = (-Bt + beta Ct) * N(beta) and
    collecting powers gives degree at most 3; the cubic term C*Ct - Ct*C
    cancels identically, leaving a quadratic in the generic case.
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    at, bt, ct = coeffs.at, coeffs.bt, coeffs.ct
    c3 = c * ct - ct * c
    c2 = b * ct - c * bt
    c1 = c * at - a * ct
    c0 = a * bt - at * b
    return np.array([c3, c2, c1, c0])


def stationary_betas(coeffs: QuadCoeffs, derivative_tol: float = 1e-8) -> list[float]:
    """All real roots of the stationary equation, ascending.

    Roots come from companion-matrix eigenvalues after stripping degenerate
    leading coefficients, polished by Newton steps on the polynomial, and
    each verified to zero the central-difference SNR derivative.
    """
    poly = stationary_polynomial(coeffs)
    magnitude = max(
        abs(coeffs.a * coeffs.bt), abs(coeffs.at * coeffs.b),
        abs(coeffs.c * coeffs.at), abs(coeffs.a * coeffs.ct),
        abs(coeffs.b * coeffs.ct), abs(coeffs.c * coeffs.bt), 1e-300,
    )
    tol = 1e-12 * magnitude
    if np.all(np.abs(poly) <= tol):
        raise DegeneracyError("stationary equation vanishes identically; SNR is constant")
    lead = 0
    while abs(poly[lead]) <= tol:
        lead += 1
    trimmed = poly[lead:]
    if trimmed.size == 1:
        return []
    roots = np.roots(trimmed)
    real = []
    for z in roots:
        if abs(z.imag) > 1e-9 * max(1.0, abs(z.real)):
            continue
        x = float(z.real)
        for _ in range(3):  # Newton polish on the polynomial itself
            p = np.polyval(trimmed, x)
            dp = np.polyval(np.polyder(trimmed), x)
            if dp == 0:
                break
            x -= p / dp
        real.append(x)
    real = sorted(set(round(x, 14) for x in real))
    for x in real:
        d = _snr_derivative(x, coeffs)
        if abs(d) >= derivative_tol:
            raise NumericError(
                f"stationary root {x} fails the derivative check: |dSNR/dbeta| = {abs(d):.3e}"
            )
    return real


def optimal_beta(
    coeffs: QuadCoeffs,
    domain: tuple[float, float] | None = (-1.0, 1.0),
    verify: bool = True,
    grid_points: int = 100_000,
) -> tuple[float, float]:
    """SNR-maximizing beta over an open interval (default (-1, 1)).

    Candidates are the in-domain stationary roots plus the endpoints
    approached at a 1e-9 offset. ``domain=None`` is the unbounded variant
    used for pure theory checks (best stationary root). With ``verify`` the
    result is cross-checked against a dense grid evaluation.
    """
    roots = stationary_betas(coeffs)
    if domain is None:
        if not roots:
            raise DegeneracyError("no stationary points")
        values = [snr(r, coeffs) for r in roots]
        best = int(np.argmax(values))
        return roots[best], values[best]
    lo, hi = domain
    if not lo < hi:
        raise ConfigurationError(f"empty domain ({lo}, {hi})")
    candidates = [r for r in roots if lo < r < hi] + [lo + _EDGE, hi - _EDGE]
    values = [snr(b, coeffs) for b in candidates]
    best = int(np.argmax(values))
    beta_star, snr_star = candidates[best], values[best]
    if verify:
        ok, grid_max = grid_check(coeffs, snr_star, domain, grid_points)
        if not ok:
            raise NumericError(
                f"analytic optimum {snr_star} below grid maximum {grid_max}"
            )
    return beta_star, snr_star


def grid_check(
    coeffs: QuadCoeffs,
    snr_star: float,
    domain: tuple[float, float] = (-1.0, 1.0),
    grid_points: int = 100_000,
) -> tuple[bool, float]:
    """Whether snr_star reaches the SNR maximum on a dense grid, and that maximum.

    The grid spans the open domain 1e-9 in from each end; snr_star may fall
    short of the grid maximum by at most 1e-9.
    """
    lo, hi = domain
    betas = np.linspace(lo + _EDGE, hi - _EDGE, grid_points)
    grid_max = float(np.max(snr(betas, coeffs)))
    return snr_star >= grid_max - 1e-9, grid_max


def snr_advantage(coeffs: QuadCoeffs) -> Optional[float]:
    """A beta with SNR(beta) strictly above SNR(0), or None when no gain exists.

    The improvement margin Delta(beta) = -2 beta p + beta^2 q with
    p = B*At - A*Bt and q = C*At - A*Ct is positive exactly where the
    composite beats the plain large-kernel filter. Proportional responses
    (tiny Gram determinant At*Ct - Bt^2) have Delta identically zero. When
    p = 0 and q < 0, Delta is never positive: no advantage exists even
    though the responses are independent, and None is returned.
    """
    gram = coeffs.at * coeffs.ct - coeffs.bt * coeffs.bt
    if gram <= 1e-12:
        return None
    p = coeffs.b * coeffs.at - coeffs.a * coeffs.bt
    q = coeffs.c * coeffs.at - coeffs.a * coeffs.ct
    magnitude = max(
        abs(coeffs.b * coeffs.at), abs(coeffs.a * coeffs.bt),
        abs(coeffs.c * coeffs.at), abs(coeffs.a * coeffs.ct), 1e-300,
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
    base = snr(0.0, coeffs)
    if snr(candidate, coeffs) > base:
        return candidate
    # fallback sweep for near-degenerate scaling
    for t in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0):
        for s in (-1.0, 1.0):
            if snr(s * t, coeffs) > base:
                return s * t
    return None


# ---------------------------------------------------------------------------
# Spectra helpers and CSV emission
# ---------------------------------------------------------------------------


def flat_spectrum(n: int = DEFAULT_SAMPLES) -> FreqResponse:
    r = grid(n)
    return FreqResponse(r, np.ones_like(r), fn=lambda x: np.ones_like(np.asarray(x, float)))


def band_spectrum(lo: float, hi: float, n: int = DEFAULT_SAMPLES) -> FreqResponse:
    if not 0.0 <= lo < hi:
        raise InputError(f"invalid band [{lo}, {hi}]")
    r = grid(n)
    values = ((r >= lo) & (r <= hi)).astype(np.float64)
    return FreqResponse(r, values, fn=lambda x: ((np.asarray(x) >= lo) & (np.asarray(x) <= hi)).astype(float))


def write_ring_csv(
    path, h_l: FreqResponse, h_s: FreqResponse, h_beta: FreqResponse, band: Optional[RingBand]
):
    """Per-sample response table: r, H_L, H_S, H_beta, ring_flag."""
    _same_grid(h_l, h_s)
    _same_grid(h_l, h_beta)
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "H_L", "H_S", "H_beta", "ring_flag"])
        for i, r in enumerate(h_l.r):
            flag = int(band is not None and band.r1 < r < band.r2)
            writer.writerow(
                [f"{r:.12g}", f"{h_l.values[i]:.12g}", f"{h_s.values[i]:.12g}",
                 f"{h_beta.values[i]:.12g}", flag]
            )


def write_snr_sweep_csv(path, betas: np.ndarray, values: np.ndarray):
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "snr"])
        for b, s in zip(betas, values):
            writer.writerow([f"{b:.12g}", f"{s:.12g}"])
