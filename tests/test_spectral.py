"""Spectral toolkit: responses, ring detection, SNR stationarity/advantage."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from perigate import spectral
from perigate.errors import ConfigurationError, DegeneracyError, InputError
from perigate.spectral import (
    ExpDecay,
    FreqResponse,
    GaussianDecay,
    QuadCoeffs,
    SepKernel,
    composite,
    find_ring,
    optimal_beta,
    quad_coeffs,
    response_from_function,
    response_from_kernel,
    snr,
    snr_advantage,
    stationary_betas,
    stationary_polynomial,
)

from naive import kernel_radial_dtft


def scan_ring_oracle(fn, n):
    """Dense sign-scan: presence and interpolated band of the widest run."""
    r = np.linspace(0.0, math.pi, n)
    v = np.asarray(fn(r), dtype=np.float64)
    runs, i = [], 0
    while i < n:
        if v[i] > 0:
            j = i
            while j + 1 < n and v[j + 1] > 0:
                j += 1
            if i > 0 and j < n - 1:
                lo = r[i - 1] + (0 - v[i - 1]) * (r[i] - r[i - 1]) / (v[i] - v[i - 1])
                hi = r[j] + (0 - v[j]) * (r[j + 1] - r[j]) / (v[j + 1] - v[j])
                runs.append((lo, hi))
            i = j + 1
        else:
            i += 1
    if not runs:
        return None
    return max(runs, key=lambda b: b[1] - b[0])


class TestResponses:
    def test_delta_kernel_flat(self):
        sk = SepKernel(np.array([1.0]), np.array([1.0]))
        resp = response_from_kernel(sk, n=128)
        np.testing.assert_allclose(resp.values, 1.0, atol=1e-12)

    def test_box_kernel_dc_and_decay(self):
        sk = SepKernel(np.ones(3), np.ones(3))
        resp = response_from_kernel(sk, n=256)
        assert resp.values[0] == pytest.approx(9.0, rel=1e-12)
        assert resp.values[-1] < resp.values[0]

    def test_box_matches_direct_dtft(self):
        # independent evaluation: sum over taps of cos(w . offset), averaged
        sk = SepKernel(np.ones(3), np.ones(3))
        resp = response_from_kernel(sk, n=128, num_angles=64)
        r = resp.r
        theta = np.linspace(0.0, math.pi, 64, endpoint=False)
        want = np.zeros_like(r)
        offs = np.array([-1.0, 0.0, 1.0])
        for ti, th in enumerate(theta):
            w1 = r * math.cos(th)
            w2 = r * math.sin(th)
            hv = np.exp(-1j * np.outer(w1, offs)).sum(axis=1)
            hh = np.exp(-1j * np.outer(w2, offs)).sum(axis=1)
            want += (hv * hh).real
        want /= len(theta)
        np.testing.assert_allclose(resp.values, want, atol=1e-10)

    def test_kernel_scaling_linearity(self):
        rng = np.random.default_rng(0)
        h, v = rng.standard_normal(5), rng.standard_normal(5)
        a = response_from_kernel(SepKernel(h, v), n=128)
        b = response_from_kernel(SepKernel(3.0 * h, v), n=128)
        np.testing.assert_allclose(b.values, 3.0 * a.values, atol=1e-12)

    def test_grid_contract(self):
        with pytest.raises(ConfigurationError):
            spectral.grid(32)  # too few samples
        resp = response_from_function(np.sin, 128)
        assert resp.r[0] == 0.0 and resp.r[-1] == pytest.approx(math.pi)


def _mirror(taps, sign):
    """Symmetric (sign 1) or antisymmetric (sign -1) part of a tap row; None keeps it."""
    return taps if sign is None else 0.5 * (taps + sign * taps[::-1])


@st.composite
def kernel_pairs(draw):
    k = 2 * draw(st.integers(0, 31)) + 1
    taps = hnp.arrays(np.float64, k, elements=st.floats(-1.0, 1.0, allow_subnormal=False))
    symmetry = st.sampled_from([None, 1.0, -1.0])
    h = _mirror(draw(taps), draw(symmetry))
    v = _mirror(draw(taps), draw(symmetry))
    return h, v


class TestKernelResponseOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        pair=kernel_pairs(),
        n=st.sampled_from([64, 1024]),
        num_angles=st.sampled_from([1, 7, 64]),
    )
    @example(pair=(np.linspace(-1.0, 1.0, 63), np.linspace(1.0, -1.0, 63)), n=1024, num_angles=64)
    @example(pair=(np.arange(7.0) - 3.0, np.ones(7)), n=64, num_angles=7)
    def test_matches_complex_exponential_oracle(self, pair, n, num_angles):
        h, v = pair
        got = response_from_kernel(SepKernel(h, v), n=n, num_angles=num_angles).values
        want = kernel_radial_dtft(h, v, n, num_angles)
        scale = np.abs(h).sum() * np.abs(v).sum()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)

    def test_no_angle_rejected(self):
        with pytest.raises(ConfigurationError):
            response_from_kernel(SepKernel(np.ones(3), np.ones(3)), n=64, num_angles=0)

    def test_peak_memory_is_per_grid_point(self):
        # an [n, angles, k] complex table would take 32 MB here
        rng = np.random.default_rng(31)
        sk = SepKernel(rng.standard_normal(31), rng.standard_normal(31))
        tracemalloc.start()
        try:
            response_from_kernel(sk, n=1024, num_angles=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestComposite:
    def test_beta_zero(self):
        h_l = response_from_function(ExpDecay(0.6), 128)
        h_s = response_from_function(GaussianDecay(2.5), 128)
        np.testing.assert_array_equal(composite(h_l, h_s, 0.0).values, h_l.values)

    def test_equal_responses_cancel(self):
        h = response_from_function(ExpDecay(1.0), 128)
        np.testing.assert_allclose(composite(h, h, 1.0).values, 0.0, atol=1e-15)

    def test_grid_mismatch(self):
        a = response_from_function(np.sin, 128)
        b = response_from_function(np.sin, 256)
        with pytest.raises(ConfigurationError):
            composite(a, b, 0.5)

    def test_parametric_pointwise(self):
        h_l = response_from_function(ExpDecay(0.6), 256)
        h_s = response_from_function(GaussianDecay(2.5, dc_gain=1.6), 256)
        c = composite(h_l, h_s, 0.75)
        want = np.exp(-0.6 * c.r) - 0.75 * 1.6 * np.exp(-(c.r**2) / 5.0)
        np.testing.assert_allclose(c.values, want, atol=1e-14)


class TestFindRing:
    def test_sine_analytic_band(self):
        h_l = response_from_function(np.sin, 1024)
        h_s = spectral.flat_spectrum(1024)
        band = find_ring(composite(h_l, h_s, 0.5))
        assert band is not None and not band.multiple
        assert band.r1 == pytest.approx(math.pi / 6, abs=1e-6)
        assert band.r2 == pytest.approx(5 * math.pi / 6, abs=1e-6)

    def test_all_negative_absent(self):
        resp = response_from_function(lambda r: np.full_like(np.asarray(r, float), -0.5), 128)
        assert find_ring(resp) is None

    def test_positive_at_dc_not_a_ring(self):
        # no leading non-positive sample: low-pass, not a ring
        resp = response_from_function(lambda r: 1.0 - np.asarray(r) / 4.0, 128)
        assert find_ring(resp) is None

    def test_positive_at_pi_not_a_ring(self):
        resp = response_from_function(lambda r: np.asarray(r) - 1.0, 128)
        assert find_ring(resp) is None

    def test_supplementary_parametric_pair_matches_oracle(self):
        # exp(0.6) vs gauss(2.5, gain 1.6) at beta 0.75 stays negative on
        # [0, pi]; the contract is agreement with the dense scan, which also
        # reports no band here
        h_l = response_from_function(ExpDecay(0.6), 1024)
        h_s = response_from_function(GaussianDecay(2.5, dc_gain=1.6), 1024)
        h = composite(h_l, h_s, 0.75)
        band = find_ring(h)
        oracle = scan_ring_oracle(h.fn, 8 * 1024)
        assert (band is None) == (oracle is None)
        assert np.all(h.values <= 0.0)

    def test_empirical_uses_interpolation(self):
        h_l = response_from_function(np.sin, 1024)
        sampled = FreqResponse(h_l.r, np.sin(h_l.r) - 0.5)  # no fn attached
        band = find_ring(sampled)
        assert band is not None
        assert band.r1 == pytest.approx(math.pi / 6, abs=1e-5)

    def test_multiple_bands_flagged_widest_returned(self):
        fn = lambda r: np.sin(3.0 * np.asarray(r)) - 0.2
        band = find_ring(response_from_function(fn, 2048))
        assert band is not None and band.multiple
        oracle = scan_ring_oracle(fn, 16384)
        assert band.r1 == pytest.approx(oracle[0], abs=1e-6)
        assert band.r2 == pytest.approx(oracle[1], abs=1e-6)


class TestQuadCoeffs:
    def test_closed_form_integrals(self):
        n = 1024
        h_l = spectral.flat_spectrum(n)
        h_s = response_from_function(lambda r: np.asarray(r) / math.pi, n)
        q = quad_coeffs(h_l, h_s, spectral.flat_spectrum(n), 1.0)
        assert q.a == pytest.approx(math.pi, abs=1e-4)
        assert q.b == pytest.approx(math.pi / 2, abs=1e-4)
        assert q.c == pytest.approx(math.pi / 3, abs=1e-4)
        assert q.at == pytest.approx(math.pi, abs=1e-4)
        assert q.bt == pytest.approx(math.pi / 2, abs=1e-4)
        assert q.ct == pytest.approx(math.pi / 3, abs=1e-4)

    def test_zero_small_response(self):
        n = 256
        h_l = spectral.flat_spectrum(n)
        h_s = response_from_function(lambda r: np.zeros_like(np.asarray(r, float)), n)
        q = quad_coeffs(h_l, h_s, spectral.flat_spectrum(n), 1.0)
        assert q.b == q.c == q.bt == q.ct == 0.0

    def test_doubling_signal_spectrum(self):
        n = 256
        h_l = response_from_function(ExpDecay(0.5), n)
        h_s = response_from_function(GaussianDecay(1.5), n)
        ps = spectral.flat_spectrum(n)
        ps2 = FreqResponse(ps.r, 2.0 * ps.values)
        q1 = quad_coeffs(h_l, h_s, ps, 1.0)
        q2 = quad_coeffs(h_l, h_s, ps2, 1.0)
        assert q2.a == pytest.approx(2 * q1.a, rel=1e-12)
        assert q2.b == pytest.approx(2 * q1.b, rel=1e-12)
        assert q2.c == pytest.approx(2 * q1.c, rel=1e-12)
        assert (q2.at, q2.bt, q2.ct) == (q1.at, q1.bt, q1.ct)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            h_l = response_from_function(ExpDecay(rng.uniform(0.2, 2.0)), 256)
            h_s = response_from_function(
                GaussianDecay(rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0)), 256
            )
            ps = spectral.band_spectrum(rng.uniform(0, 1), rng.uniform(1.5, 3.0), 256)
            q = quad_coeffs(h_l, h_s, ps, 1.0)
            assert q.a * q.c - q.b * q.b >= -1e-12
            assert q.at * q.ct - q.bt * q.bt >= -1e-12

    def test_negative_signal_rejected(self):
        n = 128
        h = spectral.flat_spectrum(n)
        bad = FreqResponse(h.r, -np.ones(n))
        with pytest.raises(InputError):
            quad_coeffs(h, h, bad, 1.0)

    def test_bad_sigma(self):
        h = spectral.flat_spectrum(128)
        with pytest.raises(ConfigurationError):
            quad_coeffs(h, h, h, 0.0)


FIXTURE = QuadCoeffs(a=2.0, b=1.0, c=1.0, at=1.0, bt=0.0, ct=1.0, sigma2=1.0)


class TestSnr:
    def test_beta_zero_definition(self):
        assert snr(0.0, FIXTURE) == pytest.approx(2.0)

    def test_flat_signal_constant_in_beta(self):
        # P_S proportional to P_N makes the ratio beta-free
        n = 512
        h_l = response_from_function(ExpDecay(0.6), n)
        h_s = response_from_function(GaussianDecay(2.5), n)
        ps = FreqResponse(h_l.r, np.full(n, 3.0))
        q = quad_coeffs(h_l, h_s, ps, sigma2=2.0)
        base = snr(0.0, q)
        for beta in (-0.9, -0.3, 0.1, 0.5, 0.9):
            assert snr(beta, q) == pytest.approx(base, rel=1e-9)

    def test_band_limited_low_frequency_prefers_negative_beta(self):
        n = 2048
        h_l = spectral.flat_spectrum(n)
        h_s = response_from_function(lambda r: np.asarray(r) / math.pi, n)
        ps = spectral.band_spectrum(math.pi / 2, math.pi, n)
        q = quad_coeffs(h_l, h_s, ps, 1.0)
        # b*at - a*bt = pi^2/8 > 0 here
        assert q.b * q.at - q.a * q.bt == pytest.approx(math.pi**2 / 8, rel=1e-3)
        assert snr(-0.05, q) > snr(0.0, q)

    def test_degenerate_denominator(self):
        h = spectral.flat_spectrum(128)
        q = quad_coeffs(h, h, h, 1.0)  # identical responses: D(1) = 0
        with pytest.raises(DegeneracyError):
            snr(1.0, q)


class TestStationaryBetas:
    def test_cubic_term_cancels(self):
        poly = stationary_polynomial(FIXTURE)
        assert poly[0] == 0.0
        np.testing.assert_allclose(poly[1:], [1.0, -1.0, -1.0])  # beta^2 - beta - 1

    def test_golden_ratio_fixture(self):
        roots = stationary_betas(FIXTURE)
        want = [(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2]
        assert len(roots) == 2
        assert roots[0] == pytest.approx(want[0], abs=1e-10)
        assert roots[1] == pytest.approx(want[1], abs=1e-10)

    def test_roots_zero_snr_derivative(self):
        for root in stationary_betas(FIXTURE):
            h = 1e-6
            d = (snr(root + h, FIXTURE) - snr(root - h, FIXTURE)) / (2 * h)
            assert abs(d) < 1e-8

    def test_symmetric_case_has_zero_root(self):
        q = QuadCoeffs(a=2.0, b=0.0, c=1.0, at=1.0, bt=0.0, ct=2.0, sigma2=1.0)
        roots = stationary_betas(q)
        assert any(abs(r) < 1e-12 for r in roots)

    def test_proportional_degenerate(self):
        q = QuadCoeffs(a=2.0, b=1.0, c=0.5, at=4.0, bt=2.0, ct=1.0, sigma2=1.0)
        with pytest.raises(DegeneracyError):
            stationary_betas(q)


class TestOptimalBeta:
    def test_fixture_in_domain_max(self):
        beta, value = optimal_beta(FIXTURE)
        assert beta == pytest.approx((1 - math.sqrt(5)) / 2, abs=1e-9)
        grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 100_000)
        assert value >= float(np.max(snr(grid, FIXTURE))) - 1e-9

    def test_degenerate_raises(self):
        q = QuadCoeffs(a=2.0, b=1.0, c=0.5, at=4.0, bt=2.0, ct=1.0, sigma2=1.0)
        with pytest.raises(DegeneracyError):
            optimal_beta(q)

    def test_endpoint_can_win(self):
        # maximizer outside (-1,1): endpoint approached at 1e-9 offset wins
        q = QuadCoeffs(a=1.0, b=2.0, c=8.0, at=1.0, bt=0.0, ct=1.0, sigma2=1.0)
        beta, value = optimal_beta(q)
        assert -1.0 < beta < 1.0
        grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 100_000)
        assert value >= float(np.max(snr(grid, q))) - 1e-9

    def test_unbounded_variant(self):
        beta, _ = optimal_beta(FIXTURE, domain=None)
        golden = [(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2]
        assert any(beta == pytest.approx(w, abs=1e-9) for w in golden)

    def test_random_pairs_match_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = 512
            h_l = response_from_function(ExpDecay(rng.uniform(0.2, 1.5)), n)
            h_s = response_from_function(
                GaussianDecay(rng.uniform(0.5, 4.0), rng.uniform(0.8, 2.0)), n
            )
            ps = spectral.band_spectrum(rng.uniform(0.0, 1.0), rng.uniform(1.5, 3.1), n)
            q = quad_coeffs(h_l, h_s, ps, rng.uniform(0.5, 2.0))
            beta, value = optimal_beta(q, verify=False)
            grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 100_000)
            assert value >= float(np.max(snr(grid, q))) - 1e-9


class TestSnrAdvantage:
    def test_fixture_improves(self):
        beta = snr_advantage(FIXTURE)
        assert beta is not None
        assert snr(beta, FIXTURE) > snr(0.0, FIXTURE)

    def test_proportional_absent(self):
        q = QuadCoeffs(a=2.0, b=1.0, c=0.5, at=4.0, bt=2.0, ct=1.0, sigma2=1.0)
        assert snr_advantage(q) is None

    def test_small_negative_beta_case(self):
        n = 1024
        h_l = spectral.flat_spectrum(n)
        h_s = response_from_function(lambda r: np.asarray(r) / math.pi, n)
        ps = spectral.band_spectrum(math.pi / 2, math.pi, n)
        q = quad_coeffs(h_l, h_s, ps, 1.0)
        beta = snr_advantage(q)
        assert beta is not None and snr(beta, q) > snr(0.0, q)

    def test_quadratic_dominance_case(self):
        # orthogonal responses (bt = b = 0) with c*at > a*ct: large beta wins
        q = QuadCoeffs(a=1.0, b=0.0, c=2.0, at=1.0, bt=0.0, ct=1.0, sigma2=1.0)
        beta = snr_advantage(q)
        assert beta is not None
        assert snr(beta, q) > snr(0.0, q)

    def test_no_gain_possible_returns_absent(self):
        # independent responses but q < 0 and p = 0: beta = 0 is optimal
        q = QuadCoeffs(a=2.0, b=0.0, c=1.0, at=1.0, bt=0.0, ct=1.0, sigma2=1.0)
        assert snr_advantage(q) is None


class TestCsvWriters:
    def test_ring_csv(self, tmp_path):
        n = 128
        h_l = response_from_function(np.sin, n)
        h_s = spectral.flat_spectrum(n)
        h_b = composite(h_l, h_s, 0.5)
        band = find_ring(h_b)
        path = tmp_path / "ring.csv"
        spectral.write_ring_csv(path, h_l, h_s, h_b, band)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,H_L,H_S,H_beta,ring_flag"
        assert len(lines) == n + 1
        flags = [int(line.split(",")[-1]) for line in lines[1:]]
        assert 0 < sum(flags) < n

    def test_sweep_csv(self, tmp_path):
        betas = np.linspace(-1, 1, 64)
        path = tmp_path / "sweep.csv"
        spectral.write_snr_sweep_csv(path, betas, snr(betas, FIXTURE))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "beta,snr"
        assert len(lines) == 65


def test_numerator_denominator_positive_on_dense_grid():
    rng = np.random.default_rng(40)
    betas = np.linspace(-5.0, 5.0, 5001)
    for _ in range(10):
        h_l = response_from_function(ExpDecay(rng.uniform(0.2, 1.5)), 256)
        h_s = response_from_function(
            GaussianDecay(rng.uniform(0.5, 4.0), rng.uniform(0.7, 2.0)), 256
        )
        ps = spectral.band_spectrum(rng.uniform(0, 1), rng.uniform(1.5, 3.0), 256)
        q = quad_coeffs(h_l, h_s, ps, rng.uniform(0.5, 2.0))
        num = q.a - 2 * betas * q.b + betas**2 * q.c
        den = q.sigma2 * (q.at - 2 * betas * q.bt + betas**2 * q.ct)
        assert np.all(num > 0) and np.all(den > 0)
