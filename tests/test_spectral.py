"""Spectral toolkit: responses, ring detection, SNR stationarity/advantage."""

import math
import re
from unittest import mock

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

import naive
from helpers import fresh_interpreter, traced_peak
from naive import kernel_radial_dtft


def interpolated_bands(r, v):
    """The chord-interpolated zero on either side of each of naive.positive_runs(v)."""

    def zero(i, j):
        return r[i] + (0 - v[i]) * (r[j] - r[i]) / (v[j] - v[i])

    return [(zero(i - 1, i), zero(j, j + 1)) for i, j in naive.positive_runs(v)]


def scan_ring_oracle(fn, n):
    """Dense sign-scan: presence and interpolated band of the widest run."""
    r = np.linspace(0.0, math.pi, n)
    bands = interpolated_bands(r, np.asarray(fn(r), dtype=np.float64))
    return max(bands, key=lambda b: b[1] - b[0]) if bands else None


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
        resp = response_from_kernel(sk, n=128)
        r = resp.r
        theta = np.linspace(0.0, math.pi, spectral.NUM_ANGLES, endpoint=False)
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

    def test_responses_share_one_read_only_grid(self):
        n = 200
        a = response_from_function(np.sin, n)
        b = spectral.flat_spectrum(n)
        c = response_from_kernel(SepKernel(np.ones(3), np.ones(3)), n)
        for resp in (a, b, c, composite(a, b, 0.5), spectral.band_spectrum(0.5, 2.0, n)):
            assert resp.r is spectral.grid(n)
        with pytest.raises(ValueError):
            a.r[0] = 1.0
        np.testing.assert_array_equal(a.r, np.linspace(0.0, math.pi, n))

    def test_values_contract(self):
        with pytest.raises(ConfigurationError):
            FreqResponse(np.zeros((2, 64)))
        with pytest.raises(ConfigurationError):
            FreqResponse(np.zeros(spectral.MIN_SAMPLES - 1))
        for bad in (np.nan, np.inf, -np.inf):
            v = np.zeros(spectral.MIN_SAMPLES)
            v[5] = bad
            with pytest.raises(InputError):
                FreqResponse(v)


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


def _block_rows():
    """Rows of the basis in one row block for a 31-tap kernel (P = 16): a row's
    Chebyshev rows, [2, P, angles], and basis row, [P, P], in float64."""
    return spectral._BLOCK_BYTES // (8 * 16 * (2 * (spectral.NUM_ANGLES // 2 + 1) + 16))


_WAVE_PAIR = (np.cos(np.arange(31.0)), np.sin(np.arange(31.0)))


class TestKernelResponseOracle:
    @settings(max_examples=60, deadline=None)
    @given(pair=kernel_pairs(), n=st.sampled_from([64, 1024]))
    @example(pair=(np.linspace(-1.0, 1.0, 63), np.linspace(1.0, -1.0, 63)), n=1024)
    @example(pair=(np.arange(7.0) - 3.0, np.ones(7)), n=64)
    @example(pair=(np.array([2.14543505e-159]), np.array([2.14543505e-159])), n=64)
    # row blocks: a last block of one row, a ragged last block, one short block
    @example(pair=_WAVE_PAIR, n=2 * _block_rows() + 1)
    @example(pair=_WAVE_PAIR, n=333)
    @example(pair=_WAVE_PAIR, n=_block_rows() - 1)
    @example(pair=_WAVE_PAIR, n=_block_rows() + 1)
    def test_matches_complex_exponential_oracle(self, pair, n):
        h, v = pair
        got = response_from_kernel(SepKernel(h, v), n=n).values
        want = kernel_radial_dtft(h, v, n, spectral.NUM_ANGLES)
        # below the smallest normal float64 rounding errors are absolute, not relative
        scale = max(np.abs(h).sum() * np.abs(v).sum(), np.finfo(np.float64).tiny)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)

    def test_peak_memory_is_per_grid_point(self):
        # an [n, angles, k] complex table would take 32 MB here
        rng = np.random.default_rng(31)
        sk = SepKernel(rng.standard_normal(31), rng.standard_normal(31))
        _, peak = traced_peak(lambda: response_from_kernel(sk, n=1024))
        # a repeat call reads the retained 2 MiB basis and allocates the grid and the
        # response, 8 KiB each; rebuilding the basis would add at least the basis itself
        _, repeat_peak = traced_peak(lambda: response_from_kernel(sk, n=1024))
        assert peak < 16 * 2**20
        assert repeat_peak < 0.1 * 2**20

    def test_over_budget_peak_is_per_row_block(self):
        # k = 31 at n = 8192 is a 16 MiB basis, twice the budget
        sk = SepKernel(*_WAVE_PAIR)
        _, peak = traced_peak(lambda: response_from_kernel(sk, n=8192))
        assert (8192, 16) not in spectral._tables
        # a row block's arrays, the block list, the grid and the response
        assert peak < 2 * spectral._BLOCK_BYTES + 4 * 8192 * 8

    def test_retained_table_is_shared_and_unchanged(self):
        sk = SepKernel(*_WAVE_PAIR)
        first = response_from_kernel(sk, n=1024)
        table = spectral._tables[(1024, 16)]
        other = response_from_kernel(sk, n=333)
        again = response_from_kernel(sk, n=1024)
        assert first.values.tobytes() == again.values.tobytes()
        assert spectral._tables[(1024, 16)] is table
        again.values[:] = 0.0
        other.values[:] = np.nan
        assert response_from_kernel(sk, n=1024).values.tobytes() == (
            first.values.tobytes()
        )

    def test_retained_tables_are_read_only(self):
        for k in (1, 3, 31):
            response_from_kernel(SepKernel(np.ones(k), np.ones(k)), n=128)
        assert spectral._tables
        for table in spectral._tables.values():
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1.0

    def test_eviction_keeps_retained_bytes_within_budget(self):
        def retain(k):
            response_from_kernel(SepKernel(np.ones(k), np.ones(k)), n=1024)
            assert sum(t.nbytes for t in spectral._tables.values()) <= spectral._TABLE_BYTES
            return list(spectral._tables)

        # 2 MiB (k = 31) and 0.5 MiB (k = 15) fit together; a third table does not
        budget = (16 * 16 + 8 * 8) * 1024 * 8
        with mock.patch.object(spectral, "_TABLE_BYTES", budget), \
                mock.patch.dict(spectral._tables, clear=True):
            assert retain(31) == [(1024, 16)]
            assert retain(15) == [(1024, 16), (1024, 8)]
            assert retain(9) == [(1024, 8), (1024, 5)]  # the least recent out
            assert retain(15) == [(1024, 5), (1024, 8)]
            assert retain(31) == [(1024, 8), (1024, 16)]
            # 8 MiB, over the budget: built a block at a time, nothing retained or evicted
            assert retain(63) == [(1024, 8), (1024, 16)]

    def test_response_is_bitwise_independent_of_history(self):
        """Each size has its own table, so a response is the same bits whether its
        table is built first in a fresh interpreter, after tables of other sizes, or
        a row block at a time over the budget."""
        sizes = (3, 9, 15, 31)
        code = ("import numpy as np; from perigate.spectral import SepKernel, "
                "response_from_kernel as f\n"
                "for k in (3, 9, 15, 31):\n"
                "    print(f(SepKernel(np.cos(np.arange(k) + 0.5), np.sin(np.arange(k) + 1.0)))"
                ".values.tobytes().hex())")
        fresh = dict(zip(sizes, fresh_interpreter(code).split()))

        def responses():
            return {k: response_from_kernel(
                SepKernel(np.cos(np.arange(k) + 0.5), np.sin(np.arange(k) + 1.0))
            ).values.tobytes().hex() for k in sizes[::-1]}

        assert responses() == fresh
        with mock.patch.object(spectral, "_TABLE_BYTES", 0), \
                mock.patch.dict(spectral._tables, clear=True):
            assert responses() == fresh
            assert not spectral._tables


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

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_beta_refused(self, beta):
        h = response_from_function(ExpDecay(1.0), 128)
        with pytest.raises(InputError, match=f"beta must be finite, got {beta}"):
            composite(h, h, beta)

    def test_parametric_pointwise(self):
        h_l = response_from_function(ExpDecay(0.6), 256)
        h_s = response_from_function(GaussianDecay(2.5, dc_gain=1.6), 256)
        c = composite(h_l, h_s, 0.75)
        want = np.exp(-0.6 * c.r) - 0.75 * 1.6 * np.exp(-(c.r**2) / 5.0)
        np.testing.assert_allclose(c.values, want, atol=1e-14)


@st.composite
def extreme_forms(draw):
    """Closed forms with exponents that can leave the float64 range (exp:1e308 and
    gauss:1e-320 stand for their limits)."""
    if draw(st.booleans()):
        return ExpDecay(draw(st.one_of(st.floats(0.0, 5.0), st.just(1e308))))
    variance = st.one_of(st.floats(0.05, 4.0), st.sampled_from([1e-320, 5e-324, 1e308]))
    return GaussianDecay(draw(variance), draw(st.floats(0.1, 3.0)))


class TestScalarEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(hl=extreme_forms(), hs=extreme_forms(), beta=st.floats(-1.0, 1.0),
           r=hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(0.0, math.pi)))
    @example(hl=ExpDecay(1e308), hs=GaussianDecay(1e-320), beta=0.5,
             r=np.array([0.0, 5e-324, 1e-160, 0.5, math.pi]))
    def test_scalars_and_array_points_agree_bitwise(self, hl, hs, beta, r):
        # a Python float, an np.float64 and each point of an array give the same bytes;
        # a scalar gives a numpy scalar
        blank = np.zeros(spectral.MIN_SAMPLES)  # the forms are read, not sampled
        fn = composite(FreqResponse(blank, fn=hl), FreqResponse(blank, fn=hs), beta).fn
        with np.errstate(over="ignore"):  # as response_from_function and _bisect
            for f in (hl, hs, fn):
                points = f(r)
                for i, x in enumerate(r.tolist()):
                    value = f(x)
                    assert type(value) is np.float64
                    assert value.tobytes() == f(np.float64(x)).tobytes() == points[i].tobytes()


class TestFindRing:
    def test_sine_analytic_band(self):
        h_l = response_from_function(np.sin, 1024)
        h_s = response_from_function(np.ones_like, 1024)  # analytic, so the band is bisected
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
        sampled = FreqResponse(np.sin(h_l.r) - 0.5)  # no fn attached
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


def _runs_example(n, *runs, base=-1.0):
    v = np.full(n, base)
    for start, stop in runs:
        v[start:stop] = 1.0
    return v


@st.composite
def sampled_values(draw):
    n = draw(st.integers(spectral.MIN_SAMPLES, 96))
    sample = st.one_of(st.sampled_from([-1.0, 0.0, 0.5]),
                       st.floats(-2.0, 2.0, allow_subnormal=False))
    return draw(hnp.arrays(np.float64, n, elements=sample))


class TestRingRuns:
    @settings(max_examples=200, deadline=None)
    @given(v=sampled_values())
    @example(v=_runs_example(64, (10, 20), (40, 41), base=0.0))  # exact zeros either side
    @example(v=_runs_example(64, (30, 31)))  # a one-sample run
    @example(v=_runs_example(64, (1, 2), (62, 63)))  # runs at indices 1 and n - 2
    @example(v=_runs_example(65, (1, 5), (60, 64)))
    @example(v=_runs_example(64, (0, 64)))  # all positive
    @example(v=_runs_example(64))  # no positive sample
    @example(v=_runs_example(64, base=0.0))
    def test_sampled_bands_match_the_loop_oracle(self, v):
        band = find_ring(FreqResponse(v))
        bands = interpolated_bands(np.linspace(0.0, math.pi, v.size), v)
        if not bands:
            assert band is None
        else:
            widest = max(bands, key=lambda b: b[1] - b[0])
            assert band == spectral.RingBand(*widest, multiple=len(bands) > 1)


def band_bytes(band):
    """A RingBand as its edges' float64 bytes and its flag, so that == is bitwise."""
    return None if band is None else (np.float64([band.r1, band.r2]).tobytes(), band.multiple)


@st.composite
def closed_forms(draw):
    if draw(st.booleans()):
        return ExpDecay(draw(st.floats(0.05, 3.0)))
    return GaussianDecay(draw(st.floats(0.05, 4.0)), draw(st.floats(0.1, 3.0)))


@st.composite
def ring_pairs(draw):
    """(gauss, exp, beta) with H(0) = gain - beta <= 0; about two in three have a ring."""
    beta = draw(st.floats(0.3, 0.95))
    gain = beta * draw(st.one_of(st.floats(0.4, 1.0), st.just(1.0)))
    return GaussianDecay(draw(st.floats(0.2, 1.0)), gain), ExpDecay(draw(st.floats(1.0, 3.0))), beta


class TestRingBisection:
    @settings(max_examples=60, deadline=None)
    @given(hl=closed_forms(), hs=closed_forms(), beta=st.floats(-1.0, 1.0))
    @example(hl=GaussianDecay(0.5, 0.5), hs=ExpDecay(1.5), beta=0.75)  # the README ring
    # the upper edge stops on the bracket's upper end, the lower edge on its lower end
    @example(hl=GaussianDecay(0.7287, 0.3134), hs=ExpDecay(1.7297), beta=0.6527)
    def test_bands_match_the_full_bisection(self, hl, hs, beta):
        # stopping at float resolution returns the band all 80 halvings reach
        h = composite(response_from_function(hl), response_from_function(hs), beta)
        band = find_ring(h)
        with mock.patch.object(spectral, "_bisect", naive.bisect80):
            assert find_ring(h) == band

    @settings(max_examples=80, deadline=None)
    @given(case=st.one_of(ring_pairs(), st.tuples(closed_forms(), closed_forms(),
                                                  st.floats(-1.0, 1.0))),
           n=st.sampled_from([spectral.MIN_SAMPLES, 1024, 4097]))
    @example(case=(GaussianDecay(0.5, 0.5), ExpDecay(1.5), 0.75), n=1024)  # the README ring
    def test_closed_form_bands_match_the_0d_oracle(self, case, n):
        hl, hs, beta = case
        h = composite(response_from_function(hl, n), response_from_function(hs, n), beta)
        fn = naive.composite_0d(naive.closed_form_0d(hl), naive.closed_form_0d(hs), beta)
        assert band_bytes(find_ring(h)) == band_bytes(find_ring(FreqResponse(h.values, fn=fn)))

    def test_band_in_the_first_cell_matches_the_0d_oracle(self):
        # H(0) = 0.75 - 0.75 = 0 and H > 0 just after it
        hl, hs = GaussianDecay(0.5, 0.75), ExpDecay(1.5)
        h = composite(response_from_function(hl), response_from_function(hs), 0.75)
        fn = naive.composite_0d(naive.closed_form_0d(hl), naive.closed_form_0d(hs), 0.75)
        band = find_ring(h)
        assert band is not None and 0.0 < band.r1 < h.r[1]
        assert band_bytes(band) == band_bytes(find_ring(FreqResponse(h.values, fn=fn)))

    def test_multiple_bands_match_the_0d_oracle(self):
        h = response_from_function(lambda r: np.sin(3.0 * r) - 0.2, 2048)
        band = find_ring(h)
        assert band.multiple
        fn = lambda r: np.sin(3.0 * np.asarray(r, dtype=np.float64)) - 0.2
        assert band_bytes(band) == band_bytes(find_ring(FreqResponse(h.values, fn=fn)))

    def test_readme_ring_stops_early(self):
        h = composite(response_from_function(GaussianDecay(0.5, 0.5)),
                      response_from_function(ExpDecay(1.5)), 0.75)
        calls = mock.Mock(wraps=h.fn)
        band = find_ring(FreqResponse(h.values, fn=calls))
        assert f"ring {band.r1:.9f} {band.r2:.9f}" == "ring 0.353723718 1.146276282"
        assert calls.call_count < 2 * 80  # 45 halvings an edge here


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
        ps2 = FreqResponse(2.0 * ps.values)
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
        bad = FreqResponse(-np.ones(n))
        with pytest.raises(InputError):
            quad_coeffs(h, h, bad, 1.0)

    def test_bad_sigma(self):
        h = spectral.flat_spectrum(128)
        with pytest.raises(ConfigurationError):
            quad_coeffs(h, h, h, 0.0)


FIXTURE = QuadCoeffs(a=2.0, b=1.0, c=1.0, at=1.0, bt=0.0, ct=1.0, sigma2=1.0)


def readme_beta_star_coeffs():
    """The README beta-star pair: exp:0.6 against gauss:2.5 over band:0.5,2.5."""
    return quad_coeffs(response_from_function(ExpDecay(0.6)),
                       response_from_function(GaussianDecay(2.5)),
                       spectral.band_spectrum(0.5, 2.5), 1.0)


# raw --coeffs queries whose roots only a check on unit-scaled coefficients accepts
EXTREME_COEFFS = [
    QuadCoeffs(-1.14e-138, 2.62e168, 1.45e85, 2.61e150, -1.4e142, 2.57e144, sigma2=9.22e-45),
    QuadCoeffs(-5.75e15, -8.6e122, 9.42e183, 3.48e121, 3.54e-9, 4.27e-56, sigma2=5.55e-15),
]


class TestSnr:
    def test_beta_zero_definition(self):
        assert snr(0.0, FIXTURE) == pytest.approx(2.0)

    def test_flat_signal_constant_in_beta(self):
        # P_S proportional to P_N makes the ratio beta-free
        n = 512
        h_l = response_from_function(ExpDecay(0.6), n)
        h_s = response_from_function(GaussianDecay(2.5), n)
        ps = FreqResponse(np.full(n, 3.0))
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
        # (c2, c1, c0): the cubic term C*Ct - Ct*C is exactly zero and not returned
        assert stationary_polynomial(FIXTURE) == (1.0, -1.0, -1.0)  # beta^2 - beta - 1

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

    def test_zero_root_is_positive_zero(self):
        # c2 = c0 = 0: the one root -c0/c1 is -0.0 before it is normalized
        q = QuadCoeffs(a=1.0, b=0.0, c=3.0, at=2.0, bt=0.0, ct=1.0, sigma2=1.0)
        (root,) = stationary_betas(q)
        assert root == 0.0 and math.copysign(1.0, root) == 1.0

    def test_proportional_degenerate(self):
        q = QuadCoeffs(a=2.0, b=1.0, c=0.5, at=4.0, bt=2.0, ct=1.0, sigma2=1.0)
        with pytest.raises(DegeneracyError):
            stationary_betas(q)

    @pytest.mark.parametrize("q", EXTREME_COEFFS, ids=["overflowing_terms", "rounding_terms"])
    def test_extreme_coefficients_keep_their_roots(self, q):
        # at the caller's scale the terms of 2P overflow, or their rounding
        # exceeds the bound; on unit-scaled coefficients every root checks.
        # The check reads each root before it is rounded (-9.1e-62 before -0.0).
        check = mock.Mock(wraps=spectral._check_stationary)
        with mock.patch.object(spectral, "_check_stationary", check):
            roots = stationary_betas(q)
        assert len(roots) >= 1 and check.call_count >= len(roots)
        for call in check.call_args_list:
            assert call.args[1] is q

    def test_check_refuses_a_moved_root(self):
        q = readme_beta_star_coeffs()
        for root in stationary_betas(q):
            spectral._check_stationary(float(root), q)
            with pytest.raises(DegeneracyError, match="fails the derivative check"):
                spectral._check_stationary(float(root) * (1 + 1e-6), q)

    @pytest.mark.parametrize("k", [-300, -40, 40, 300])
    def test_check_reads_the_callers_units(self, k):
        # scaling (A, B, C) and sigma2 by one power of two leaves the SNR, and so
        # the verdict, unchanged; so does scaling (At, Bt, Ct) against sigma2
        q = readme_beta_star_coeffs()
        scaled = [
            QuadCoeffs(*(math.ldexp(v, k) for v in (q.a, q.b, q.c)), q.at, q.bt, q.ct,
                       math.ldexp(q.sigma2, k)),
            QuadCoeffs(q.a, q.b, q.c, *(math.ldexp(v, k) for v in (q.at, q.bt, q.ct)),
                       math.ldexp(q.sigma2, -k)),
        ]
        for root in stationary_betas(q):
            for beta in (float(root), float(root) * (1 + 1e-9), float(root) * (1 + 1e-6)):
                verdicts = []
                for coeffs in [q] + scaled:
                    try:
                        spectral._check_stationary(beta, coeffs)
                        verdicts.append(True)
                    except DegeneracyError:
                        verdicts.append(False)
                assert verdicts in ([True] * 3, [False] * 3)

    def test_noise_pole_is_not_stationary(self):
        # At*Ct = Bt^2: the noise energy (1 - beta/2)^2 has a double root at
        # beta = 2, which solves the stationary equation but is a pole
        q = QuadCoeffs(a=2.0, b=1.0, c=1.0, at=1.0, bt=0.5, ct=0.25, sigma2=1.0)
        assert stationary_betas(q) == [0.0]


@st.composite
def snr_coeffs(draw):
    """SNR coefficients; half of them keep the noise energy positive on the grid."""
    value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324]))
    a, b, c, at, bt, ct = (draw(value) for _ in range(6))
    if draw(st.booleans()):
        at, ct = abs(at), abs(ct)
        bt = draw(st.floats(-0.999, 0.999)) * math.sqrt(at) * math.sqrt(ct)
    return QuadCoeffs(a, b, c, at, bt, ct, sigma2=draw(st.floats(1e-3, 1e3)))


@st.composite
def near_pole_coeffs(draw):
    """SNR coefficients whose noise Gram matrix At*Ct - Bt^2 is singular or nearly so."""
    scale = st.floats(1e-6, 1e6)
    a, b, c = (draw(st.floats(-1.0, 1.0)) * draw(scale) for _ in range(3))
    at, ct = draw(scale), draw(scale)
    gap = draw(st.one_of(st.just(0.0), st.floats(1e-16, 1e-3)))
    bt = draw(st.sampled_from([-1.0, 1.0])) * (1.0 - gap) * math.sqrt(at * ct)
    return QuadCoeffs(a, b, c, at, bt, ct, sigma2=draw(st.floats(1e-3, 1e3)))


@st.composite
def extreme_coeffs(draw):
    """SNR coefficients of any sign and magnitudes from 1e-300 to 1e300; half of
    them keep the noise energy positive on the grid."""
    magnitude = st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 300))
    value = st.one_of(magnitude, st.sampled_from([0.0, 1e300, -1e300, 1e-300]))
    a, b, c, at, bt, ct = (draw(value) for _ in range(6))
    if draw(st.booleans()):
        at, ct = abs(at), abs(ct)
        bt = draw(st.floats(-0.999, 0.999)) * math.sqrt(at) * math.sqrt(ct)
    sigma2 = draw(st.floats(0.1, 1.0)) * 10.0 ** draw(st.integers(-300, 300))
    return QuadCoeffs(a, b, c, at, bt, ct, sigma2=sigma2)


def under_cli_errstate(fn):
    """The bytes of fn()'s float64 result, or the type and text of the
    FloatingPointError or DegeneracyError it raises, under the CLI's errstate."""
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            return np.float64(fn()).tobytes()
        except (FloatingPointError, DegeneracyError) as exc:
            return type(exc), str(exc)


class TestSnrForms:
    @settings(max_examples=200, deadline=None)
    @given(q=st.one_of(snr_coeffs(), near_pole_coeffs()),
           betas=hnp.arrays(np.float64, st.integers(1, 12), elements=st.one_of(
               st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e308, -np.inf, 5e-324]))))
    @example(q=FIXTURE, betas=spectral.open_betas(64))
    def test_array_equals_each_element(self, q, betas):
        betas.flags.writeable = False  # snr must not write its input
        with np.errstate(all="ignore"):
            try:
                got = snr(betas, q)
            except DegeneracyError:
                with pytest.raises(DegeneracyError):
                    for b in betas.tolist():
                        snr(b, q)
                return
            want = [snr(b, q) for b in betas.tolist()]
        assert all(type(w) is float for w in want)
        assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(q=st.one_of(snr_coeffs(), extreme_coeffs()),
           betas=hnp.arrays(np.float64, st.integers(1, 12), elements=st.one_of(
               st.floats(-2.0, 2.0), st.floats(-1e200, 1e200),
               st.sampled_from([0.0, 1e-200, 1e308, -np.inf, 5e-324]))))
    @example(q=QuadCoeffs(1e308, -1.0, 0.0, 1.0, 0.0, 1.0, sigma2=1.0),
             betas=np.array([1e155]))  # A - 2 beta B overflows before beta^2 does
    def test_array_raises_as_the_expression_does(self, q, betas):
        # the same exception at the same op with the same text, or the same bytes
        assert (under_cli_errstate(lambda: snr(betas, q))
                == under_cli_errstate(lambda: naive.snr_expression(betas, q)))


class TestClosedFormRoots:
    @settings(max_examples=300, deadline=None)
    @given(q=st.one_of(snr_coeffs(), near_pole_coeffs()))
    @example(q=FIXTURE)
    @example(q=QuadCoeffs(a=2.0, b=1.0, c=1.0, at=1.0, bt=0.5, ct=0.25, sigma2=1.0))  # a pole
    @example(q=QuadCoeffs(a=0.0, b=1e308, c=0.0, at=0.125, bt=1.1048543456039806e153,
                          ct=1e308, sigma2=1.0))  # a residual of two subnormal units
    def test_matches_the_companion_matrix_roots(self, q):
        # same refusals, same root count, roots within 1e-11 relative or 1e-14 absolute
        def solve(method):
            with np.errstate(all="ignore"):
                try:
                    return method(q), None
                except DegeneracyError as exc:
                    return None, re.sub(r"\S*\d\S*", "#", str(exc))

        got, got_error = solve(stationary_betas)
        want, want_error = solve(naive.companion_stationary_betas)
        assert got_error == want_error
        if want is not None:
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-14)


def _last_block_pole():
    """A noise energy (beta - r)(beta - 2) that is negative only from the grid's last
    block on."""
    betas = spectral.open_betas(100_000)
    r = float(betas[(betas.size - 1) // spectral._CHECK_BLOCK * spectral._CHECK_BLOCK + 10])
    return QuadCoeffs(1.0, 0.0, 1.0, 2.0 * r, (r + 2.0) / 2.0, 1.0, sigma2=1.0)


class TestGridCheck:
    @settings(max_examples=200, deadline=None)
    @given(q=snr_coeffs())
    @example(q=FIXTURE)
    # the SNR is inf/inf past beta = 0.9: np.max keeps the nan, Python's max() would not
    @example(q=QuadCoeffs(0.0, -1e308, 0.0, 1e308, -0.5e308, 0.0, sigma2=1.0))
    def test_maximum_is_the_dense_one(self, q):
        with np.errstate(all="ignore"):
            try:
                want = naive.grid_snr_max(q)
            except DegeneracyError as exc:
                with pytest.raises(DegeneracyError, match=re.escape(str(exc))):
                    spectral.grid_check(q, 0.0)
                return
            _, got = spectral.grid_check(q, 0.0)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_pole_only_in_the_last_block_raises(self):
        with pytest.raises(DegeneracyError, match="noise energy vanished"):
            naive.grid_snr_max(_last_block_pole())
        with pytest.raises(DegeneracyError, match="noise energy vanished"):
            spectral.grid_check(_last_block_pole(), 0.0)

    def test_peak_memory_is_per_block(self):
        # 100,000-beta temporaries would peak at ~3 MB; a call holds three 128 kB
        # block buffers and the 16 kB mask of the D <= 0 refusal
        spectral.grid_check(FIXTURE, 0.0)  # builds the retained tables
        tables = spectral._check_tables()
        assert tables is spectral._check_tables()
        assert not any(table.flags.writeable for table in tables)
        _, peak = traced_peak(lambda: spectral.grid_check(FIXTURE, 0.0))
        assert peak < 400 * 1024

    def test_sweep_and_check_share_the_open_domain(self):
        betas = spectral.open_betas(1024)
        assert betas[0] == -1.0 + 1e-9 and betas[-1] == 1.0 - 1e-9
        two_beta, beta_sq = spectral._check_tables()
        grid = spectral.open_betas(100_000)
        assert np.array_equal(two_beta / 2, grid)
        assert beta_sq.tobytes() == (grid * grid).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(q=extreme_coeffs())
    @example(q=FIXTURE)
    @example(q=QuadCoeffs(0.0, -1e308, 0.0, 1e308, -0.5e308, 0.0, sigma2=1.0))  # inf/inf
    @example(q=QuadCoeffs(1.0, 1e308, 1.0, 1.0, 0.0, 1.0, sigma2=1.0))  # 2 beta B overflows
    @example(q=QuadCoeffs(1e300, 1e-300, 1e300, 1e-300, 0.0, 1e-300, sigma2=1.0))  # N/D
    @example(q=QuadCoeffs(1e-300, 1e-300, 1e300, 1e300, 1e-300, 1e-300, sigma2=1e300))
    @example(q=_last_block_pole())
    def test_errors_are_the_blocked_expressions(self, q):
        # the same exception at the same op with the same text, or the same maximum,
        # as the expression run on each block in turn
        assert (under_cli_errstate(lambda: spectral.grid_check(q, 0.0)[1])
                == under_cli_errstate(lambda: naive.grid_snr_max(q, spectral._CHECK_BLOCK)))


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

    @pytest.mark.parametrize("bt", [1.0, -1.0])
    def test_pole_in_closed_domain_raises(self, bt):
        q = QuadCoeffs(a=2.0, b=1.0, c=1.0, at=1.0, bt=bt, ct=1.0, sigma2=1.0)
        with pytest.raises(DegeneracyError, match="pole"):
            optimal_beta(q)

    def test_endpoint_can_win(self):
        # maximizer outside (-1,1): endpoint approached at 1e-9 offset wins
        q = QuadCoeffs(a=1.0, b=2.0, c=8.0, at=1.0, bt=0.0, ct=1.0, sigma2=1.0)
        beta, value = optimal_beta(q)
        assert -1.0 < beta < 1.0
        grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 100_000)
        assert value >= float(np.max(snr(grid, q))) - 1e-9

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
            beta, value = optimal_beta(q)
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

    def test_answer_does_not_depend_on_units(self):
        # the README beta-star pair with one triple scaled by 1e-7 (rounded, so the
        # same beta to rounding), or all six coefficients by 2^+-40 (exact, so bitwise)
        q = readme_beta_star_coeffs()
        beta = snr_advantage(q)
        assert beta == pytest.approx(1.7729, abs=5e-5)
        signal, noise = (q.a, q.b, q.c), (q.at, q.bt, q.ct)
        for scaled in (QuadCoeffs(*(v * 1e-7 for v in signal), *noise, q.sigma2),
                       QuadCoeffs(*signal, *(v * 1e-7 for v in noise), q.sigma2)):
            got = snr_advantage(scaled)
            assert got == pytest.approx(beta, rel=1e-12)
            assert snr(got, scaled) > snr(0.0, scaled)
        for e in (40, -40):
            scaled = QuadCoeffs(*(math.ldexp(v, e) for v in signal + noise), q.sigma2)
            assert snr_advantage(scaled) == beta

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
