"""Forward kernel semantics against hand values and loop oracles."""

import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perigate import autodiff as ad
from perigate import ops
from perigate.errors import ConfigurationError
from perigate.spectral import SepKernel

from helpers import glu_params, traced_peak
from naive import (
    band_sums as naive_band_sums,
    conv2d_stride2_input_grad as zero_interleaved_input_grad,
    dense_conv2d,
    dense_conv2d_grads,
    dense_dwconv2d,
    dense_dwconv2d_grads,
    dwconv_1d,
    dwconv_1d_grads,
    freq_descriptor as naive_descriptor,
    freq_descriptor_grad,
    freq_descriptor_vjp as recomputing_descriptor_vjp,
    glu as naive_glu,
    glu_bias_passes,
    glu_grads as naive_glu_grads,
    group_norm_act as naive_group_norm_act,
    toeplitz as naive_toeplitz,
    upsample_conv2d as naive_upsample_conv2d,
    upsample_conv2d_grads as naive_upsample_conv2d_grads,
    window_variance3,
)

DTYPES = [np.float64, np.float32]


def assert_oracle(got, want, dtype):
    """float64 agrees to atol 1e-12; float32 to 1e-5 of the output's scale."""
    assert got.dtype == dtype
    assert got.shape == want.shape
    if dtype == np.float64:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def identity3(c):
    """[C, 3] identity taps."""
    return np.tile([0.0, 1.0, 0.0], (c, 1))


def sep_conv(x, h, v):
    return ops.sep_conv_parts(x, h, v)[0]


def row_pass(x, h):
    """The 1 x k pass alone: a separable correlation with an identity column kernel."""
    return sep_conv(x, h, identity3(x.shape[-3]))


def column_pass(x, v):
    return sep_conv(x, identity3(x.shape[-3]), v)


class TestDepthwise1D:
    def test_ones_row(self):
        x = np.ones((1, 1, 3))
        out = row_pass(x, np.array([[1.0, 1.0, 1.0]]))
        assert np.array_equal(out, np.array([[[2.0, 3.0, 2.0]]]))

    def test_identity_kernel(self):
        x = np.random.default_rng(0).random((3, 4, 5))
        assert np.array_equal(row_pass(x, identity3(3)), x)
        assert np.array_equal(column_pass(x, identity3(3)), x)

    def test_ones_column(self):
        x = np.ones((1, 3, 1))
        out = column_pass(x, np.array([[1.0, 1.0, 1.0]]))
        assert np.array_equal(out[0, :, 0], np.array([2.0, 3.0, 2.0]))

    def test_matches_dense_embedding(self):
        # a 1 x k row kernel embedded in a k x k zero matrix
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 5))
        h = rng.standard_normal((2, 5))
        dense = np.zeros((2, 5, 5))
        dense[:, 2, :] = h
        np.testing.assert_allclose(
            row_pass(x, h), dense_dwconv2d(x, dense), rtol=0, atol=1e-12
        )

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            row_pass(np.zeros((1, 3, 3)), np.ones((1, 4)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            row_pass(np.zeros((2, 3, 3)), np.ones((3, 3)))


class TestSepConv:
    def test_box_kernel_hand_values(self):
        x = np.ones((1, 3, 3))
        out = sep_conv(x, np.ones((1, 3)), np.ones((1, 3)))
        expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        assert np.array_equal(out[0], expected)

    def test_identity(self):
        x = np.random.default_rng(2).random((2, 6, 6))
        assert np.array_equal(sep_conv(x, identity3(2), identity3(2)), x)

    @pytest.mark.parametrize("k", [3, 9, 15])
    def test_equals_rank1_dense(self, k):
        rng = np.random.default_rng(k)
        x = rng.standard_normal((3, 8, 8))
        h = rng.standard_normal((3, k))
        v = rng.standard_normal((3, k))
        dense = np.einsum("ci,cj->cij", v, h)
        got = sep_conv(x, h, v)
        want = dense_dwconv2d(x, dense)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_shape_preserved_large_kernel(self):
        x = np.zeros((1, 16, 16))
        out = sep_conv(x, np.ones((1, 31)), np.ones((1, 31)))
        assert out.shape == x.shape

    def test_shared_kernels_refused(self):
        # depthwise kernels are per-channel: a [k] or [k, k] kernel is not broadcast
        x = np.zeros((2, 5, 5))
        with pytest.raises(ConfigurationError, match=r"must be \[C, k\], got shape \(3,\)"):
            sep_conv(x, np.ones(3), np.ones((2, 3)))
        with pytest.raises(ConfigurationError, match=r"must be \[C, k\], got shape \(3,\)"):
            sep_conv(x, np.ones((2, 3)), np.ones(3))
        with pytest.raises(ConfigurationError, match=r"must be \[C, k, k\], got shape \(3, 3\)"):
            ops.dwconv_2d(x, np.ones((3, 3)))


@st.composite
def banded_cases(draw):
    """A sep_conv input with image sides 1..20, odd k up to 35 (often k >= H or
    W), per-channel [C, k] taps, and zero or one leading axes."""
    c, hh, ww = (draw(st.integers(1, 20)) for _ in range(3))
    k = 2 * draw(st.integers(0, 17)) + 1
    lead = draw(st.sampled_from([(), (1,), (2,)]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, g = (rng.standard_normal(lead + (c, hh, ww)).astype(dtype) for _ in range(2))
    h, v = (rng.standard_normal((c, k)).astype(dtype) for _ in range(2))
    return x, h, v, g


def oracle_sep_conv(x, h, v, g):
    """(y, mid, gx, gh, gv) of sep_conv from the loop oracles, sample by sample."""
    f64 = lambda a: np.asarray(a, dtype=np.float64)  # noqa: E731
    x, h, v, g = f64(x), f64(h), f64(v), f64(g)
    xs, gs = x.reshape((-1,) + x.shape[-3:]), g.reshape((-1,) + g.shape[-3:])
    ys, mids, gxs = [], [], []
    gh = gv = 0.0
    for xi, gi in zip(xs, gs):
        mid = dwconv_1d(xi, h, -1)
        g_mid, gv_i = dwconv_1d_grads(mid, v, gi, -2)
        gx_i, gh_i = dwconv_1d_grads(xi, h, g_mid, -1)
        ys.append(dwconv_1d(mid, v, -2))
        mids.append(mid)
        gxs.append(gx_i)
        gh, gv = gh + gh_i, gv + gv_i
    return (np.reshape(ys, x.shape), np.reshape(mids, x.shape), np.reshape(gxs, x.shape),
            gh, gv)


def assert_banded(got, want, bound, dtype):
    """Entrywise error within a multiple of the sum of |terms| (``bound``, the
    oracle on absolute values): 1e-12 in float64, 1e-5 in float32."""
    assert got.dtype == dtype and got.shape == want.shape
    rtol = 1e-12 if dtype == np.float64 else 1e-5
    assert np.all(np.abs(got - want) <= rtol * bound)


@st.composite
def strided_view_cases(draw):
    """A square n x n pass with n in 1..70 and odd k in 1..2n + 3 (k > n clips
    the band), per-channel [C, k] taps, zero or one leading axes."""
    n = draw(st.integers(1, 70))
    k = 2 * draw(st.integers(0, n + 1)) + 1
    c = draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (2,)]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kernel = rng.standard_normal((c, k)).astype(dtype)
    x, g = (rng.standard_normal(lead + (c, n, n)).astype(dtype) for _ in range(2))
    return kernel, x, g


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBandedPasses:
    """The 1-D passes run as banded Toeplitz GEMMs; the loop oracles are the reference."""

    @settings(max_examples=30, deadline=None)
    @given(case=banded_cases())
    @example(case=(np.ones((2, 3, 20)), np.ones((2, 35)), np.ones((2, 35)), np.ones((2, 3, 20))))
    @example(case=(np.ones((1, 20, 2, 1)), np.ones((20, 35)), np.ones((20, 35)),
                   np.ones((1, 20, 2, 1))))
    def test_forward_and_vjp_match_loop_oracles(self, case):
        x, h, v, g = case
        y, mid = ops.sep_conv_parts(x, h, v)
        with ad.Tape():
            out = ad.sep_conv(x, ad.Var(h), ad.Var(v))
        got = (y, mid) + tuple(out.vjp(g))
        want = oracle_sep_conv(x, h, v, g)
        bound = oracle_sep_conv(np.abs(x), np.abs(h), np.abs(v), np.abs(g))
        for a, b, c in zip(got, want, bound):
            assert_banded(a, b, c, x.dtype)

    @settings(max_examples=60, deadline=None)
    @given(case=strided_view_cases())
    @example(case=(np.ones((1, 1)), np.ones((1, 1, 1)), np.ones((1, 1, 1))))
    @example(case=(np.ones((2, 7)), np.ones((2, 2, 2, 2)), np.ones((2, 2, 2, 2))))
    def test_strided_views_bitwise_equal_to_window_views(self, case):
        kernel, x, g = case
        n = x.shape[-2]
        assert_bitwise(ops._toeplitz(kernel, n), naive_toeplitz(kernel, n))
        m = x @ np.swapaxes(g, -1, -2)
        assert_bitwise(ad._band_sums(m, kernel.shape[-1]), naive_band_sums(m, kernel.shape[-1]))
        for axis in (-1, -2):
            got = ad._dwconv_1d_vjp(g, x, kernel, axis)
            with mock.patch.object(ops, "_toeplitz", naive_toeplitz), \
                    mock.patch.object(ad, "_band_sums", naive_band_sums):
                want = ad._dwconv_1d_vjp(g, x, kernel, axis)
            for a, b in zip(got, want):
                assert_bitwise(a, b)

    def test_peak_memory_has_no_window_axis(self):
        # Peak while the horizontal kernel gradient is formed, in input-sized
        # [1, C, 64, 64] buffers: the kept y and mid (2), g_mid (1), M = x g^T
        # (1) and M padded by p rows per side (1 + 2p/64), so 5 + 30/64; the
        # bound adds one buffer of slack. A materialized [..., k] window alone
        # would be k = 31 of them.
        rng = np.random.default_rng(32)
        x = rng.standard_normal((1, 60, 64, 64)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        h, v = (ad.Var(rng.standard_normal((60, 31)).astype(np.float32)) for _ in range(2))

        def forward_and_vjp():
            with ad.Tape():
                out = ad.sep_conv(x, h, v)
            out.vjp(g)

        _, peak = traced_peak(forward_and_vjp)
        assert peak < (6 + 30 / 64) * x.nbytes


@st.composite
def dwconv_2d_cases(draw):
    """A dwconv_2d input with sides 1..8, odd k up to 7 (often k > H or W),
    per-channel [C, k, k] taps, and zero or one leading axes."""
    c, hh, ww = (draw(st.integers(1, 8)) for _ in range(3))
    k = 2 * draw(st.integers(0, 3)) + 1
    lead = draw(st.sampled_from([(), (1,), (2,)]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, g = (rng.standard_normal(lead + (c, hh, ww)).astype(dtype) for _ in range(2))
    kernel = rng.standard_normal((c, k, k)).astype(dtype)
    return x, kernel, g


def oracle_dwconv_2d(x, kernel, g):
    """(y, gx, gk) of dwconv_2d from the loop oracles, sample by sample."""
    x, kernel, g = (np.asarray(a, dtype=np.float64) for a in (x, kernel, g))
    xs, gs = x.reshape((-1,) + x.shape[-3:]), g.reshape((-1,) + g.shape[-3:])
    grads = [dense_dwconv2d_grads(xi, kernel, gi) for xi, gi in zip(xs, gs)]
    gk = sum(gk_i for _, gk_i in grads)
    ys = [dense_dwconv2d(xi, kernel) for xi in xs]
    return np.reshape(ys, x.shape), np.reshape([gx for gx, _ in grads], x.shape), gk


class TestDepthwise2D:
    def test_delta(self):
        x = np.random.default_rng(3).random((2, 4, 4))
        delta = np.zeros((2, 3, 3))
        delta[:, 1, 1] = 1.0
        assert np.array_equal(ops.dwconv_2d(x, delta), x)

    def test_box_on_ones(self):
        out = ops.dwconv_2d(np.ones((1, 3, 3)), np.ones((1, 3, 3)))
        assert out[0, 1, 1] == 9.0
        assert out[0, 0, 0] == 4.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 6, 6))
        k = rng.standard_normal((1, 3, 3))
        np.testing.assert_allclose(ops.dwconv_2d(x, k), dense_dwconv2d(x, k), atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            ops.dwconv_2d(np.zeros((1, 4, 4)), np.ones((1, 4, 4)))

    @settings(max_examples=40, deadline=None)
    @given(case=dwconv_2d_cases())
    @example(case=(np.ones((2, 3, 2, 1)), np.ones((3, 7, 7)), np.ones((2, 3, 2, 1))))
    def test_forward_and_vjp_match_loop_oracles(self, case):
        x, kernel, g = case
        with ad.Tape():
            out = ad.dwconv_2d(x, ad.Var(kernel))
        got = (out.value,) + tuple(out.vjp(g))
        want = oracle_dwconv_2d(x, kernel, g)
        bound = oracle_dwconv_2d(np.abs(x), np.abs(kernel), np.abs(g))
        for a, b, c in zip(got, want, bound):
            assert_banded(a, b, c, x.dtype)

    def test_channel_blocks_bitwise_equal_to_one_call_per_channel(self):
        # 32 KiB planes: blocks of 8 channels, 30 of them
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 240, 64, 64)).astype(np.float32)
        kernel = rng.standard_normal((240, 3, 3)).astype(np.float32)
        assert ops.BLOCK_BYTES // x[:, 0].nbytes == 8
        want = [ops.dwconv_2d(x[:, c : c + 1], kernel[c : c + 1]) for c in range(240)]
        assert ops.dwconv_2d(x, kernel).tobytes() == np.concatenate(want, axis=1).tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_oracle_cases(self, k, shared, dtype):
        """Per-channel [C, k, k] taps match the loop oracle; a shared [k, k] kernel is
        refused, not broadcast over the channels."""
        rng = np.random.default_rng(40 + k)
        x = rng.standard_normal((3, 5, 8)).astype(dtype)
        kernel = rng.standard_normal((k, k) if shared else (3, k, k)).astype(dtype)
        if shared:
            with pytest.raises(ConfigurationError, match=r"must be \[C, k, k\]"):
                ops.dwconv_2d(x, kernel)
            return
        want = dense_dwconv2d(x.astype(np.float64), kernel.astype(np.float64))
        assert_oracle(ops.dwconv_2d(x, kernel), want, dtype)


@st.composite
def conv2d_cases(draw, ci, k, stride):
    """An ad.conv2d input with sides 1..7 (odd and even, often below k), 1..3
    output channels, zero or one leading axes, and an output gradient."""
    hh, ww, co = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (1,), (2,)]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(lead + (ci, hh, ww)).astype(dtype)
    w = rng.standard_normal((co, ci, k, k)).astype(dtype)
    g = rng.standard_normal(lead + (co, (hh - 1) // stride + 1, (ww - 1) // stride + 1))
    return x, w, g.astype(dtype)


def oracle_conv2d(x, w, g, stride):
    """(y, gx, gw) of conv2d from the loop oracles, sample by sample."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    xs, gs = x.reshape((-1,) + x.shape[-3:]), g.reshape((-1,) + g.shape[-3:])
    ys = [dense_conv2d(xi, w, None, stride) for xi in xs]
    grads = [dense_conv2d_grads(xi, w, gi, stride) for xi, gi in zip(xs, gs)]
    return (np.reshape(ys, g.shape), np.reshape([gx for gx, _, _ in grads], x.shape),
            sum(gw for _, gw, _ in grads))


class TestConv2dFull:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("ci", [1, 2, 3])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_forward_and_vjp_match_loop_oracles(self, ci, k, stride, data):
        x, w, g = data.draw(conv2d_cases(ci, k, stride))
        with ad.Tape():
            out = ad.conv2d(ad.Var(x), ad.Var(w), stride)
        got = (out.value,) + tuple(out.vjp(g))
        want = oracle_conv2d(x, w, g, stride)
        bound = oracle_conv2d(np.abs(x), np.abs(w), np.abs(g), stride)
        for a, b_, c in zip(got, want, bound):
            assert_banded(a, b_, c, x.dtype)

    @pytest.mark.parametrize("partition", ["one", "two", "uneven"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pixel_blocks_match_loop_oracles(self, partition, data):
        """BLOCK_BYTES cut so that the forward's n output columns (with wrap columns)
        fall into one block, two equal blocks, or several with a shorter last one."""
        ci, stride = data.draw(st.sampled_from([1, 2, 3])), data.draw(st.sampled_from([1, 2]))
        k = data.draw(st.sampled_from([1, 3, 5]))
        x, w, g = data.draw(conv2d_cases(ci, k, stride))
        n = g.shape[-2] * (g.shape[-1] + (k - 1) // stride)
        if partition == "one":
            step = data.draw(st.integers(n, 2 * n))
        elif partition == "two":
            assume(n % 2 == 0)
            step = n // 2
        else:
            assume(n >= 3)
            step = data.draw(st.integers(2, n - 1))
            assume(n % step)
        with mock.patch.object(ops, "BLOCK_BYTES", step * ci * x.itemsize):
            sizes = [sl.stop - sl.start for sl in ops.index_blocks(n, ci * x.itemsize)]
            with ad.Tape():
                out = ad.conv2d(ad.Var(x), ad.Var(w), stride)
            got = (out.value,) + tuple(out.vjp(g))
        assert {"one": sizes == [n], "two": sizes == [step, step],
                "uneven": len(sizes) > 1 and 0 < sizes[-1] < step}[partition]
        want = oracle_conv2d(x, w, g, stride)
        bound = oracle_conv2d(np.abs(x), np.abs(w), np.abs(g), stride)
        for a, b_, c in zip(got, want, bound):
            assert_banded(a, b_, c, x.dtype)

    def test_stride2_reads_parity_planes(self):
        # each tap reads an Ho x (Wo + 1) window of one parity plane: no GEMM is wider
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 16, 12))
        w = rng.standard_normal((4, 3, 3, 3))
        widths, matmul = [], np.matmul

        def recorded(a, b, *args, **kwargs):
            widths.append(b.shape[-1])
            return matmul(a, b, *args, **kwargs)

        with mock.patch.object(np, "matmul", recorded):
            got = ops.conv2d(x, w, stride=2)
        assert widths == [8 * 7] * 9
        want = [dense_conv2d(xi, w, None, stride=2) for xi in x]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_matches_loop_oracle_stride1(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        np.testing.assert_allclose(ops.conv2d(x, w), dense_conv2d(x, w, None), atol=1e-12)

    def test_matches_loop_oracle_stride2(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 6, 6))
        w = rng.standard_normal((4, 2, 3, 3))
        got = ops.conv2d(x, w, stride=2)
        assert got.shape == (4, 3, 3)
        np.testing.assert_allclose(got, dense_conv2d(x, w, None, stride=2), atol=1e-12)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("one_input_channel", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_oracle_cases(self, k, stride, one_input_channel, dtype):
        """Three input channels (the tap GEMMs) or one (one product with the stacked
        windows)."""
        ci = 1 if one_input_channel else 3
        rng = np.random.default_rng(50 + k)
        x = rng.standard_normal((ci, 7, 10)).astype(dtype)
        w = rng.standard_normal((4, ci, k, k)).astype(dtype)
        want = dense_conv2d(x.astype(np.float64), w.astype(np.float64), None, stride=stride)
        assert_oracle(ops.conv2d(x, w, stride=stride), want, dtype)


def stride2_case(rng, lead, ci, co, hh, ww, dtype):
    """x [..., Ci, H, W], a 3 x 3 w [Co, Ci, 3, 3] and the output gradient of their
    stride-2 conv2d."""
    x = rng.standard_normal(lead + (ci, hh, ww)).astype(dtype)
    w = rng.standard_normal((co, ci, 3, 3)).astype(dtype)
    g = rng.standard_normal(lead + (co, (hh + 1) // 2, (ww + 1) // 2)).astype(dtype)
    return x, w, g


def stride2_input_grad(x, w, g):
    """The input gradient of ad.conv2d at stride 2: its vjp's first item."""
    with ad.Tape():
        out = ad.conv2d(ad.Var(x), ad.Var(w), 2)
    return out.vjp(g)[0]


STRIDE2_SIDES = [(8, 8), (7, 9), (6, 5), (1, 3), (2, 1)]


class TestStride2InputGradient:
    """The stride-2 conv2d's input gradient, ops.upsample_conv2d of g under
    ops.stride2_adjoint_fold, against its earlier form through a zero-interleaved map."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("lead", [(), (2,), (2, 1)])
    def test_bitwise_the_zero_interleaved_adjoint(self, lead, dtype):
        rng = np.random.default_rng(90)
        for ci, co in itertools.product([2, 6, 12], repeat=2):
            for hh, ww in STRIDE2_SIDES:
                x, w, g = stride2_case(rng, lead, ci, co, hh, ww, dtype)
                got = stride2_input_grad(x, w, g)
                want = zero_interleaved_input_grad(g, w, hh, ww)
                assert got.shape == x.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (ci, co, hh, ww)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("lead", [(), (2,), (2, 1)])
    def test_one_channel_within_rounding(self, lead, dtype):
        # with one channel the earlier form took conv2d's one-channel route (Co = 1) or
        # matrix-vector products (Ci = 1), which sum the same terms in another order:
        # within 4 eps of the sum of |terms|
        rng, eps = np.random.default_rng(91), np.finfo(dtype).eps
        for ci, co in [(1, 1), (1, 2), (1, 12), (2, 1), (12, 1)]:
            for hh, ww in STRIDE2_SIDES:
                x, w, g = stride2_case(rng, lead, ci, co, hh, ww, dtype)
                got = stride2_input_grad(x, w, g)
                want = zero_interleaved_input_grad(g, w, hh, ww)
                bound = zero_interleaved_input_grad(np.abs(g).astype(np.float64),
                                                    np.abs(w).astype(np.float64), hh, ww)
                assert got.shape == x.shape and got.dtype == want.dtype
                assert np.all(np.abs(got - want) <= 4 * eps * bound), (ci, co, hh, ww)

    def test_four_low_resolution_gemms(self):
        # tap (i, j) of x's four parity planes is one [4 Ci, Co] GEMM over
        # (Ho + 1)(Wo + 2) + 1 columns of g, and no zero map of g's channels is made at
        # x's 16 x 12
        rng = np.random.default_rng(92)
        x, w, g = stride2_case(rng, (2,), 3, 4, 16, 12, np.float64)
        with ad.Tape():
            out = ad.conv2d(ad.Var(x), ad.Var(w), 2)
        gemms, zeros, matmul, np_zeros = [], [], np.matmul, np.zeros

        def recorded_matmul(a, b, *args, **kwargs):
            gemms.append((a.shape, b.shape[-2:]))
            return matmul(a, b, *args, **kwargs)

        def recorded_zeros(shape, *args, **kwargs):
            zeros.append(tuple(shape))
            return np_zeros(shape, *args, **kwargs)

        with mock.patch.object(np, "matmul", recorded_matmul), \
                mock.patch.object(np, "zeros", recorded_zeros):
            gx = out.vjp(g)[0]
        assert gemms == [((12, 4), (4, 9 * 8 + 1))] * 4
        assert (2, 4, 8 + 3, 6 + 2) in zeros  # g padded for the 2 x 2 taps
        assert [s for s in zeros if s[-3] == 4 and s[-2] >= 16] == []
        assert gx.tobytes() == zero_interleaved_input_grad(g, w, 16, 12).tobytes()

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_fold_of_any_kernel_size(self, k):
        # every odd k x k kernel at stride 2, odd and even sides, float64: equal to the
        # zero-interleaved adjoint to rounding
        rng = np.random.default_rng(93 + k)
        for hh, ww in STRIDE2_SIDES + [(11, 4)]:
            x = rng.standard_normal((2, hh, ww))
            w, g = rng.standard_normal((3, 2, k, k)), rng.standard_normal((3,) + (
                (hh + 1) // 2, (ww + 1) // 2))
            np.testing.assert_allclose(stride2_input_grad(x, w, g),
                                       zero_interleaved_input_grad(g, w, hh, ww),
                                       rtol=0, atol=1e-12)


class TestPwconv:
    def test_identity(self):
        x = np.random.default_rng(7).random((3, 4, 4))
        out = ops.pwconv(x, np.eye(3), np.zeros(3))
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_channel_sum(self):
        x = np.stack([np.full((2, 2), 1.5), np.full((2, 2), 2.5)])
        out = ops.pwconv(x, np.array([[1.0, 1.0]]), np.zeros(1))
        assert np.all(out == 4.0)

    def test_matches_per_pixel_matvec(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 4, 5))
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        want = np.zeros((2, 4, 5))
        for i in range(4):
            for j in range(5):
                want[:, i, j] = w @ x[:, i, j] + b
        np.testing.assert_allclose(ops.pwconv(x, w, b), want, atol=1e-12)

    def test_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ops.pwconv(np.zeros((3, 2, 2)), np.zeros((2, 4)), np.zeros(2))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_oracle_cases(self, dtype):
        # a point-wise conv is the dense conv with k = 1
        rng = np.random.default_rng(60)
        x = rng.standard_normal((3, 7, 10)).astype(dtype)
        w = rng.standard_normal((5, 3)).astype(dtype)
        b = rng.standard_normal(5).astype(dtype)
        want = dense_conv2d(
            x.astype(np.float64), w.astype(np.float64)[:, :, None, None], b.astype(np.float64)
        )
        assert_oracle(ops.pwconv(x, w, b), want, dtype)


def f3(x):
    """The descriptor's local-variance cue alone, [..., 1, H, W]."""
    return ops.freq_descriptor(x, ("f3",))[0]


class TestAvgPool:
    """The 3 x 3 box mean (zero padding, divisor 9) inside the descriptor's
    local variance box(x^2) - box(x)^2."""

    def test_constant_image(self):
        out = f3(np.full((1, 4, 4), 3.0))
        assert out[0, 1, 1] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 0, 1] == pytest.approx(6 * 9.0 / 9 - (6 * 3.0 / 9) ** 2)
        assert out[0, 0, 0] == pytest.approx(4 * 9.0 / 9 - (4 * 3.0 / 9) ** 2)

    def test_center_impulse(self):
        x = np.zeros((1, 3, 3))
        x[0, 1, 1] = 1.0
        np.testing.assert_allclose(f3(x), np.full((1, 3, 3), 1.0 / 9.0 - 1.0 / 81.0))

    def test_matches_window_oracle(self):
        x = np.random.default_rng(9).standard_normal((2, 5, 6))
        want = (window_variance3(x[0]) + window_variance3(x[1])) / 2.0
        np.testing.assert_allclose(f3(x)[0], want, atol=1e-12)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hw", [(7, 10), (1, 4), (2, 1)])
    def test_oracle_cases(self, hw, dtype):
        x = np.random.default_rng(70).standard_normal((3, *hw)).astype(dtype)
        want = naive_descriptor(x.astype(np.float64), ops.CUE_NAMES)
        assert_oracle(ops.freq_descriptor(x, ops.CUE_NAMES)[0], want, dtype)


@st.composite
def freq_descriptor_cases(draw):
    """A freq_descriptor input with sides 1..6, 1..4 channels, no, one or two
    leading axes, a cue subset, an output gradient, and the channels per block:
    None for the default BLOCK_BYTES, else BLOCK_BYTES cut to that many channels."""
    c, hh, ww = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lead = draw(st.sampled_from([(), (1,), (2,), (2, 2)]))
    cues = tuple(sorted(draw(st.sets(st.sampled_from(ops.CUE_NAMES), min_size=1))))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    per_block = draw(st.sampled_from([None, 1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(lead + (c, hh, ww)).astype(dtype)
    g = rng.standard_normal(lead + (len(cues), hh, ww)).astype(dtype)
    return x, cues, g, per_block


class TestFreqDescriptor:
    """The fused descriptor op against the composed loop oracle, sample by sample."""

    @settings(max_examples=60, deadline=None)
    @given(case=freq_descriptor_cases())
    @example(case=(np.ones((2, 3, 2, 1)), ("f1", "f2", "f3"), np.ones((2, 3, 2, 1)), 1))
    def test_forward_and_vjp_match_loop_oracle(self, case):
        x, cues, g, per_block = case
        block_bytes = ops.BLOCK_BYTES if per_block is None else per_block * x[..., 0, :, :].nbytes
        with mock.patch.object(ops, "BLOCK_BYTES", block_bytes):
            with ad.Tape():
                out = ad.freq_descriptor(x, cues)
            (gx,) = out.vjp(g)
        assert out.value.dtype == gx.dtype == x.dtype
        xs = x.reshape((-1,) + x.shape[-3:]).astype(np.float64)
        gs = g.reshape((-1,) + g.shape[-3:]).astype(np.float64)
        want = np.reshape([naive_descriptor(xi, cues) for xi in xs], out.value.shape)
        want_gx = np.reshape([freq_descriptor_grad(xi, cues, gi) for xi, gi in zip(xs, gs)],
                             x.shape)
        # float64: the forward bit for bit; the vjp sums in another order. float32:
        # a few roundings of values up to max(1, max x^2), gradients of max|g| max(1, |x|)
        if x.dtype == np.float64:
            assert out.value.tobytes() == want.tobytes()
            rtol = 1e-12
        else:
            rtol = 1e-5
            scale = max(1.0, float(np.abs(x).max()) ** 2)
            assert np.abs(out.value - want).max() <= rtol * scale
        scale = float(np.abs(g).max()) * max(1.0, float(np.abs(x).max()))
        assert np.abs(gx - want_gx).max() <= rtol * scale

    @settings(max_examples=60, deadline=None)
    @given(case=freq_descriptor_cases())
    @example(case=(np.ones((2, 3, 2, 1)), ("f1", "f2", "f3"), np.ones((2, 3, 2, 1)), 1))
    # a flat second channel in a block of its own: its variance is 0 inside, where the sum
    # so far is not, so a mask read after that sum lands in the block's first map differs
    @example(case=(np.stack([np.arange(25.0).reshape(5, 5), np.ones((5, 5))]), ("f3",),
                   np.ones((1, 5, 5)), 1))
    def test_vjp_of_kept_maps_bitwise_equal_to_recomputing_vjp(self, case):
        x, cues, g, per_block = case
        block_bytes = ops.BLOCK_BYTES if per_block is None else per_block * x[..., 0, :, :].nbytes
        with mock.patch.object(ops, "BLOCK_BYTES", block_bytes):
            plain, none = ops.freq_descriptor(x, cues)
            with ad.Tape():
                out = ad.freq_descriptor(x, cues)
            (gx,) = out.vjp(g)
            want = recomputing_descriptor_vjp(x, cues, g)
        assert none is None and out.value.tobytes() == plain.tobytes()
        assert gx.dtype == want.dtype and gx.tobytes() == want.tobytes()

    def test_channel_blocks_bitwise_equal_to_one_block(self):
        # 32 KiB planes: blocks of 8 channels, 30 of them
        x = np.random.default_rng(42).standard_normal((2, 240, 64, 64)).astype(np.float32)
        assert ops.BLOCK_BYTES // x[:, 0].nbytes == 8
        blocked = ops.freq_descriptor(x, ops.CUE_NAMES)[0]
        with mock.patch.object(ops, "BLOCK_BYTES", x.nbytes):
            whole = ops.freq_descriptor(x, ops.CUE_NAMES)[0]
        assert blocked.tobytes() == whole.tobytes()

    def test_vjp_channel_blocks_bitwise_equal_to_one_block(self):
        # 8 KiB channels over the two samples: blocks of 32 channels, 8 of them
        rng = np.random.default_rng(45)
        x = rng.standard_normal((2, 240, 32, 32)).astype(np.float32)
        g = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert len(ops.index_blocks(240, x[..., 0, :, :].nbytes)) == 8

        def vjp():
            with ad.Tape():
                out = ad.freq_descriptor(x, ops.CUE_NAMES)
            return out.vjp(g)[0]

        blocked = vjp()
        with mock.patch.object(ops, "BLOCK_BYTES", x.nbytes):
            whole = vjp()
        assert blocked.tobytes() == whole.tobytes()


# hidden widths and channels per block giving one block, two equal blocks, or a shorter last
GLU_PARTITIONS = {"one": [(e, e) for e in range(1, 7)], "two": [(2, 1), (4, 2), (6, 3)],
                  "uneven": [(3, 2), (5, 2), (7, 3)]}


@st.composite
def glu_cases(draw, partition):
    """An ad.glu input with sides 1..5, 1..3 channels, no or one leading axis, its seven
    parameters, an output gradient, and the channels per hidden block."""
    e, per_block = draw(st.sampled_from(GLU_PARTITIONS[partition]))
    c, hh, ww = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    lead = draw(st.sampled_from([(), (1,), (2,)]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(lead + (c, hh, ww)).astype(dtype)
    g = rng.standard_normal(lead + (c, hh, ww)).astype(dtype)
    return x, glu_params(rng, c, e, dtype), g, per_block


class TestGlu:
    """The blocked GLU op against the composed loop oracle, sample by sample."""

    @pytest.mark.parametrize("partition", sorted(GLU_PARTITIONS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_forward_and_vjp_match_loop_oracle(self, partition, data):
        x, params, g, per_block = data.draw(glu_cases(partition))
        plane = x.shape[-2] * x.shape[-1] * x.itemsize
        e = params[2].shape[0]
        with mock.patch.object(ops, "BLOCK_BYTES", per_block * plane):
            blocks = ops.index_blocks(e, plane)
            with ad.Tape():
                out = ad.glu(x, *[ad.Var(p) for p in params])
            grads = out.vjp(g)
        sizes = [b.stop - b.start for b in blocks]
        assert sum(sizes) == e and sizes[:-1] == [per_block] * (len(sizes) - 1)
        assert {"one": len(sizes) == 1, "two": sizes == [per_block] * 2,
                "uneven": sizes[-1] < per_block}[partition]
        assert out.value.dtype == x.dtype and all(gr.dtype == x.dtype for gr in grads)
        xs = x.reshape((-1,) + x.shape[-3:]).astype(np.float64)
        gs = g.reshape((-1,) + g.shape[-3:]).astype(np.float64)
        ps = [p.astype(np.float64) for p in params]
        want = np.reshape([naive_glu(xi, *ps) for xi in xs], out.value.shape)
        per_sample = [naive_glu_grads(xi, *ps, gi) for xi, gi in zip(xs, gs)]
        want_grads = [np.reshape([w[0] for w in per_sample], x.shape)]
        want_grads += [sum(w[i] for w in per_sample) for i in range(1, 8)]
        # roundings of values up to each result's largest magnitude
        rtol = 1e-12 if x.dtype == np.float64 else 1e-5
        for got, ref in zip((out.value,) + tuple(grads), [want] + want_grads):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= rtol * max(1.0, float(np.abs(ref).max()))

    @pytest.mark.parametrize("partition", sorted(GLU_PARTITIONS))
    def test_keep_leaves_output_bitwise(self, partition):
        # saving the sigmoid and depthwise maps for the gradient changes no output bit
        rng = np.random.default_rng(44)
        for e, per_block in GLU_PARTITIONS[partition]:
            for dtype in (np.float64, np.float32):
                x = rng.standard_normal((2, 3, 5, 4)).astype(dtype)
                params = glu_params(rng, 3, e, dtype)
                with mock.patch.object(ops, "BLOCK_BYTES", per_block * 5 * 4 * x.itemsize):
                    plain, none = ops.glu(x, *params)
                    kept, saved = ops.glu(x, *params, keep=True)
                assert none is None and plain.tobytes() == kept.tobytes()
                assert [a.shape for a in saved[:3]] == [(2, e, 5, 4)] * 3

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_projection_written_into_the_padded_operand_without_keep(self, dtype):
        # the padded input is dead once the blocks are done, so the projection takes its
        # buffer; a kept output lives on the tape and would hold the whole padded buffer
        rng, operands, glu_operands = np.random.default_rng(45), [], ops.glu_operands

        def recorded(*args):
            xp, wb = glu_operands(*args)
            operands.append(xp)
            return xp, wb

        x = rng.standard_normal((2, 3, 5, 4)).astype(dtype)
        params = glu_params(rng, 3, 6, dtype)
        with mock.patch.object(ops, "glu_operands", recorded):
            plain, kept = ops.glu(x, *params)[0], ops.glu(x, *params, keep=True)[0]
        assert np.shares_memory(plain, operands[0]) and not np.shares_memory(kept, operands[1])

    @pytest.mark.parametrize("lead", [(), (1,), (3,)])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bitwise_equal_to_bias_passes(self, lead, dtype):
        # one GEMM on the padded rows with a ones row gives the bits of two GEMMs and
        # their bias passes, in the output and in every saved array, with and without
        # keep: one block, two equal blocks, a ragged last block of two channels
        rng = np.random.default_rng(46)

        def digests(result):
            out, saved = result
            return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                    for a in (out,) + (saved or ())]

        for c, e, per_block, hh, ww in [(3, 6, 6, 5, 4), (3, 6, 3, 1, 7), (3, 8, 3, 6, 1),
                                         (12, 48, 20, 8, 8)]:
            x = rng.standard_normal(lead + (c, hh, ww)).astype(dtype)
            params = glu_params(rng, c, e, dtype)
            with mock.patch.object(ops, "BLOCK_BYTES", per_block * hh * ww * x.itemsize):
                for keep in (False, True):
                    assert digests(ops.glu(x, *params, keep=keep)) == \
                        digests(glu_bias_passes(x, *params, keep=keep))

    @pytest.mark.parametrize("partition", sorted(GLU_PARTITIONS))
    def test_vjp_recomputes_the_forward_value_rows(self, partition):
        # the padded value rows the kernel gradient reads are bitwise the ones the
        # forward's 3 x 3 tap sum read, blocks of one channel included
        rng = np.random.default_rng(47)
        dw_taps, kernel_grad = ops._dw_taps, ad._dwconv_kernel_grad

        def recorder(original, into):
            def wrapper(*args):
                windows = args[0] if original is dw_taps else args[1]
                into.append([np.ascontiguousarray(w).tobytes() for _, _, w in windows])
                return original(*args)
            return wrapper

        for e, per_block in GLU_PARTITIONS[partition]:
            for dtype in DTYPES:
                x = rng.standard_normal((2, 3, 5, 4)).astype(dtype)
                params = [ad.Var(p) for p in glu_params(rng, 3, e, dtype)]
                forward, backward = [], []
                with mock.patch.object(ops, "BLOCK_BYTES", per_block * 5 * 4 * x.itemsize):
                    blocks = ops.index_blocks(e, 5 * 4 * x.itemsize)
                    with ad.Tape(), mock.patch.object(ops, "_dw_taps",
                                                      recorder(dw_taps, forward)):
                        out = ad.glu(x, *params)
                    with mock.patch.object(ad, "_dwconv_kernel_grad",
                                           recorder(kernel_grad, backward)):
                        out.vjp(np.ones_like(out.value))
                assert len(forward) == len(blocks) and forward == backward

    def test_blocks_depend_on_one_sample(self):
        # a batch of 4 takes the same hidden blocks as one sample (dwconv_2d's would
        # shrink 4-fold), so each sample is bitwise what it gets alone on any BLAS
        rng = np.random.default_rng(43)
        x = rng.standard_normal((4, 6, 16, 16)).astype(np.float32)
        params = glu_params(rng, 6, 24, np.float32)
        partitions, index_blocks = [], ops.index_blocks

        def recorded(channels, channel_bytes):
            blocks = index_blocks(channels, channel_bytes)
            if channels == 24:  # the hidden channels, not dwconv_2d's within a block
                partitions.append(blocks)
            return blocks

        with mock.patch.object(ops, "BLOCK_BYTES", 10 * 16 * 16 * 4), \
                mock.patch.object(ops, "index_blocks", recorded):
            batched = ops.glu(x, *params)[0]
            for i in range(4):
                assert batched[i].tobytes() == ops.glu(x[i], *params)[0].tobytes()
        assert len(partitions) == 5 and all(p == partitions[0] for p in partitions)
        assert [b.stop - b.start for b in partitions[0]] == [10, 10, 4]


@st.composite
def upsample_conv2d_cases(draw):
    """An ad.upsample_conv2d input with sides 1..4 (non-square, 1 x k included), 1..12
    input and output channels, no, one or two leading axes, its 3 x 3 weights and an
    output gradient."""
    hh, ww = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ci, co = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    lead = draw(st.sampled_from([(), (1,), (2,), (2, 1)]))
    dtype = draw(st.sampled_from(DTYPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(lead + (ci, hh, ww)).astype(dtype)
    w = rng.standard_normal((co, ci, 3, 3)).astype(dtype)
    g = rng.standard_normal(lead + (co, 2 * hh, 2 * ww)).astype(dtype)
    return x, w, g


def oracle_upsample_conv2d(x, w, g):
    """(y, gx, gw) of upsample_conv2d from the loop oracles, sample by sample."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    xs, gs = x.reshape((-1,) + x.shape[-3:]), g.reshape((-1,) + g.shape[-3:])
    ys = [naive_upsample_conv2d(xi, w) for xi in xs]
    grads = [naive_upsample_conv2d_grads(xi, w, gi) for xi, gi in zip(xs, gs)]
    return (np.reshape(ys, g.shape), np.reshape([gx for gx, _ in grads], x.shape),
            sum(gw for _, gw in grads))


class TestUpsampleConv2d:
    @settings(max_examples=40, deadline=None)
    @given(case=upsample_conv2d_cases())
    @example(case=(np.ones((1, 1, 1)), np.ones((1, 1, 3, 3)), np.ones((1, 2, 2))))
    def test_forward_and_vjp_match_loop_oracles(self, case):
        x, w, g = case
        with ad.Tape():
            out = ad.upsample_conv2d(x, ad.Var(w))
        got = (out.value,) + tuple(out.vjp(g))
        want = oracle_upsample_conv2d(x, w, g)
        bound = oracle_upsample_conv2d(np.abs(x), np.abs(w), np.abs(g))
        for a, b, c in zip(got, want, bound):
            assert_banded(a, b, c, x.dtype)

    def test_four_low_resolution_gemms(self):
        # tap (i, j) of the four output parity planes is one [4 Co, Ci] GEMM over
        # (H + 1)(W + 2) + 1 columns of the low-resolution input: 16 Co x Ci products
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 6, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        shapes, matmul = [], np.matmul

        def recorded(a, b, *args, **kwargs):
            shapes.append((a.shape, b.shape[-2:]))
            return matmul(a, b, *args, **kwargs)

        with mock.patch.object(np, "matmul", recorded):
            got = ops.upsample_conv2d(x, w)
        assert shapes == [((16, 3), (3, 7 * 7 + 1))] * 4
        want = [naive_upsample_conv2d(xi, w) for xi in x]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_kernel_and_channels_checked(self):
        x = np.zeros((2, 4, 4))
        with pytest.raises(ConfigurationError, match="3x3"):
            ops.upsample_conv2d(x, np.zeros((1, 2, 5, 5)))
        with pytest.raises(ConfigurationError, match="input channels"):
            ops.upsample_conv2d(x, np.zeros((1, 3, 3, 3)))


class TestSoftmax:
    def test_uniform(self):
        out = ops.softmax_channels(np.zeros((3, 2, 2)))
        assert np.all(out == 1.0 / 3.0)

    def test_closed_form(self):
        logits = np.stack([np.full((2, 2), np.log(2.0)), np.zeros((2, 2))])
        out = ops.softmax_channels(logits)
        np.testing.assert_allclose(out[0], 2.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(out[1], 1.0 / 3.0, rtol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 3, 3))
        np.testing.assert_allclose(
            ops.softmax_channels(x), ops.softmax_channels(x + 7.25), atol=1e-12
        )

    def test_simplex(self):
        x = np.random.default_rng(11).standard_normal((5, 4, 4)) * 30
        out = ops.softmax_channels(x)
        assert np.all(out >= 0) and np.all(out <= 1)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-6)


class TestElementwise:
    def test_basics(self):
        assert ad.tanh(0.0).value == 0.0
        assert ad.sigmoid(0.0).value == 0.5
        x = np.random.default_rng(12).standard_normal((2, 3, 3))
        assert np.array_equal(ops.mul(x, np.ones_like(x)), x)

    def test_per_channel_broadcast(self):
        x = np.ones((2, 2, 2))
        out = ops.mul(x, np.array([2.0, 3.0]))
        assert np.all(out[0] == 2.0) and np.all(out[1] == 3.0)

    def test_illegal_broadcast(self):
        with pytest.raises(ConfigurationError):
            ops.add(np.zeros((2, 3, 3)), np.zeros((3, 3)))

    @pytest.mark.parametrize("op", ["add", "sub", "mul"])
    def test_scalar_operand_refused(self, op):
        # no layer sends a 0-d operand; suppress keeps its own path for a fixed beta
        x = np.ones((2, 3, 3))
        with pytest.raises(ConfigurationError, match=r"cannot broadcast \(\) onto"):
            getattr(ops, op)(x, np.float64(2.0))
        with pytest.raises(ConfigurationError, match=r"cannot broadcast \(\) onto"):
            getattr(ad, op)(ad.Var(x), 2.0)
        assert np.array_equal(ops.suppress(x, x, 0.5), np.full((2, 3, 3), 0.5))



class TestGroupNormAct:
    """Group normalization and LeakyReLU as one op, against the composed loop oracle."""

    def test_leaky_slope(self):
        # gamma = 0: each channel's output is LeakyReLU(beta)
        beta = np.array([-2.0, 0.0, 3.0, -0.5])
        x = np.random.default_rng(21).standard_normal((4, 3, 3))
        y, _ = ops.group_norm_act(x, np.zeros(4), beta)
        np.testing.assert_allclose(y, np.broadcast_to([-0.4, 0.0, 3.0, -0.1], (3, 3, 4)).T)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("lead", [(), (1,), (2,)])
    def test_matches_loop_oracle(self, lead, dtype):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(lead + (6, 5, 7)).astype(dtype)
        gamma, beta = rng.standard_normal(6).astype(dtype), rng.standard_normal(6).astype(dtype)
        y, _ = ops.group_norm_act(x, gamma, beta)
        f64 = [a.astype(np.float64) for a in (gamma, beta)]
        want = np.reshape([naive_group_norm_act(xi, *f64)
                           for xi in x.reshape((-1, 6, 5, 7)).astype(np.float64)], x.shape)
        assert_oracle(y, want, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_max_form_equals_where_form_bitwise(self, dtype):
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-30, -1e-30,
                            np.finfo(dtype).tiny, -np.finfo(dtype).tiny, 2.5, -2.5], dtype=dtype)
        a = np.concatenate([special, np.random.default_rng(23).standard_normal(64).astype(dtype)])
        y = a.copy()
        np.maximum(y, 0.2 * y, out=y)
        assert y.tobytes() == np.where(a > 0, a, 0.2 * a).tobytes()
        # the op against the where form of its own affine (slope 1 leaves it as it is);
        # one group holds an infinity, so its statistics and outputs are NaN
        x = np.random.default_rng(24).standard_normal((2, 4, 3, 3)).astype(dtype)
        x[1, 0, 0, 0] = np.inf
        x[0, 2] = 0.0
        gamma, beta = np.array([1.0, -1.0, 0.0, 2.0], dtype), np.array([0.0, 0.5, -0.0, -1.0], dtype)
        with np.errstate(invalid="ignore"):  # inf - inf in the group's mean
            with mock.patch.object(ops, "LEAKY_SLOPE", 1.0):
                affine, _ = ops.group_norm_act(x, gamma, beta)
            y, _ = ops.group_norm_act(x, gamma, beta)
        assert y.tobytes() == np.where(affine > 0, affine, 0.2 * affine).tobytes()
        assert np.isnan(y[1, :2]).all() and np.isfinite(y[1, 2:]).all()

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_grad_check(self, lead):
        rng = np.random.default_rng(25)
        x = rng.standard_normal(lead + (4, 3, 5))
        point = [x, rng.standard_normal(4), rng.standard_normal(4)]
        assert ad.grad_check(lambda a, g, b: ad.group_norm_act(a, g, b), point) < 1e-6

    def test_vjp_takes_the_slope_where_the_output_is_not_positive(self):
        # gamma = 0: the output is beta per channel, so channel c passes slope * g
        # unless beta_c > 0, at 0 too (where LeakyReLU has no derivative)
        x = np.random.default_rng(27).standard_normal((4, 3, 3))
        g = np.random.default_rng(28).standard_normal((4, 3, 3))
        beta = np.array([0.0, -0.0, 1.0, -1.0])
        with ad.Tape():
            out = ad.group_norm_act(x, np.zeros(4), ad.Var(beta))
        _, _, gbeta = out.vjp(g)
        np.testing.assert_allclose(gbeta, g.sum(axis=(1, 2)) * [0.2, 0.2, 1.0, 0.2], rtol=1e-15)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_vjp_factor_form_equals_where_form_bitwise(self, dtype):
        # the vjp's LeakyReLU pass against the where form, fed to the same vjp at slope 1
        # (which leaves g as it is). The outputs hold +-0 (beta +-0 at gamma 0) and NaN
        # (an infinity in a group); g holds +-0 and denormals in a finite group, and
        # +-inf and NaN in another
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.random.default_rng(29).standard_normal((2, 4, 2, 5)).astype(dtype)
        x[1, 2, 0, 0] = np.inf
        g = np.random.default_rng(30).standard_normal(x.shape).astype(dtype)
        g[0, :2, 0] = [[0.0, -0.0, tiny, -tiny, 5 * tiny], [-3 * tiny, 0.0, -0.0, tiny, 2.5]]
        g[0, 2:, 0] = [[np.nan, -np.nan, np.inf, -np.inf, tiny], [0.0, -0.0, np.inf, 1.0, -1.0]]
        gamma, beta = np.array([0.0, 0.0, 1.0, -1.0], dtype), np.array([0.0, -0.0, 0.5, 0.0], dtype)
        with np.errstate(invalid="ignore"), ad.Tape():  # inf - inf in the group's mean
            node = ad.group_norm_act(x, ad.Var(gamma), ad.Var(beta))
            y = node.value
            got = node.vjp(g)
            with mock.patch.object(ops, "LEAKY_SLOPE", 1.0):
                want = node.vjp(np.where(y > 0, g, 0.2 * g))
        assert (y == 0).any() and np.signbit(y[y == 0]).any() and np.isnan(y).any()
        for a, b in zip(got, want):
            assert a.dtype == dtype and a.tobytes() == b.tobytes()

    def test_saves_only_under_a_tape(self):
        x = np.random.default_rng(26).standard_normal((4, 3, 3))
        gamma, beta = np.ones(4), np.zeros(4)
        assert ops.group_norm_act(x, gamma, beta)[1] is None
        y, (xhat, inv) = ops.group_norm_act(x, gamma, beta, keep=True)
        assert xhat.shape == (2, 2, 3, 3) and inv.shape == (2, 1, 1, 1)
        assert y.tobytes() == ops.group_norm_act(x, gamma, beta)[0].tobytes()


class TestGrn:
    """The GLU's global response normalization, seen through an identity projection:
    the op's output is then the normalized gated map z (gamma n + 1) + beta."""

    def test_zero_affine_is_residual(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4, 4))
        w_e, b_e, dw = glu_params(rng, 3, 3)[:3]
        out, saved = ops.glu(x, w_e, b_e, dw, np.zeros(3), np.zeros(3), np.eye(3), np.zeros(3),
                             keep=True)
        assert np.array_equal(out, saved[2])

    def test_identical_channels_unit_ratio(self):
        rng = np.random.default_rng(14)
        base = rng.standard_normal((4, 4))
        x = np.stack([base] * 3)
        # equal expand rows and depthwise kernels: three identical gated channels
        w_e, dw = np.full((6, 3), 0.5), np.stack([rng.standard_normal((3, 3))] * 3)
        out, (_, _, z, _, _, n) = ops.glu(x, w_e, np.zeros(6), dw, np.ones(3), np.zeros(3),
                                          np.eye(3), np.zeros(3), keep=True)
        assert np.array_equal(z[0], z[1]) and np.array_equal(z[0], z[2])
        g = np.sqrt((z[0] ** 2).sum())
        n_expected = g / (g + 1e-6)
        np.testing.assert_allclose(n, n_expected, rtol=1e-12)
        np.testing.assert_allclose(out, z * n_expected + z, rtol=1e-12)

    def test_scale_invariant_ratio(self):
        # invariance is exact up to the eps guard in the denominator
        x = np.random.default_rng(15).standard_normal((3, 5, 5))
        eps = 1e-6

        def ratio(y):
            g = np.sqrt((y**2).sum(axis=(1, 2)))
            return g / (g.mean() + eps)

        np.testing.assert_allclose(ratio(x), ratio(4.0 * x), rtol=1e-6)


class TestLayout:
    def test_concat_single_identity(self):
        x = np.random.default_rng(16).random((2, 3, 3))
        assert np.array_equal(ops.concat_channels([x]), x)

    def test_concat_split_roundtrip(self):
        # the vjp of a concatenation hands each part its own channels of the stacked map
        rng = np.random.default_rng(17)
        xs = [rng.random((c, 4, 4)) for c in (1, 3, 2)]
        with ad.Tape():
            out = ad.concat_channels([ad.Var(x) for x in xs])
        parts = out.vjp(out.value)
        assert len(parts) == len(xs)
        for a, b in zip(xs, parts):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ops.concat_channels([np.zeros((1, 3, 3)), np.zeros((1, 4, 4))])

    def test_pack_unpack(self):
        rng = np.random.default_rng(19)
        frames = [rng.random((2, 3, 3)) for _ in range(4)]
        blocks = [np.stack(frames[:1]), np.stack(frames[1:])]  # frame blocks of 1 and 3
        z = ad.pack_frames(blocks).value
        assert z.shape == (8, 3, 3)
        assert np.array_equal(z[2:4], frames[1])  # frame t at block [t*C, (t+1)*C)
        back = ad.unpack_frames(z, 4, [slice(0, 2), slice(2, 3), slice(3, 4)])
        assert [b.shape[0] for b in back] == [2, 1, 1]
        for a, b in zip(frames, [f for block in back for f in block.value]):
            assert np.array_equal(a, b)

    def test_pack_single_identity(self):
        x = np.random.default_rng(20).random((3, 2, 2))
        assert np.array_equal(ad.pack_frames([x[None]]).value, x)

    def test_unpack_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            ad.unpack_frames(np.zeros((5, 2, 2)), 2, [slice(0, 2)])
        with pytest.raises(ConfigurationError):  # blocks of unequal frames
            ad.pack_frames([np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 3, 2))])


class TestBatchAxis:
    """A leading batch axis: every slice matches the loop oracle on that sample."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("op", ["conv2d_s1", "conv2d_s2", "pwconv", "dwconv_2d",
                                    "sep_conv", "freq_descriptor"])
    def test_oracle_batch_slices(self, op, dtype):
        rng = np.random.default_rng(80)
        x = rng.standard_normal((2, 3, 5, 8)).astype(dtype)
        w = rng.standard_normal((4, 3, 3, 3)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        pw = rng.standard_normal((4, 3)).astype(dtype)
        k2 = rng.standard_normal((3, 3, 3)).astype(dtype)
        h = rng.standard_normal((3, 5)).astype(dtype)
        v = rng.standard_normal((3, 5)).astype(dtype)
        f64 = lambda a: a.astype(np.float64)  # noqa: E731
        kernels = {
            "conv2d_s1": (lambda a: ops.conv2d(a, w),
                          lambda a: dense_conv2d(a, f64(w), None)),
            "conv2d_s2": (lambda a: ops.conv2d(a, w, 2),
                          lambda a: dense_conv2d(a, f64(w), None, stride=2)),
            "pwconv": (lambda a: ops.pwconv(a, pw, b),
                       lambda a: dense_conv2d(a, f64(pw)[:, :, None, None], f64(b))),
            "dwconv_2d": (lambda a: ops.dwconv_2d(a, k2), lambda a: dense_dwconv2d(a, f64(k2))),
            "sep_conv": (lambda a: sep_conv(a, h, v),
                         lambda a: dense_dwconv2d(a, np.einsum("ci,cj->cij", f64(v), f64(h)))),
            "freq_descriptor": (lambda a: ops.freq_descriptor(a, ops.CUE_NAMES)[0],
                                lambda a: naive_descriptor(a, ops.CUE_NAMES)),
        }
        fn, oracle = kernels[op]
        got = fn(x)
        assert got.shape[0] == 2
        for i in range(2):
            assert_oracle(got[i], oracle(f64(x[i])), dtype)

    def test_statistics_per_sample(self):
        rng = np.random.default_rng(81)
        x = rng.standard_normal((2, 4, 5, 5))
        gamma, beta = rng.standard_normal(4), rng.standard_normal(4)
        glu = glu_params(rng, 4, 3)
        w3 = rng.standard_normal((3, 4, 3, 3))
        for fn in (lambda a: ops.group_norm_act(a, gamma, beta)[0],
                   lambda a: ops.glu(a, *glu)[0],
                   ops.softmax_channels, lambda a: ops.freq_descriptor(a, ops.CUE_NAMES)[0],
                   lambda a: ops.upsample_conv2d(a, w3)):
            batched = fn(x)
            for i in range(2):
                np.testing.assert_allclose(batched[i], fn(x[i]), rtol=1e-14, atol=1e-14)

    def test_layout_over_batch(self):
        rng = np.random.default_rng(82)
        frames = [rng.random((2, 3, 4, 4)) for _ in range(2)]
        z = ad.pack_frames([ad.stack_frames(frames)]).value
        assert z.shape == (2, 6, 4, 4)
        assert np.array_equal(z[:, 3:6], frames[1])
        (block,) = ad.unpack_frames(z, 2, [slice(0, 2)])
        for t, a in enumerate(frames):
            assert np.array_equal(a, ad.take_frames(block, t).value)

    def test_gate_map_broadcasts_over_channels(self):
        x = np.random.default_rng(83).random((2, 3, 4, 4))
        m = np.random.default_rng(84).random((2, 1, 4, 4))
        assert np.array_equal(ops.mul(x, m), x * m)
        with pytest.raises(ConfigurationError):
            ops.mul(x, m[:1])  # a map must carry the same leading axes


class TestSepKernelType:
    def test_taps(self):
        sk = SepKernel(np.array([1, 2, 3]), np.array([1.0, 0.0, -1.0]))
        assert sk.k == 3
        assert sk.h.dtype == np.float64
        assert np.array_equal(sk.h, [1.0, 2.0, 3.0]) and np.array_equal(sk.v, [1.0, 0.0, -1.0])

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            SepKernel(np.ones(2), np.ones(2))
        with pytest.raises(ConfigurationError):
            SepKernel(np.ones(3), np.ones(5))


def test_same_padding_preserves_shape_all_k():
    x = np.random.default_rng(21).random((1, 4, 4))
    for k in (1, 3, 5, 7, 9):
        assert sep_conv(x, np.ones((1, k)), np.ones((1, k))).shape == x.shape
        assert ops.dwconv_2d(x, np.ones((1, k, k))).shape == x.shape


def test_parameter_cost_ratio():
    # per-channel cost of a separable pair vs the dense kernel it replaces
    k = 31
    assert k * k == 961 and 2 * k == 62
    assert (k * k) / (2 * k) == 15.5


def test_sep_equals_dense_float32_tolerance():
    # float32 route stays within 1e-5 relative of the dense equivalent
    rng = np.random.default_rng(22)
    x = rng.standard_normal((3, 10, 10)).astype(np.float32)
    h = rng.standard_normal((3, 9)).astype(np.float32)
    v = rng.standard_normal((3, 9)).astype(np.float32)
    dense = np.einsum("ci,cj->cij", v, h)
    got = sep_conv(x, h, v)
    want = ops.dwconv_2d(x, dense)
    denom = np.abs(want).max()
    assert np.abs(got - want).max() / denom < 1e-5
