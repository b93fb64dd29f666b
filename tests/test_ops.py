"""Forward kernel semantics against hand values and loop oracles."""

import numpy as np
import pytest

from perigate import autodiff as ad
from perigate import ops
from perigate.errors import ConfigurationError
from perigate.spectral import SepKernel

from naive import dense_conv2d, dense_dwconv2d, window_mean3

DTYPES = [np.float64, np.float32]


def assert_oracle(got, want, dtype):
    """float64 agrees to atol 1e-12; float32 to 1e-5 of the output's scale."""
    assert got.dtype == dtype
    assert got.shape == want.shape
    if dtype == np.float64:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    else:
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


IDENTITY3 = np.array([0.0, 1.0, 0.0])


def row_pass(x, h):
    """The 1 x k pass alone: a separable correlation with an identity column kernel."""
    return ops.sep_conv(x, h, IDENTITY3)


def column_pass(x, v):
    return ops.sep_conv(x, IDENTITY3, v)


class TestDepthwise1D:
    def test_ones_row(self):
        x = np.ones((1, 1, 3))
        out = row_pass(x, np.array([[1.0, 1.0, 1.0]]))
        assert np.array_equal(out, np.array([[[2.0, 3.0, 2.0]]]))

    def test_identity_kernel(self):
        x = np.random.default_rng(0).random((3, 4, 5))
        assert np.array_equal(row_pass(x, np.array([0.0, 1.0, 0.0])), x)
        assert np.array_equal(column_pass(x, np.array([0.0, 1.0, 0.0])), x)

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
        out = ops.sep_conv(x, np.ones((1, 3)), np.ones((1, 3)))
        expected = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        assert np.array_equal(out[0], expected)

    def test_identity(self):
        x = np.random.default_rng(2).random((2, 6, 6))
        ident = np.array([0.0, 1.0, 0.0])
        assert np.array_equal(ops.sep_conv(x, ident, ident), x)

    @pytest.mark.parametrize("k", [3, 9, 15])
    def test_equals_rank1_dense(self, k):
        rng = np.random.default_rng(k)
        x = rng.standard_normal((3, 8, 8))
        h = rng.standard_normal((3, k))
        v = rng.standard_normal((3, k))
        dense = np.einsum("ci,cj->cij", v, h)
        got = ops.sep_conv(x, h, v)
        want = dense_dwconv2d(x, dense)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_shape_preserved_large_kernel(self):
        x = np.zeros((1, 16, 16))
        out = ops.sep_conv(x, np.ones((1, 31)), np.ones((1, 31)))
        assert out.shape == x.shape


class TestDepthwise2D:
    def test_delta(self):
        x = np.random.default_rng(3).random((2, 4, 4))
        delta = np.zeros((3, 3))
        delta[1, 1] = 1.0
        assert np.array_equal(ops.dwconv_2d(x, delta), x)

    def test_box_on_ones(self):
        out = ops.dwconv_2d(np.ones((1, 3, 3)), np.ones((3, 3)))
        assert out[0, 1, 1] == 9.0
        assert out[0, 0, 0] == 4.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 6, 6))
        k = rng.standard_normal((1, 3, 3))
        np.testing.assert_allclose(ops.dwconv_2d(x, k), dense_dwconv2d(x, k), atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            ops.dwconv_2d(np.zeros((1, 4, 4)), np.ones((4, 4)))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_oracle_cases(self, k, shared, dtype):
        rng = np.random.default_rng(40 + k)
        x = rng.standard_normal((3, 5, 8)).astype(dtype)
        kernel = rng.standard_normal((k, k) if shared else (3, k, k)).astype(dtype)
        want = dense_dwconv2d(x.astype(np.float64), kernel.astype(np.float64))
        assert_oracle(ops.dwconv_2d(x, kernel), want, dtype)


class TestConv2dFull:
    def test_matches_loop_oracle_stride1(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        np.testing.assert_allclose(ops.conv2d(x, w, b), dense_conv2d(x, w, b), atol=1e-12)

    def test_matches_loop_oracle_stride2(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 6, 6))
        w = rng.standard_normal((4, 2, 3, 3))
        got = ops.conv2d(x, w, None, stride=2)
        assert got.shape == (4, 3, 3)
        np.testing.assert_allclose(got, dense_conv2d(x, w, None, stride=2), atol=1e-12)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_oracle_cases(self, k, stride, bias, dtype):
        rng = np.random.default_rng(50 + k)
        x = rng.standard_normal((3, 7, 10)).astype(dtype)
        w = rng.standard_normal((4, 3, k, k)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype) if bias else None
        want = dense_conv2d(
            x.astype(np.float64), w.astype(np.float64),
            None if b is None else b.astype(np.float64), stride=stride,
        )
        assert_oracle(ops.conv2d(x, w, b, stride=stride), want, dtype)


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


class TestAvgPool:
    def test_constant_image(self):
        out = ops.avg_pool3(np.full((1, 4, 4), 3.0))
        assert out[0, 1, 1] == pytest.approx(3.0)
        assert out[0, 0, 1] == pytest.approx(6 * 3.0 / 9)
        assert out[0, 0, 0] == pytest.approx(4 * 3.0 / 9)

    def test_center_impulse(self):
        x = np.zeros((1, 3, 3))
        x[0, 1, 1] = 1.0
        np.testing.assert_allclose(ops.avg_pool3(x), np.full((1, 3, 3), 1.0 / 9.0))

    def test_matches_window_oracle(self):
        x = np.random.default_rng(9).standard_normal((2, 5, 6))
        np.testing.assert_allclose(ops.avg_pool3(x), window_mean3(x), atol=1e-12)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("hw", [(7, 10), (1, 4), (2, 1)])
    def test_oracle_cases(self, hw, dtype):
        x = np.random.default_rng(70).standard_normal((3, *hw)).astype(dtype)
        assert_oracle(ops.avg_pool3(x), window_mean3(x.astype(np.float64)), dtype)


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
        assert ops.tanh(0.0) == 0.0
        assert ops.sigmoid(0.0) == 0.5
        x = np.random.default_rng(12).standard_normal((2, 3, 3))
        assert np.array_equal(ops.mul(x, np.ones_like(x)), x)

    def test_per_channel_broadcast(self):
        x = np.ones((2, 2, 2))
        out = ops.mul(x, np.array([2.0, 3.0]))
        assert np.all(out[0] == 2.0) and np.all(out[1] == 3.0)

    def test_illegal_broadcast(self):
        with pytest.raises(ConfigurationError):
            ops.add(np.zeros((2, 3, 3)), np.zeros((3, 3)))

    def test_leaky_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(ops.leaky_relu(x, 0.2), [-0.4, 0.0, 3.0])


class TestGrn:
    def test_zero_affine_is_residual(self):
        x = np.random.default_rng(13).standard_normal((3, 4, 4))
        out = ops.grn(x, np.zeros(3), np.zeros(3))
        assert np.array_equal(out, x)

    def test_identical_channels_unit_ratio(self):
        base = np.random.default_rng(14).standard_normal((4, 4))
        x = np.stack([base] * 3)
        g = np.sqrt((base**2).sum())
        n_expected = g / (g + 1e-6)
        out = ops.grn(x, np.ones(3), np.zeros(3))
        np.testing.assert_allclose(out, x * n_expected + x, rtol=1e-12)

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
        rng = np.random.default_rng(17)
        xs = [rng.random((c, 4, 4)) for c in (1, 3, 2)]
        stacked = ops.concat_channels(xs)
        parts = ops.split_channels(stacked, [1, 3, 2])
        for a, b in zip(xs, parts):
            assert np.array_equal(a, b)

    def test_even_split(self):
        x = np.random.default_rng(18).random((6, 2, 2))
        a, b = ops.split_channels(x, [3, 3])
        assert np.array_equal(np.concatenate([a, b]), x)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ops.concat_channels([np.zeros((1, 3, 3)), np.zeros((1, 4, 4))])

    def test_pack_unpack(self):
        rng = np.random.default_rng(19)
        frames = [rng.random((2, 3, 3)) for _ in range(4)]
        z = ad.pack_time(frames).value
        assert z.shape == (8, 3, 3)
        assert np.array_equal(z[2:4], frames[1])  # frame t at block [t*C, (t+1)*C)
        back = ad.unpack_time(z, 4)
        for a, b in zip(frames, back):
            assert np.array_equal(a, b.value)

    def test_pack_single_identity(self):
        x = np.random.default_rng(20).random((3, 2, 2))
        assert np.array_equal(ad.pack_time([x]).value, x)

    def test_unpack_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            ad.unpack_time(np.zeros((5, 2, 2)), 2)


class TestBatchAxis:
    """A leading batch axis: every slice matches the loop oracle on that sample."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("op", ["conv2d_s1", "conv2d_s2", "pwconv", "dwconv_2d",
                                    "sep_conv", "avg_pool3"])
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
            "conv2d_s1": (lambda a: ops.conv2d(a, w, b),
                          lambda a: dense_conv2d(a, f64(w), f64(b))),
            "conv2d_s2": (lambda a: ops.conv2d(a, w, None, 2),
                          lambda a: dense_conv2d(a, f64(w), None, stride=2)),
            "pwconv": (lambda a: ops.pwconv(a, pw, b),
                       lambda a: dense_conv2d(a, f64(pw)[:, :, None, None], f64(b))),
            "dwconv_2d": (lambda a: ops.dwconv_2d(a, k2), lambda a: dense_dwconv2d(a, f64(k2))),
            "sep_conv": (lambda a: ops.sep_conv(a, h, v),
                         lambda a: dense_dwconv2d(a, np.einsum("ci,cj->cij", f64(v), f64(h)))),
            "avg_pool3": (ops.avg_pool3, window_mean3),
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
        for fn in (lambda a: ops.group_norm(a, gamma, beta, 2),
                   lambda a: ops.grn(a, gamma, beta),
                   ops.softmax_channels, ops.mean_channels, ops.upsample2x):
            batched = fn(x)
            for i in range(2):
                np.testing.assert_allclose(batched[i], fn(x[i]), rtol=1e-14, atol=1e-14)

    def test_layout_over_batch(self):
        rng = np.random.default_rng(82)
        frames = [rng.random((2, 3, 4, 4)) for _ in range(2)]
        z = ad.pack_time(frames).value
        assert z.shape == (2, 6, 4, 4)
        assert np.array_equal(z[:, 3:6], frames[1])
        for a, b in zip(frames, ad.unpack_time(z, 2)):
            assert np.array_equal(a, b.value)

    def test_gate_map_broadcasts_over_channels(self):
        x = np.random.default_rng(83).random((2, 3, 4, 4))
        m = np.random.default_rng(84).random((2, 1, 4, 4))
        assert np.array_equal(ops.mul(x, m), x * m)
        with pytest.raises(ConfigurationError):
            ops.mul(x, m[:1])  # a map must carry the same leading axes


class TestSepKernelType:
    def test_outer(self):
        sk = SepKernel(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, -1.0]))
        assert sk.k == 3
        assert sk.outer().shape == (3, 3)
        assert sk.outer()[0, 2] == 3.0

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            SepKernel(np.ones(2), np.ones(2))
        with pytest.raises(ConfigurationError):
            SepKernel(np.ones(3), np.ones(5))


def test_same_padding_preserves_shape_all_k():
    x = np.random.default_rng(21).random((1, 4, 4))
    for k in (1, 3, 5, 7, 9):
        assert ops.sep_conv(x, np.ones((1, k)), np.ones(k)).shape == x.shape
        assert ops.dwconv_2d(x, np.ones((k, k))).shape == x.shape


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
    got = ops.sep_conv(x, h, v)
    want = ops.dwconv_2d(x, dense)
    denom = np.abs(want).max()
    assert np.abs(got - want).max() / denom < 1e-5
