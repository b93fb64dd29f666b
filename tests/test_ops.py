"""Forward kernel semantics against hand values and loop oracles."""

import numpy as np
import pytest

from perigate import ops
from perigate.errors import ConfigurationError, UnsupportedOperationError
from perigate.tensor import SepKernel

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


class TestDepthwise1D:
    def test_ones_row(self):
        x = np.ones((1, 1, 3))
        out = ops.dwconv_1d_h(x, np.array([[1.0, 1.0, 1.0]]))
        assert np.array_equal(out, np.array([[[2.0, 3.0, 2.0]]]))

    def test_identity_kernel(self):
        x = np.random.default_rng(0).random((3, 4, 5))
        assert np.array_equal(ops.dwconv_1d_h(x, np.array([0.0, 1.0, 0.0])), x)
        assert np.array_equal(ops.dwconv_1d_v(x, np.array([0.0, 1.0, 0.0])), x)

    def test_ones_column(self):
        x = np.ones((1, 3, 1))
        out = ops.dwconv_1d_v(x, np.array([[1.0, 1.0, 1.0]]))
        assert np.array_equal(out[0, :, 0], np.array([2.0, 3.0, 2.0]))

    def test_matches_dense_embedding(self):
        # a 1 x k row kernel embedded in a k x k zero matrix
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 5))
        h = rng.standard_normal((2, 5))
        dense = np.zeros((2, 5, 5))
        dense[:, 2, :] = h
        np.testing.assert_allclose(
            ops.dwconv_1d_h(x, h), dense_dwconv2d(x, dense), rtol=0, atol=1e-12
        )

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            ops.dwconv_1d_h(np.zeros((1, 3, 3)), np.ones((1, 4)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ops.dwconv_1d_h(np.zeros((2, 3, 3)), np.ones((3, 3)))


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

    def test_dispatch(self):
        x = np.array([1.0, -1.0])
        np.testing.assert_array_equal(ops.elementwise("abs", x), np.abs(x))
        with pytest.raises(UnsupportedOperationError):
            ops.elementwise("median", x)

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
        z = ops.pack_time(frames)
        assert z.shape == (8, 3, 3)
        assert np.array_equal(z[2:4], frames[1])  # frame t at block [t*C, (t+1)*C)
        back = ops.unpack_time(z, 4)
        for a, b in zip(frames, back):
            assert np.array_equal(a, b)

    def test_pack_single_identity(self):
        x = np.random.default_rng(20).random((3, 2, 2))
        assert np.array_equal(ops.pack_time([x]), x)

    def test_unpack_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            ops.unpack_time(np.zeros((5, 2, 2)), 2)


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
        assert ops.dwconv_1d_h(x, np.ones((1, k))).shape == x.shape
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
