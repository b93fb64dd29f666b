"""Frequency cues: hand-derived values, DC rejection, scaling laws."""

import numpy as np
import pytest

from perigate import autodiff as ad
from perigate import descriptor, ops
from perigate.errors import ConfigurationError

from naive import window_variance3


def val(x):
    return x.value if hasattr(x, "value") else np.asarray(x)


def sobel_magnitude(x):
    return descriptor.frequency_descriptor(x, cues=("f1",))


def laplacian_abs(x):
    return descriptor.frequency_descriptor(x, cues=("f2",))


def local_variance(x):
    return descriptor.frequency_descriptor(x, cues=("f3",))


def ramp(h, w):
    return np.broadcast_to(np.arange(w, dtype=np.float64), (h, w)).copy()


class TestFilters:
    def test_sobel_transpose_pair(self):
        assert np.array_equal(ops.SOBEL_Y, ops.SOBEL_X.T)

    def test_zero_dc(self):
        assert ops.SOBEL_X.sum() == 0.0
        assert ops.LAPLACIAN.sum() == 0.0


class TestSobelMagnitude:
    def test_constant_image_zero_interior(self):
        # borders see the zero padding; the zero-sum kernel cancels inside
        out = val(sobel_magnitude(np.full((1, 5, 5), 3.0)))
        assert np.all(out[0, 1:-1, 1:-1] <= np.sqrt(ops.EPS_MAGNITUDE) + 1e-15)

    def test_ramp_interior_is_eight(self):
        x = ramp(6, 6)[None]
        out = val(sobel_magnitude(x))
        np.testing.assert_allclose(out[0, 1:-1, 1:-1], 8.0, rtol=1e-9)

    def test_identical_channels_match_single(self):
        x = np.random.default_rng(0).random((1, 6, 6))
        two = np.concatenate([x, x])
        np.testing.assert_allclose(
            val(sobel_magnitude(two)), val(sobel_magnitude(x)), atol=1e-15
        )


class TestLaplacianAbs:
    def test_affine_interior_zero(self):
        h = w = 7
        grid_h, grid_w = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        x = (2.0 * grid_w + 3.0 * grid_h + 1.0)[None]
        out = val(laplacian_abs(x))
        np.testing.assert_allclose(out[0, 1:-1, 1:-1], 0.0, atol=1e-12)

    def test_impulse_values(self):
        x = np.zeros((1, 5, 5))
        x[0, 2, 2] = 1.0
        out = val(laplacian_abs(x))
        assert out[0, 2, 2] == 4.0
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert out[0, 2 + dy, 2 + dx] == 1.0

    def test_constant_zero_interior(self):
        out = val(laplacian_abs(np.full((2, 4, 4), 2.5)))
        assert np.all(out[0, 1:-1, 1:-1] == 0.0)


class TestLocalVariance:
    def test_constant_interior_zero(self):
        out = val(local_variance(np.full((1, 5, 5), 4.0)))
        np.testing.assert_allclose(out[0, 1:-1, 1:-1], 0.0, atol=1e-12)

    def test_ramp_interior_two_thirds(self):
        x = ramp(6, 8)[None]
        out = val(local_variance(x))
        np.testing.assert_allclose(out[0, 1:-1, 1:-1], 2.0 / 3.0, rtol=1e-12)

    def test_checkerboard_20_over_81(self):
        h = w = 6
        board = ((np.add.outer(np.arange(h), np.arange(w)) % 2) == 0).astype(np.float64)
        out = val(local_variance(board[None]))
        np.testing.assert_allclose(out[0, 1:-1, 1:-1], 20.0 / 81.0, rtol=1e-12)

    def test_matches_window_oracle(self):
        x = np.random.default_rng(1).random((6, 7))
        out = val(local_variance(x[None]))
        np.testing.assert_allclose(out[0], window_variance3(x), atol=1e-12)


class TestDescriptor:
    def test_constant_input_zero_interior(self):
        out = val(descriptor.frequency_descriptor(np.full((3, 6, 6), 1.7)))
        assert np.all(out[:, 1:-1, 1:-1] <= np.sqrt(ops.EPS_MAGNITUDE) + 1e-12)

    def test_shape(self):
        x = np.random.default_rng(2).random((8, 16, 16))
        assert val(descriptor.frequency_descriptor(x)).shape == (3, 16, 16)

    def test_ramp_channel_values(self):
        x = ramp(8, 8)[None]
        out = val(descriptor.frequency_descriptor(x))
        np.testing.assert_allclose(out[0, 1:-1, 1:-1], 8.0, rtol=1e-9)
        np.testing.assert_allclose(out[1, 1:-1, 1:-1], 0.0, atol=1e-12)
        np.testing.assert_allclose(out[2, 1:-1, 1:-1], 2.0 / 3.0, rtol=1e-12)

    def test_channel_order_and_subsets(self):
        x = np.random.default_rng(3).random((2, 6, 6))
        full = val(descriptor.frequency_descriptor(x))
        f31 = val(descriptor.frequency_descriptor(x, cues=("f3", "f1")))
        # fixed order: f1 before f3 regardless of request order
        np.testing.assert_array_equal(f31[0], full[0])
        np.testing.assert_array_equal(f31[1], full[2])

    def test_empty_or_unknown_cues(self):
        x = np.zeros((1, 5, 5))
        with pytest.raises(ConfigurationError):
            descriptor.frequency_descriptor(x, cues=())
        with pytest.raises(ConfigurationError):
            descriptor.frequency_descriptor(x, cues=("f9",))


class TestProperties:
    def test_nonnegative(self):
        x = np.random.default_rng(4).standard_normal((4, 10, 10))
        out = val(descriptor.frequency_descriptor(x))
        assert np.all(out >= 0.0)

    def test_dc_rejection_interior(self):
        x = np.random.default_rng(5).random((2, 8, 8))
        a = val(descriptor.frequency_descriptor(x))
        b = val(descriptor.frequency_descriptor(x + 5.0))
        np.testing.assert_allclose(a[:, 2:-2, 2:-2], b[:, 2:-2, 2:-2], atol=1e-9)

    def test_scaling_laws_interior(self):
        x = np.random.default_rng(6).random((1, 8, 8)) + 0.5
        s = 3.0
        a = val(descriptor.frequency_descriptor(x))
        b = val(descriptor.frequency_descriptor(s * x))
        inner = (slice(None), slice(1, -1), slice(1, -1))
        np.testing.assert_allclose(b[0][inner[1:]], s * a[0][inner[1:]], rtol=1e-6)
        np.testing.assert_allclose(b[1][inner[1:]], s * a[1][inner[1:]], rtol=1e-9)
        np.testing.assert_allclose(b[2][inner[1:]], s * s * a[2][inner[1:]], rtol=1e-9)

    def test_gradients_reach_input(self):
        x = np.random.default_rng(7).standard_normal((2, 6, 6))
        err = ad.grad_check(lambda v: descriptor.frequency_descriptor(v), [x])
        assert err < 1e-6
