"""Metric definitions: closed-form cases, identities, symmetry."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import naive
from perigate import metrics
from perigate.errors import InputError


def batch(n=2, t=3, c=1, h=12, w=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, t, c, h, w)), rng.random((n, t, c, h, w))


class TestMse:
    def test_identical_zero(self):
        pred, _ = batch()
        assert metrics.mse(pred, pred) == 0.0
        assert metrics.mse(pred, pred, normalized=True) == 0.0

    def test_constant_difference(self):
        pred = np.zeros((2, 2, 1, 4, 4))
        gt = np.full((2, 2, 1, 4, 4), 0.5)
        s = 1 * 4 * 4
        assert metrics.mse(pred, gt, normalized=True) == pytest.approx(0.25)
        assert metrics.mse(pred, gt) == pytest.approx(0.25 * s)

    def test_s_ratio_identity(self):
        pred, gt = batch(seed=1)
        s = pred.shape[2] * pred.shape[3] * pred.shape[4]
        ratio = metrics.mse(pred, gt) / metrics.mse(pred, gt, normalized=True)
        assert ratio == pytest.approx(s, rel=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            metrics.mse(np.zeros((1, 1, 1, 4, 4)), np.zeros((1, 1, 1, 4, 5)))

    def test_rank_check(self):
        with pytest.raises(InputError):
            metrics.mse(np.zeros((4, 4)), np.zeros((4, 4)))


class TestMae:
    def test_identical_zero(self):
        pred, _ = batch()
        assert metrics.mae(pred, pred) == 0.0

    def test_constant_difference(self):
        pred = np.zeros((1, 2, 2, 3, 3))
        gt = np.full_like(pred, 0.5)
        assert metrics.mae(pred, gt) == pytest.approx(0.5 * 2 * 3 * 3)

    def test_cauchy_schwarz_bound(self):
        for seed in range(5):
            pred, gt = batch(seed=seed)
            s = pred.shape[2] * pred.shape[3] * pred.shape[4]
            assert metrics.mae(pred, gt) >= 0
            assert metrics.mae(pred, gt) <= math.sqrt(s * metrics.mse(pred, gt)) + 1e-12


class TestPsnr:
    def test_identical_capped(self):
        pred, _ = batch()
        assert metrics.psnr(pred, pred) == metrics.PSNR_CAP_DB

    def test_black_vs_white_zero_db(self):
        pred = np.zeros((1, 1, 1, 4, 4))
        gt = np.ones((1, 1, 1, 4, 4))
        assert metrics.psnr(pred, gt) == 0.0

    def test_one_level_difference(self):
        gt = np.full((1, 1, 1, 8, 8), 100.0 / 255.0)
        pred = np.full((1, 1, 1, 8, 8), 101.0 / 255.0)
        want = 20.0 * math.log10(255.0)
        assert metrics.psnr(pred, gt) == pytest.approx(want, abs=1e-9)

    def test_quantization_rounding(self):
        assert metrics.quantize_u8(np.array([0.0, 1.0]))[1] == 255.0
        # round half away from zero: 0.5/255 quantizes up
        assert metrics.quantize_u8(np.array([0.5 / 255.0]))[0] == 1.0
        assert metrics.quantize_u8(np.array([1.4 / 255.0]))[0] == 1.0

    def test_mixed_frames_average(self):
        # one identical frame (capped) and one 0-vs-1 frame (0 dB)
        pred = np.stack([np.zeros((1, 4, 4)), np.zeros((1, 4, 4))])[None]
        gt = np.stack([np.zeros((1, 4, 4)), np.ones((1, 4, 4))])[None]
        assert metrics.psnr(pred, gt) == pytest.approx(metrics.PSNR_CAP_DB / 2)


class TestSsim:
    def test_identical_exactly_one(self):
        pred, _ = batch(h=16, w=16)
        assert metrics.ssim(pred, pred.copy()) == 1.0

    def test_constant_luminance_closed_form(self):
        gt = np.full((1, 1, 1, 12, 12), 0.5)
        pred = np.full((1, 1, 1, 12, 12), 0.7)
        c1, c2 = metrics.SSIM_C1, metrics.SSIM_C2
        want = (2 * 0.5 * 0.7 + c1) / (0.25 + 0.49 + c1)  # variance terms vanish
        assert metrics.ssim(pred, gt) == pytest.approx(want, rel=1e-12)

    def test_range_on_random_pairs(self):
        for seed in range(25):
            pred, gt = batch(n=1, t=1, h=13, w=13, seed=seed)
            v = metrics.ssim(pred, gt)
            assert -1.0 <= v <= 1.0

    def test_window_too_large(self):
        with pytest.raises(InputError):
            metrics.ssim(np.zeros((1, 1, 1, 8, 8)), np.zeros((1, 1, 1, 8, 8)))

    def test_multichannel_channel_mean(self):
        pred, gt = batch(c=3, h=12, w=12, seed=3)
        single = [
            metrics.ssim(pred[:, :, [c]], gt[:, :, [c]]) for c in range(3)
        ]
        assert metrics.ssim(pred, gt) == pytest.approx(np.mean(single), rel=1e-12)


@st.composite
def ssim_pairs(draw):
    """[N,T,C,H,W] pairs with sides from the window size up, unrelated or close."""
    shape = tuple(draw(st.integers(1, hi)) for hi in (4, 3, 3)) + tuple(
        draw(st.integers(metrics.SSIM_WINDOW, 30)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pred = rng.random(shape)
    gt = rng.random(shape) if draw(st.booleans()) else pred + 0.05 * rng.standard_normal(shape)
    return pred, gt


class TestSsimOneFrameAtATime:
    """Frames are windowed in byte-bounded blocks; the per-frame loop is the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(pair=ssim_pairs())
    @example(pair=batch(n=16, t=2, c=1, h=16, w=16, seed=7))
    @example(pair=batch(n=3, t=2, c=2, h=20, w=24, seed=8))
    @example(pair=batch(n=1, t=5, c=1, h=128, w=128, seed=9))  # blocks of 2, last of 1
    @example(pair=batch(n=2, t=2, c=2, h=128, w=128, seed=10))  # one frame per block
    def test_bitwise_equal_to_loop_oracle(self, pair):
        assert metrics.ssim(*pair) == naive.ssim(*pair)


class TestSymmetryAndPermutation:
    def test_all_metrics_symmetric(self):
        pred, gt = batch(h=12, w=12, seed=4)
        assert metrics.mse(pred, gt) == metrics.mse(gt, pred)
        assert metrics.mse(pred, gt, normalized=True) == metrics.mse(gt, pred, normalized=True)
        assert metrics.mae(pred, gt) == metrics.mae(gt, pred)
        assert metrics.psnr(pred, gt) == metrics.psnr(gt, pred)
        assert metrics.ssim(pred, gt) == pytest.approx(metrics.ssim(gt, pred), rel=1e-14)

    def test_batch_permutation_invariance(self):
        pred, gt = batch(n=4, seed=5)
        perm = np.array([2, 0, 3, 1])
        assert metrics.ssim(pred[perm], gt[perm]) == pytest.approx(
            metrics.ssim(pred, gt), rel=1e-14
        )
        assert metrics.mse(pred[perm], gt[perm]) == pytest.approx(
            metrics.mse(pred, gt), rel=1e-14
        )

    def test_nonfinite_rejected(self):
        pred, gt = batch()
        pred[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(InputError):
            metrics.mae(pred, gt)
