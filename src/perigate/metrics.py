"""Sequence-batch quality metrics.

All metrics take prediction/target arrays of shape [N, T, C, H, W] with
values nominally in [0, 1] and average over the N*T frames. Two MSE
normalizations are provided: the spatially normalized variant (training
loss) and the plain variant used for reporting, which equals S = C*H*W
times the normalized one.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError
from .ops import index_blocks

PSNR_CAP_DB = 100.0  # frames with zero 8-bit error contribute this cap
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 1.0) ** 2
SSIM_C2 = (0.03 * 1.0) ** 2


def _check_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.ndim != 5 or gt.ndim != 5:
        raise InputError(f"expected [N,T,C,H,W] batches, got {pred.shape} and {gt.shape}")
    if pred.shape != gt.shape:
        raise InputError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(gt))):
        raise InputError("non-finite values in metric inputs")
    return pred, gt


def mse(pred, gt, normalized: bool = False) -> float:
    """Mean squared error; ``normalized`` divides per frame by S = C*H*W."""
    pred, gt = _check_pair(pred, gt)
    sq = (pred - gt) ** 2
    if normalized:
        return float(sq.mean(axis=(2, 3, 4)).mean())
    return float(sq.mean(axis=(0, 1)).sum())


def mae(pred, gt) -> float:
    """Mean absolute error, plain (non-normalized) convention."""
    pred, gt = _check_pair(pred, gt)
    return float(np.abs(pred - gt).mean(axis=(0, 1)).sum())


def quantize_u8(a: np.ndarray) -> np.ndarray:
    """Round-half-away-from-zero 8-bit conversion of [0,1] values."""
    return np.clip(np.floor(255.0 * np.asarray(a, dtype=np.float64) + 0.5), 0.0, 255.0)


def psnr(pred, gt) -> float:
    """Mean frame PSNR after 8-bit conversion; zero-error frames score the cap."""
    pred, gt = _check_pair(pred, gt)
    qp, qg = quantize_u8(pred), quantize_u8(gt)
    n, t = pred.shape[:2]
    per_frame = ((qp - qg) ** 2).reshape(n * t, -1).mean(axis=1)
    # 20 log10(255) - 10 log10(mse), written as a ratio so mse = 255^2 is 0 dB exactly
    safe = np.where(per_frame == 0.0, 1.0, per_frame)
    out = np.where(per_frame == 0.0, PSNR_CAP_DB, 10.0 * np.log10(255.0**2 / safe))
    return float(out.mean())


def _gaussian_window() -> np.ndarray:
    offsets = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    w = np.exp(-(offsets**2) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    return w / w.sum()


def _windowed(img: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Separable valid-mode weighted local mean over the last two axes."""
    k = w.size
    rows = sliding_window_view(img, k, axis=-2) @ w
    return sliding_window_view(rows, k, axis=-1) @ w


def _ssim_frames(x: np.ndarray, y: np.ndarray, win: np.ndarray) -> np.ndarray:
    """Mean SSIM over the channels of each [..., C, H, W] frame."""
    mu_x = _windowed(x, win)
    mu_y = _windowed(y, win)
    sig_x = _windowed(x * x, win) - mu_x * mu_x
    sig_y = _windowed(y * y, win) - mu_y * mu_y
    sig_xy = _windowed(x * y, win) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * sig_xy + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (sig_x + sig_y + SSIM_C2)
    return (num / den).mean(axis=(-2, -1)).mean(axis=-1)


def ssim(pred, gt) -> float:
    """Gaussian-window structural similarity on valid patches.

    Window 11x11, sigma 1.5, constants for unit dynamic range. Channels are
    scored independently and averaged, then frames are averaged over N*T.
    Frames are windowed in :func:`perigate.ops.index_blocks` blocks of frames per
    pass, so a pass's temporaries stay in cache; each frame is scored alone.
    """
    x, y = _check_pair(pred, gt)
    h, w_ = x.shape[-2:]
    if h < SSIM_WINDOW or w_ < SSIM_WINDOW:
        raise InputError(
            f"frames {h}x{w_} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    win = _gaussian_window()
    x, y = (a.reshape((-1,) + a.shape[2:]) for a in (x, y))
    scores = np.empty(len(x))
    for sl in index_blocks(len(x), x[0].nbytes):
        scores[sl] = _ssim_frames(x[sl], y[sl], win)
    return float(scores.mean())
