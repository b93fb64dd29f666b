"""Fixed-filter spectral cues and the per-pixel frequency descriptor.

Three single-channel maps are extracted from a feature stack with constant
depthwise filters: gradient magnitude (Sobel), absolute curvature
(4-neighbour Laplacian), and local variance (3x3 moments). The filters are
constants, never parameters; gradients flow through them to the input only.
They are cast to the input's dtype, so a float32 stack stays float32.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()
LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])

# guards the sqrt gradient when the gradient magnitude is exactly zero
EPS_MAGNITUDE = 1e-12

CUE_NAMES = ("f1", "f2", "f3")


def _dtype(x) -> np.dtype:
    return (x.value if isinstance(x, ad.Var) else np.asarray(x)).dtype


def sobel_magnitude(x):
    """Channel-mean Sobel gradient magnitude: [..., C,H,W] -> [..., 1,H,W]."""
    dtype = _dtype(x)
    gx = ad.dwconv_2d(x, SOBEL_X.astype(dtype))
    gy = ad.dwconv_2d(x, SOBEL_Y.astype(dtype))
    eps = np.asarray(EPS_MAGNITUDE, dtype=dtype)
    mag = ad.sqrt(ad.add(ad.add(ad.mul(gx, gx), ad.mul(gy, gy)), eps))
    return ad.mean_channels(mag)


def laplacian_abs(x):
    """Channel-mean absolute Laplacian response: [..., C,H,W] -> [..., 1,H,W]."""
    return ad.mean_channels(ad.absolute(ad.dwconv_2d(x, LAPLACIAN.astype(_dtype(x)))))


def local_variance(x):
    """Channel-mean local variance from 3x3 moments, clamped at zero."""
    mean = ad.avg_pool3(x)
    mean_sq = ad.avg_pool3(ad.mul(x, x))
    var = ad.relu(ad.sub(mean_sq, ad.mul(mean, mean)))
    return ad.mean_channels(var)


_CUES = {"f1": sobel_magnitude, "f2": laplacian_abs, "f3": local_variance}


def frequency_descriptor(x, cues=CUE_NAMES):
    """Stack the selected cues in fixed (f1, f2, f3) order: -> [..., len(cues),H,W]."""
    if not cues:
        raise ConfigurationError("descriptor needs at least one cue")
    unknown = [c for c in cues if c not in _CUES]
    if unknown:
        raise ConfigurationError(f"unknown cues {unknown}; choose from {CUE_NAMES}")
    ordered = [c for c in CUE_NAMES if c in cues]
    return ad.concat_channels([_CUES[c](x) for c in ordered])
