"""The per-pixel frequency descriptor: three fixed-filter spectral cues of a
feature stack, each the channel mean of a per-channel response: f1 the
gradient magnitude (Sobel), f2 the absolute curvature (4-neighbour Laplacian),
f3 the local variance (3x3 moments, clamped at zero). The filters are
constants, never parameters; gradients flow through them to the input only.
One traced op, :func:`perigate.autodiff.freq_descriptor`, computes the cues in
the input's dtype, so a float32 stack stays float32.
"""

from . import autodiff as ad
from .errors import ConfigurationError
from .ops import CUE_NAMES


def check_cues(cues):
    """Refuse an empty, unknown or repeated cue selection."""
    if not cues:
        raise ConfigurationError("need at least one frequency cue")
    unknown = [c for c in cues if c not in CUE_NAMES]
    if unknown:
        raise ConfigurationError(f"unknown cues {unknown}; choose from {CUE_NAMES}")
    if len(set(cues)) != len(cues):
        raise ConfigurationError(f"duplicate frequency cues {tuple(cues)}")


def frequency_descriptor(x, cues=CUE_NAMES):
    """Stack the selected cues in fixed (f1, f2, f3) order: -> [..., len(cues),H,W]."""
    check_cues(cues)
    return ad.freq_descriptor(x, tuple(cues))
