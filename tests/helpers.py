"""Test-only model configurations, parameter-count formulas and GLU parameters."""

import numpy as np

from perigate.model import ModelConfig


def micro_config(**overrides) -> ModelConfig:
    """Small, fast configuration used by gradient checks and examples."""
    base = dict(
        t_in=2,
        t_out=2,
        c_in=1,
        c_out=1,
        height=8,
        width=8,
        latent_c=2,
        n_s=2,
        n_t=1,
        kernels=(3, 5),
        expansion=2,
        msinit_scales=(3, 5),
        drop_path=0.0,
    )
    base.update(overrides)
    return ModelConfig(**base)


def sep_scale_params(k: int, channels: int) -> int:
    """Kernel parameters of one separable depthwise scale: 2k per channel."""
    return 2 * k * channels


def dense_scale_params(k: int, channels: int) -> int:
    """Kernel parameters of the dense depthwise equivalent: k^2 per channel."""
    return k * k * channels


def glu_params(rng, channels: int, hidden: int, dtype=np.float64) -> list:
    """Random parameters of the GLU op in its argument order: expand weights [2E, C]
    and bias [2E], depthwise [E, 3, 3], GRN gamma and beta [E], projection [C, E] and
    bias [C]."""
    shapes = [(2 * hidden, channels), (2 * hidden,), (hidden, 3, 3), (hidden,), (hidden,),
              (channels, hidden), (channels,)]
    return [rng.standard_normal(s).astype(dtype) for s in shapes]
