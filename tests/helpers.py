"""Test-only model configurations, parameter-count formulas, GLU parameters, a
store's parameter by name, a traced memory peak and a fresh interpreter."""

import os
import pathlib
import subprocess
import sys
import tracemalloc

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


# the README's micro training config
README_MICRO = ModelConfig(t_in=2, t_out=2, height=16, width=16, latent_c=6, n_s=2, n_t=2,
                           kernels=(9, 15, 31))


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


def param(store, name: str):
    """The parameter ``Var`` of ``store`` named ``name``."""
    (var,) = [v for v in store.variables() if v.name == name]
    return var


def traced_peak(fn):
    """``fn()``'s result and the peak bytes that ``tracemalloc`` traced during the call:
    what the call allocated above what was live before it."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fresh_interpreter(code, *args):
    """stdout of ``python -c code args`` on this checkout's perigate."""
    import perigate

    src = str(pathlib.Path(perigate.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout
