"""Multi-scale initialization stage.

Each branch m applies an identity-preserving mix of a separable k_m response,
a 3x3 depthwise response and the input itself, then projects to C'/M channels;
branch outputs are concatenated back to C' channels. Branches only ever see
their own parameters, so the output channel blocks are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Var
from .errors import ConfigurationError

NEAR_IDENTITY_NOISE = 0.02  # standard deviation of the noise on a near-identity kernel


@dataclass
class BranchParams:
    sep_h: Var  # [C, k]
    sep_v: Var  # [C, k]
    dw: Var  # [C, 3, 3]
    proj_w: Var  # [C/M, C]
    proj_b: Var  # [C/M]


def validate_scales(channels: int, scales):
    sizes = tuple(scales)
    if len(sizes) == 0:
        raise ConfigurationError("need at least one branch scale")
    if list(sizes) != sorted(set(sizes)):
        raise ConfigurationError(f"branch sizes must be strictly increasing, got {sizes}")
    if any(k % 2 == 0 or k < 1 for k in sizes):
        raise ConfigurationError(f"branch sizes must be odd and positive, got {sizes}")
    if channels % len(sizes) != 0:
        raise ConfigurationError(
            f"{channels} packed channels not divisible by {len(sizes)} branches"
        )
    return sizes


def near_identity(shape, center_index, rng):
    """Zeros with a one at ``center_index`` of every channel, plus Gaussian noise."""
    arr = np.zeros(shape)
    arr[(slice(None),) + center_index] = 1.0
    return arr + NEAR_IDENTITY_NOISE * rng.standard_normal(shape)


def fan_in_uniform(shape, fan_in: int, rng, dtype):
    """Uniform draws on +-1/sqrt(fan_in), cast to ``dtype``."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_params(
    store: ParamStore, prefix: str, channels: int, scales, rng, dtype
) -> list[BranchParams]:
    """Register each branch's parameters; separable/depthwise kernels start near identity."""
    sizes = validate_scales(channels, scales)
    out_c = channels // len(sizes)
    branches = []
    for i, k in enumerate(sizes):
        name = f"{prefix}/branch{i}"
        branches.append(
            BranchParams(
                sep_h=store.add(
                    f"{name}/sep_h", near_identity((channels, k), (k // 2,), rng).astype(dtype)
                ),
                sep_v=store.add(
                    f"{name}/sep_v", near_identity((channels, k), (k // 2,), rng).astype(dtype)
                ),
                dw=store.add(
                    f"{name}/dw", near_identity((channels, 3, 3), (1, 1), rng).astype(dtype)
                ),
                proj_w=store.add(
                    f"{name}/proj_w", fan_in_uniform((out_c, channels), channels, rng, dtype)
                ),
                proj_b=store.add(f"{name}/proj_b", np.zeros(out_c, dtype=dtype)),
            )
        )
    return branches


def branch_forward(z, branch: BranchParams):
    """T_m(z) = sep_k(z) + dw3(z) + z."""
    sep = ad.sep_conv(z, branch.sep_h, branch.sep_v)
    mid = ad.dwconv_2d(z, branch.dw)
    return ad.add(ad.add(sep, mid), z)


def forward(z, branches: list[BranchParams]):
    """Project every branch to C'/M channels and concatenate in branch order."""
    outs = [ad.pwconv(branch_forward(z, b), b.proj_w, b.proj_b) for b in branches]
    return ad.concat_channels(outs)
