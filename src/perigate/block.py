"""Peripheral gating block.

One block computes, from its input stack:

1. the frequency descriptor and per-pixel gate weights over the kernel scales
   (softmax fusion) or fixed uniform weights (mean fusion);
2. per scale, a large separable peripheral response minus an activated,
   channel-wise (or a fixed) multiple of a shared small center response, the
   suppression one traced op;
3. the convex per-pixel fusion of those responses, one traced op;
4. a gated channel-mixing stage, one traced op run in blocks of hidden
   channels (expand, sigmoid gate x depthwise, global response normalization
   folded into the projection);
5. a residual add of the layer-scaled branch, optionally dropped per sample.

The static choices (scales, cues, fusion, suppression mode, center size,
expansion, drop rate) are read from a validated
:class:`perigate.model.ModelConfig` passed as ``cfg``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import descriptor
from .autodiff import ParamStore, Var
from .errors import ConfigurationError
from .multiscale import fan_in_uniform, near_identity


@dataclass
class BlockParams:
    scales: tuple[int, ...]
    sep_h: dict[int, Var]  # per scale: [C, k]
    sep_v: dict[int, Var]
    center: Var  # [C, kc, kc], shared across scales
    beta_raw: dict[int, Var] | None  # per scale: [C]; None when beta is fixed
    gate_w: Var | None  # [K, num_cues]; None for mean fusion
    gate_b: Var | None  # [K]
    glu_expand_w: Var  # [2E, C]: rows [0, E) the gate, [E, 2E) the value
    glu_expand_b: Var  # [2E]
    glu_dw: Var  # [E, 3, 3], depthwise on the value half
    glu_project_w: Var  # [C, E]
    glu_project_b: Var  # [C]
    grn_gamma: Var  # [E]: global response normalization, folded into the projection
    grn_beta: Var  # [E]
    layerscale: Var  # [C]


def init_params(store: ParamStore, prefix: str, channels: int, cfg, rng, dtype) -> BlockParams:
    k_count = len(cfg.kernels)
    hidden = cfg.expansion * channels
    sep_h, sep_v, beta = {}, {}, {}
    for k in cfg.kernels:
        h, v = (near_identity((channels, k), (k // 2,), rng) for _ in range(2))
        sep_h[k] = store.add(f"{prefix}/scale{k}/sep_h", h.astype(dtype))
        sep_v[k] = store.add(f"{prefix}/scale{k}/sep_v", v.astype(dtype))
        if cfg.beta_mode == "learnable":
            beta[k] = store.add(f"{prefix}/scale{k}/beta_raw", np.zeros(channels, dtype=dtype))
    kc = cfg.center_size
    center = near_identity((channels, kc, kc), (kc // 2, kc // 2), rng)
    gate_w = gate_b = None
    if cfg.fusion == "softmax":
        gate_w = store.add(f"{prefix}/gate/w", np.zeros((k_count, len(cfg.cues)), dtype=dtype))
        gate_b = store.add(f"{prefix}/gate/b", np.zeros(k_count, dtype=dtype))
    return BlockParams(
        scales=tuple(cfg.kernels),
        sep_h=sep_h,
        sep_v=sep_v,
        center=store.add(f"{prefix}/center", center.astype(dtype)),
        beta_raw=beta if cfg.beta_mode == "learnable" else None,
        gate_w=gate_w,
        gate_b=gate_b,
        glu_expand_w=store.add(f"{prefix}/glu/expand_w",
                               fan_in_uniform((2 * hidden, channels), channels, rng, dtype)),
        glu_expand_b=store.add(f"{prefix}/glu/expand_b", np.zeros(2 * hidden, dtype=dtype)),
        glu_dw=store.add(f"{prefix}/glu/dw", fan_in_uniform((hidden, 3, 3), 9, rng, dtype)),
        glu_project_w=store.add(f"{prefix}/glu/project_w",
                                fan_in_uniform((channels, hidden), hidden, rng, dtype)),
        glu_project_b=store.add(f"{prefix}/glu/project_b", np.zeros(channels, dtype=dtype)),
        grn_gamma=store.add(f"{prefix}/grn/gamma", np.zeros(hidden, dtype=dtype)),
        grn_beta=store.add(f"{prefix}/grn/beta", np.zeros(hidden, dtype=dtype)),
        layerscale=store.add(f"{prefix}/layerscale", np.full(channels, 1e-2, dtype=dtype)),
    )


def gate_weights(freq, gate_w, gate_b):
    """Per-pixel softmax gate over scales from the frequency descriptor."""
    return ad.softmax_channels(ad.pwconv(freq, gate_w, gate_b))


def uniform_gate(x, k_count: int):
    """Mean fusion: softmax over zero logits shaped like the block input's
    pixels, the same arithmetic as a zero-initialized gate, so both paths
    agree bitwise at initialization."""
    xv = x.value if isinstance(x, Var) else np.asarray(x)
    zeros = np.zeros(xv.shape[:-3] + (k_count,) + xv.shape[-2:], dtype=xv.dtype)
    return ad.softmax_channels(zeros)


def peripheral_response(x, params: BlockParams, k: int):
    if k not in params.sep_h:
        raise ConfigurationError(f"scale {k} not in configured set {params.scales}")
    return ad.sep_conv(x, params.sep_h[k], params.sep_v[k])


def suppression_coefficient(params: BlockParams, cfg, k: int):
    """Multiplier for the center response: the fixed scalar, or the activated
    channel-wise coefficients."""
    if cfg.beta_mode == "fixed":
        return cfg.beta_fixed
    raw = params.beta_raw[k]
    return ad.tanh(raw) if cfg.gate_act == "tanh" else ad.sigmoid(raw)


def center_suppress(p_k, center_response, coefficient):
    """Y_k = P_k - coefficient * center_response (coefficient broadcast per channel, or
    the fixed scalar): one traced op, :func:`perigate.autodiff.suppress`."""
    return ad.suppress(p_k, center_response, coefficient)


def fuse(alpha, responses):
    """Convex per-pixel combination: sum_k alpha_k * Y_k, alpha broadcast over channels:
    one traced op, :func:`perigate.autodiff.gated_sum`."""
    return ad.gated_sum(alpha, responses)


def channel_mix_glu(s, params: BlockParams):
    """Expand to 2E, gate one half with the depthwise-filtered other, normalize,
    project back: one traced op, :func:`perigate.autodiff.glu`."""
    return ad.glu(s, params.glu_expand_w, params.glu_expand_b, params.glu_dw,
                  params.grn_gamma, params.grn_beta, params.glu_project_w, params.glu_project_b)


def forward(
    x,
    params: BlockParams,
    cfg,
    mode: str = "eval",
    drop_u=None,
    internals: list | None = None,
):
    """Full block: gated multi-scale suppression, channel mixing, residual.

    ``x`` is one [C,H,W] sample or a batch [..., C,H,W]; in train mode
    ``drop_u`` holds one stochastic-depth uniform per sample (see
    :func:`perigate.autodiff.drop_path`); a list ``internals`` receives α, a [..., K, H, W] Var.
    """
    if cfg.fusion == "softmax":
        freq = descriptor.frequency_descriptor(x, cfg.cues)
        alpha = gate_weights(freq, params.gate_w, params.gate_b)
    else:
        alpha = uniform_gate(x, len(params.scales))
    center_response = ad.dwconv_2d(x, params.center)
    responses = []
    for k in params.scales:
        p_k = peripheral_response(x, params, k)
        coefficient = suppression_coefficient(params, cfg, k)
        responses.append(center_suppress(p_k, center_response, coefficient))
    if internals is not None:
        internals.append(alpha)
    del center_response, p_k  # each map is released after its last reader
    fused = fuse(alpha, responses)
    del responses
    mixed = channel_mix_glu(fused, params)
    branch = ad.mul(mixed, params.layerscale)
    branch = ad.drop_path(branch, cfg.drop_path, mode, drop_u)
    return ad.add(x, branch)
