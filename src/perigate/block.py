"""Peripheral gating block.

One block computes, from its input stack:

1. the frequency descriptor and per-pixel gate weights over the kernel scales
   (softmax fusion) or fixed uniform weights (mean fusion);
2. per scale, a large separable peripheral response minus an activated,
   channel-wise multiple of a shared small center response;
3. the convex per-pixel fusion of those responses;
4. a gated channel-mixing stage (expand, sigmoid gate x depthwise, global
   response normalization, project);
5. a residual add of the layer-scaled branch, optionally dropped per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import descriptor
from .autodiff import ParamStore, Var
from .errors import ConfigurationError


@dataclass
class BlockParams:
    scales: tuple[int, ...]
    sep_h: dict[int, Var]  # per scale: [C, k]
    sep_v: dict[int, Var]
    center: Var  # [C, kc, kc], shared across scales
    beta_raw: dict[int, Var] | None  # per scale: [C]; None when beta is fixed
    gate_w: Var | None  # [K, num_cues]; None for mean fusion
    gate_b: Var | None  # [K]
    glu_expand_w: Var  # [2E, C]
    glu_expand_b: Var  # [2E]
    glu_dw: Var  # [E, 3, 3]
    glu_project_w: Var  # [C, E]
    glu_project_b: Var  # [C]
    grn_gamma: Var  # [E]
    grn_beta: Var  # [E]
    layerscale: Var  # [C]


@dataclass
class BlockSettings:
    """Static choices threaded through a block forward."""

    scales: tuple[int, ...] = (9, 15, 31)
    cues: tuple[str, ...] = descriptor.CUE_NAMES
    fusion: str = "softmax"  # or "mean"
    beta_mode: str = "learnable"  # or "fixed"
    beta_fixed: float = 0.0
    beta_act: str = "tanh"  # or "sigmoid"
    center_size: int = 3
    expansion: int = 4
    drop_rate: float = 0.0

    def validate(self, channels: int):
        if len(self.scales) < 1:
            raise ConfigurationError("need at least one kernel scale")
        if len(set(self.scales)) != len(self.scales):
            raise ConfigurationError(f"duplicate kernel scales {self.scales}")
        if any(k % 2 == 0 or k < 1 for k in self.scales):
            raise ConfigurationError(f"kernel scales must be odd, got {self.scales}")
        if self.fusion not in ("softmax", "mean"):
            raise ConfigurationError(f"unknown fusion '{self.fusion}'")
        if self.beta_mode not in ("learnable", "fixed"):
            raise ConfigurationError(f"unknown beta mode '{self.beta_mode}'")
        if self.beta_act not in ("tanh", "sigmoid"):
            raise ConfigurationError(f"unknown beta activation '{self.beta_act}'")
        if self.center_size not in (3, 5):
            raise ConfigurationError(f"center size must be 3 or 5, got {self.center_size}")
        if self.expansion < 1:
            raise ConfigurationError(f"expansion must be >= 1, got {self.expansion}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ConfigurationError(f"drop rate must lie in [0,1), got {self.drop_rate}")
        if not self.cues:
            raise ConfigurationError("need at least one frequency cue")
        if channels * self.expansion < 1:
            raise ConfigurationError("empty hidden width")


@dataclass
class BlockInternals:
    """Optional introspection payload from a forward pass: the gate weights."""

    alpha: Var | None = None


def init_params(
    store: ParamStore, prefix: str, channels: int, settings: BlockSettings, rng, dtype
) -> BlockParams:
    settings.validate(channels)
    k_count = len(settings.scales)
    hidden = settings.expansion * channels
    sep_h, sep_v, beta = {}, {}, {}
    for k in settings.scales:
        h = np.zeros((channels, k))
        h[:, k // 2] = 1.0
        h += 0.02 * rng.standard_normal(h.shape)
        v = np.zeros((channels, k))
        v[:, k // 2] = 1.0
        v += 0.02 * rng.standard_normal(v.shape)
        sep_h[k] = store.add(f"{prefix}/scale{k}/sep_h", h.astype(dtype))
        sep_v[k] = store.add(f"{prefix}/scale{k}/sep_v", v.astype(dtype))
        if settings.beta_mode == "learnable":
            beta[k] = store.add(f"{prefix}/scale{k}/beta_raw", np.zeros(channels, dtype=dtype))
    kc = settings.center_size
    center = np.zeros((channels, kc, kc))
    center[:, kc // 2, kc // 2] = 1.0
    center += 0.02 * rng.standard_normal(center.shape)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    gate_w = gate_b = None
    if settings.fusion == "softmax":
        gate_w = store.add(
            f"{prefix}/gate/w", np.zeros((k_count, len(settings.cues)), dtype=dtype)
        )
        gate_b = store.add(f"{prefix}/gate/b", np.zeros(k_count, dtype=dtype))
    return BlockParams(
        scales=tuple(settings.scales),
        sep_h=sep_h,
        sep_v=sep_v,
        center=store.add(f"{prefix}/center", center.astype(dtype)),
        beta_raw=beta if settings.beta_mode == "learnable" else None,
        gate_w=gate_w,
        gate_b=gate_b,
        glu_expand_w=store.add(f"{prefix}/glu/expand_w", uniform((2 * hidden, channels), channels)),
        glu_expand_b=store.add(f"{prefix}/glu/expand_b", np.zeros(2 * hidden, dtype=dtype)),
        glu_dw=store.add(f"{prefix}/glu/dw", uniform((hidden, 3, 3), 9)),
        glu_project_w=store.add(f"{prefix}/glu/project_w", uniform((channels, hidden), hidden)),
        glu_project_b=store.add(f"{prefix}/glu/project_b", np.zeros(channels, dtype=dtype)),
        grn_gamma=store.add(f"{prefix}/grn/gamma", np.zeros(hidden, dtype=dtype)),
        grn_beta=store.add(f"{prefix}/grn/beta", np.zeros(hidden, dtype=dtype)),
        layerscale=store.add(f"{prefix}/layerscale", np.full(channels, 1e-2, dtype=dtype)),
    )


def gate_weights(freq, gate_w, gate_b):
    """Per-pixel softmax gate over scales from the frequency descriptor."""
    w = gate_w.value if isinstance(gate_w, Var) else np.asarray(gate_w)
    f_channels = (freq.value if isinstance(freq, Var) else np.asarray(freq)).shape[-3]
    if w.shape[1] != f_channels:
        raise ConfigurationError(
            f"gate expects a {w.shape[1]}-channel descriptor, got {f_channels}"
        )
    return ad.softmax_channels(ad.pwconv(freq, gate_w, gate_b))


def uniform_gate(freq, k_count: int):
    """Mean fusion: softmax over zero logits, the same arithmetic as a
    zero-initialized gate, so both paths agree bitwise at initialization."""
    fv = freq.value if isinstance(freq, Var) else np.asarray(freq)
    zeros = np.zeros(fv.shape[:-3] + (k_count,) + fv.shape[-2:], dtype=fv.dtype)
    return ad.softmax_channels(zeros)


def peripheral_response(x, params: BlockParams, k: int):
    if k not in params.sep_h:
        raise ConfigurationError(f"scale {k} not in configured set {params.scales}")
    return ad.sep_conv(x, params.sep_h[k], params.sep_v[k])


def suppression_coefficient(params: BlockParams, settings: BlockSettings, k: int):
    """Activated channel-wise multiplier for the center response."""
    if settings.beta_mode == "fixed":
        return None  # constant scalar handled by caller
    raw = params.beta_raw[k]
    return ad.tanh(raw) if settings.beta_act == "tanh" else ad.sigmoid(raw)


def center_suppress(p_k, center_response, coefficient):
    """Y_k = P_k - coefficient * center_response (coefficient broadcast per channel)."""
    return ad.sub(p_k, ad.mul(center_response, coefficient))


def fuse(alpha, responses):
    """Convex per-pixel combination: sum_k alpha_k * Y_k, alpha broadcast over channels."""
    alpha_v = alpha.value if isinstance(alpha, Var) else np.asarray(alpha)
    if alpha_v.shape[-3] != len(responses):
        raise ConfigurationError(
            f"{alpha_v.shape[-3]} gate maps for {len(responses)} responses"
        )
    slices = ad.split_channels(alpha, [1] * len(responses))
    total = None
    for a_k, y_k in zip(slices, responses):
        term = ad.mul(y_k, a_k)
        total = term if total is None else ad.add(total, term)
    return total


def channel_mix_glu(s, params: BlockParams):
    """Expand to 2E, gate one half with the other, normalize, project back."""
    hidden2 = params.glu_expand_w.value.shape[0]
    if hidden2 % 2 != 0:
        raise ConfigurationError(f"expanded width {hidden2} must be even")
    h = ad.pwconv(s, params.glu_expand_w, params.glu_expand_b)
    u, v = ad.split_channels(h, [hidden2 // 2, hidden2 // 2])
    gated = ad.mul(ad.sigmoid(u), ad.dwconv_2d(v, params.glu_dw))
    normed = ad.grn(gated, params.grn_gamma, params.grn_beta)
    return ad.pwconv(normed, params.glu_project_w, params.glu_project_b)


def forward(
    x,
    params: BlockParams,
    settings: BlockSettings,
    mode: str = "eval",
    drop_u=None,
    internals: BlockInternals | None = None,
):
    """Full block: gated multi-scale suppression, channel mixing, residual.

    ``x`` is one [C,H,W] sample or a batch [..., C,H,W]; in train mode
    ``drop_u`` holds one stochastic-depth uniform per sample (see
    :func:`perigate.autodiff.drop_path`).
    """
    freq = descriptor.frequency_descriptor(x, settings.cues)
    if settings.fusion == "softmax":
        alpha = gate_weights(freq, params.gate_w, params.gate_b)
    else:
        alpha = uniform_gate(freq, len(params.scales))
    center_response = ad.dwconv_2d(x, params.center)
    responses = []
    for k in params.scales:
        p_k = peripheral_response(x, params, k)
        if settings.beta_mode == "fixed":
            y_k = ad.sub(p_k, ad.scale(center_response, settings.beta_fixed))
        else:
            y_k = center_suppress(p_k, center_response, suppression_coefficient(params, settings, k))
        responses.append(y_k)
    if internals is not None:
        internals.alpha = alpha
    fused = fuse(alpha, responses)
    mixed = channel_mix_glu(fused, params)
    branch = ad.mul(mixed, params.layerscale)
    branch = ad.drop_path(branch, settings.drop_rate, mode, drop_u)
    return ad.add(x, branch)
