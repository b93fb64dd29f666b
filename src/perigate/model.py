"""Full prediction model: encoder, packed translator, decoder, rollout.

Pipeline per forward: every input frame runs through a shared convolutional
encoder; the per-frame features are packed along channels, refined by the
multi-scale init stage plus a stack of peripheral gating blocks, unpacked
back into frames and decoded at full resolution (with a skip from the first
encoder block). Longer output horizons roll out autoregressively, pass by
pass; each pass decodes only the frames still needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from . import autodiff as ad
from . import block as gate_block
from . import multiscale
from .autodiff import ParamStore, Var
from .descriptor import CUE_NAMES
from .errors import ConfigurationError, InputError
from .multiscale import fan_in_uniform
from .rng import INIT, stream


@dataclass
class ModelConfig:
    t_in: int = 2
    t_out: int = 2
    c_in: int = 1
    c_out: int = 1
    height: int = 16
    width: int = 16
    latent_c: int | None = None  # None: see ``latent``
    n_s: int = 2
    n_t: int = 2
    kernels: tuple[int, ...] = (9, 15, 31)
    expansion: int = 4
    center_size: int = 3
    fusion: str = "softmax"
    beta_mode: str = "learnable"
    beta_fixed: float = 0.0
    gate_act: str = "tanh"
    cues: tuple[str, ...] = CUE_NAMES
    drop_path: float = 0.0
    msinit_scales: tuple[int, ...] = (3, 5, 7)

    @property
    def latent(self) -> int:
        """``latent_c``, or by default 16 for <=32x32 inputs and 32 otherwise,
        rounded up to the next even width whose t_in frames split over the
        multi-scale init branches."""
        if self.latent_c is not None:
            return self.latent_c
        width = 16 if max(self.height, self.width) <= 32 else 32
        while self.t_in * width % max(len(self.msinit_scales), 1):
            width += 2
        return width

    @property
    def packed_channels(self) -> int:
        return self.t_in * self.latent

    @property
    def downsample(self) -> int:
        return 2 ** (self.n_s // 2)

    @property
    def latent_hw(self) -> tuple[int, int]:
        return self.height // self.downsample, self.width // self.downsample

    def validate(self) -> "ModelConfig":
        for name in ("t_in", "t_out", "c_in", "c_out", "height", "width"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.latent_c is not None and self.latent_c < 1:
            raise ConfigurationError(f"latent_c must be >= 1, got {self.latent_c}")
        if self.n_s < 1:
            raise ConfigurationError("encoder depth n_s must be >= 1")
        if self.n_t < 0:
            raise ConfigurationError("translator depth n_t must be >= 0")
        if self.n_s // 2 >= min(self.height, self.width).bit_length():  # downsample > H or W
            raise ConfigurationError(f"encoder depth {self.n_s} shrinks frames below a pixel")
        ds = self.downsample
        if self.height % ds or self.width % ds:
            raise ConfigurationError(
                f"resolution {self.height}x{self.width} not divisible by downsample factor {ds}"
            )
        if self.latent % 2 != 0:
            raise ConfigurationError(
                f"latent width {self.latent} must be even (2-group normalization)"
            )
        multiscale.validate_scales(self.packed_channels, self.msinit_scales)
        scales, cues = self.kernels, self.cues
        if not scales:
            raise ConfigurationError("need at least one kernel scale")
        if len(set(scales)) != len(scales):
            raise ConfigurationError(f"duplicate kernel scales {scales}")
        if any(k % 2 == 0 or k < 1 for k in scales):
            raise ConfigurationError(f"kernel scales must be odd, got {scales}")
        if self.fusion not in ("softmax", "mean"):
            raise ConfigurationError(f"unknown fusion '{self.fusion}'")
        if self.beta_mode not in ("learnable", "fixed"):
            raise ConfigurationError(f"unknown beta mode '{self.beta_mode}'")
        if self.gate_act not in ("tanh", "sigmoid"):
            raise ConfigurationError(f"unknown beta activation '{self.gate_act}'")
        if self.center_size not in (3, 5):
            raise ConfigurationError(f"center size must be 3 or 5, got {self.center_size}")
        if self.expansion < 1:
            raise ConfigurationError(f"expansion must be >= 1, got {self.expansion}")
        if not 0.0 <= self.drop_path < 1.0:
            raise ConfigurationError(f"drop rate must lie in [0,1), got {self.drop_path}")
        if not cues:
            raise ConfigurationError("need at least one frequency cue")
        if len(set(cues)) != len(cues):
            raise ConfigurationError(f"duplicate frequency cues {cues}")
        if not np.isfinite(self.beta_fixed):
            raise ConfigurationError(f"fixed beta must be finite, got {self.beta_fixed}")
        return self


@dataclass
class ConvStage:
    """One conv -> group norm -> LeakyReLU stage: an encoder conv may have
    stride 2, a decoder stage may upsample its input 2x before the conv."""

    w: Var
    gn_gamma: Var
    gn_beta: Var
    stride: int
    upsample: bool


@dataclass
class ModelParams:
    encoder: list[ConvStage]
    msinit: multiscale.MultiScaleInitParams
    blocks: list[gate_block.BlockParams]
    decoder: list[ConvStage]
    readout_w: Var
    readout_b: Var


def encoder_strides(n_s: int) -> list[int]:
    """Stride per encoder block: downsampling at blocks 1, 3, ... (0-based)."""
    return [2 if i % 2 == 1 else 1 for i in range(n_s)]


class Model:
    """Parameterized prediction model bound to one configuration."""

    def __init__(self, config: ModelConfig, store: ParamStore, params: ModelParams, dtype):
        self.config = config
        self.store = store
        self.params = params
        self.dtype = dtype

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, config: ModelConfig, seed: int = 0, dtype=np.float32) -> "Model":
        config.validate()
        rng = stream(seed, INIT)
        store = ParamStore()
        c = config.latent

        def stage(prefix, cin, stride=1, upsample=False):
            return ConvStage(
                w=store.add(f"{prefix}/w", fan_in_uniform((c, cin, 3, 3), 9 * cin, rng, dtype)),
                gn_gamma=store.add(f"{prefix}/gn_gamma", np.ones(c, dtype=dtype)),
                gn_beta=store.add(f"{prefix}/gn_beta", np.zeros(c, dtype=dtype)),
                stride=stride,
                upsample=upsample,
            )

        enc = [stage(f"encoder/block{i}", cin, stride=stride)
               for i, (cin, _, _, stride) in enumerate(_encoder_convs(config))]
        ms = multiscale.init_params(
            store, "translator/msinit", config.packed_channels, config.msinit_scales, rng, dtype
        )
        blocks = [
            gate_block.init_params(
                store, f"translator/block{i}", config.packed_channels, config, rng, dtype
            )
            for i in range(config.n_t)
        ]
        dec = [stage(f"decoder/block{j}", cin, upsample=upsample)
               for j, (cin, _, _, upsample) in enumerate(_decoder_convs(config))]
        readout_w = store.add("decoder/readout/w", fan_in_uniform((config.c_out, c), c, rng, dtype))
        readout_b = store.add("decoder/readout/b", np.zeros(config.c_out, dtype=dtype))
        params = ModelParams(enc, ms, blocks, dec, readout_w, readout_b)
        return cls(config, store, params, dtype)

    # -- stages --------------------------------------------------------------

    def encode_frame(self, frame):
        """Shared encoder: returns (latent features, first-block skip)."""
        x = self._as_var(frame, (self.config.c_in, self.config.height, self.config.width))
        skip = None
        for stage in self.params.encoder:
            x = _conv_norm_act(x, stage)
            if skip is None:
                skip = x
        return x, skip

    def translate(self, z, mode: str = "eval", drop_draw=None, internals=None):
        """Multi-scale init followed by the gating block stack.

        Stochastic-depth uniforms are drawn only when the drop rate is
        positive; at rate 0 every branch is kept and nothing is drawn. A list
        passed as ``internals`` receives one :class:`BlockInternals` per block.
        """
        draws = drop_draw is not None and self.config.drop_path > 0.0
        x = multiscale.forward(z, self.params.msinit)
        for i, blk in enumerate(self.params.blocks):
            u = drop_draw(i) if draws else None
            record = None
            if internals is not None:
                record = gate_block.BlockInternals()
                internals.append(record)
            x = gate_block.forward(x, blk, self.config, mode=mode, drop_u=u, internals=record)
        return x

    def decode_frame(self, feat, skip):
        """Mirror decoder; the last block consumes the encoder skip."""
        x = feat
        n = len(self.params.decoder)
        for j, stage in enumerate(self.params.decoder):
            if stage.upsample:
                x = ad.upsample2x(x)
            if j == n - 1:
                x = ad.concat_channels([x, skip])
            x = _conv_norm_act(x, stage)
        return ad.pwconv(x, self.params.readout_w, self.params.readout_b)

    def predict(self, frames, mode: str = "eval", drop_draw=None, internals=None):
        """Map t_in input frames to exactly t_out output frames.

        Each frame is one [c_in,H,W] sample or a batch [N,c_in,H,W], and the
        outputs match. ``drop_draw(pass_idx, block_idx)`` supplies the
        stochastic-depth uniforms in train mode, one per sample. Each pass
        decodes min(t_in, frames still needed) frames; while more are needed,
        the last t_in predictions are fed back as the next pass's inputs. A
        list passed as ``internals`` receives the first pass's block
        internals (see :meth:`translate`).
        """
        cfg = self.config
        current = list(frames)
        if len(current) != cfg.t_in:
            raise InputError(f"expected {cfg.t_in} input frames, got {len(current)}")
        outputs = []
        for pass_idx in range((cfg.t_out + cfg.t_in - 1) // cfg.t_in):
            feats, skips = zip(*(self.encode_frame(f) for f in current))
            draw = partial(drop_draw, pass_idx) if drop_draw is not None else None
            z = self.translate(ad.pack_time(list(feats)), mode=mode, drop_draw=draw,
                               internals=internals if pass_idx == 0 else None)
            parts = ad.unpack_time(z, cfg.t_in)
            keep = min(cfg.t_in, cfg.t_out - len(outputs))
            outputs.extend(self.decode_frame(parts[t], skips[t]) for t in range(keep))
            current = outputs[-cfg.t_in :]
        return outputs

    def suppression_values(self) -> list[tuple[int, int, int, float]]:
        """Effective center-suppression coefficients as (block, scale, channel, value)."""
        rows = []
        for b, blk in enumerate(self.params.blocks):
            for k in blk.scales:
                coefficient = gate_block.suppression_coefficient(blk, self.config, k)
                if coefficient is None:
                    values = np.full(self.config.packed_channels, self.config.beta_fixed)
                else:
                    values = coefficient.value
                rows.extend((b, k, c, float(v)) for c, v in enumerate(values))
        return rows

    def _as_var(self, frame, expected_shape):
        """A (c_in,H,W) sample or an (N,c_in,H,W) batch as a graph input."""
        arr = frame.value if isinstance(frame, Var) else np.asarray(frame, dtype=self.dtype)
        if arr.ndim not in (3, 4) or arr.shape[-3:] != expected_shape:
            raise InputError(
                f"frame shape {arr.shape} is neither {expected_shape} nor (N, *{expected_shape})"
            )
        return frame if isinstance(frame, Var) else Var(arr)


def _conv_norm_act(x, stage: ConvStage):
    """The encoder/decoder stage: 3x3 conv, 2-group normalization, LeakyReLU(0.2)."""
    x = ad.conv2d(x, stage.w, stride=stage.stride)
    x = ad.group_norm(x, stage.gn_gamma, stage.gn_beta, groups=2)
    return ad.leaky_relu(x, 0.2)


# ---------------------------------------------------------------------------
# Complexity accounting
# ---------------------------------------------------------------------------


def count_params(config: ModelConfig) -> int:
    """Exact number of learnable scalars for a configuration."""
    model = Model.build(config.validate(), seed=0)
    return model.store.num_scalars()


def _encoder_convs(cfg: ModelConfig):
    """(input channels, input height, input width, stride) of each encoder conv."""
    h, w, cin = cfg.height, cfg.width, cfg.c_in
    for stride in encoder_strides(cfg.n_s):
        yield cin, h, w, stride
        h, w, cin = h // stride, w // stride, cfg.latent


def _decoder_convs(cfg: ModelConfig):
    """(input channels, height, width, upsample) of each stride-1 decoder conv:
    the height and width are after the 2x upsample, if there is one, and the
    last conv also reads the encoder skip."""
    c = cfg.latent
    h, w = cfg.latent_hw
    for j, enc_stride in enumerate(encoder_strides(cfg.n_s)[::-1]):
        if enc_stride == 2:
            h, w = 2 * h, 2 * w
        yield (2 * c if j == cfg.n_s - 1 else c), h, w, enc_stride == 2


def count_flops(config: ModelConfig) -> int:
    """2 x multiply-adds of every convolution in one forward pass.

    Accounts t_in frames through the encoder, one translator pass (including
    the fixed descriptor filters under softmax fusion), and t_out frames through decoder+readout.
    """
    cfg = config.validate()
    c = cfg.latent
    macs_enc = sum(9 * cin * c * (h // s) * (w // s) for cin, h, w, s in _encoder_convs(cfg))
    hp, wp = cfg.latent_hw
    hw = hp * wp
    cp = cfg.packed_channels
    m = len(cfg.msinit_scales)
    macs_tr = sum(2 * k * cp * hw + 9 * cp * hw + cp * (cp // m) * hw for k in cfg.msinit_scales)
    e = cfg.expansion * cp
    per_block = 0
    if cfg.fusion == "softmax":  # descriptor cues and gate; mean fusion computes neither
        cue_macs = {"f1": 18 * cp * hw, "f2": 9 * cp * hw, "f3": 18 * cp * hw}
        per_block += sum(cue_macs[cue] for cue in cfg.cues)
        per_block += len(cfg.cues) * len(cfg.kernels) * hw
    per_block += sum(2 * k * cp * hw for k in cfg.kernels)
    per_block += cfg.center_size**2 * cp * hw
    per_block += cp * 2 * e * hw + 9 * e * hw + e * cp * hw
    macs_tr += cfg.n_t * per_block
    macs_dec = sum(9 * cin * c * h * w for cin, h, w, _ in _decoder_convs(cfg))
    macs_dec += c * cfg.c_out * cfg.height * cfg.width
    total_macs = cfg.t_in * macs_enc + macs_tr + cfg.t_out * macs_dec
    return 2 * total_macs


def per_sample_bytes(config: ModelConfig, dtype) -> int:
    """Bytes of the largest single array one sample adds to an eval forward.

    The candidates are, for each encoder and decoder conv (frames are encoded
    and decoded one at a time), its flat padded input rows Cin x (H + 3)(W + 2),
    its stride-1 output with wrap columns C x H (W + 2) and, with one input
    channel, its 9 stacked windows 9 x H (W + 2); 2E channels for the GLU,
    whose largest array is its E-channel gated map (``ops.glu`` builds the
    rest a block of hidden channels at a time; the 2E term, the width of the
    expansion before the op was blocked, is kept as a bound); and the
    zero-padded inputs ``ops.dwconv_2d`` reads, (H + k) x (W + k - 1) per
    channel (a bound: it pads a block of channels at a time), of the
    multi-scale init's and the GLU's 3 x 3 and the center kernel. Every
    other per-sample array of the forward is no larger than one of these; the
    banded Toeplitz matrices of the separable passes are shared by all samples.
    """
    cfg = config.validate()
    hp, wp = cfg.latent_hw
    cp, e, kc = cfg.packed_channels, cfg.expansion * cfg.packed_channels, cfg.center_size
    sizes = [max(cin * (h + 3), cfg.latent * h, 9 * h * (cin == 1)) * (w + 2)
             for cin, h, w, _ in chain(_encoder_convs(cfg), _decoder_convs(cfg))]
    sizes.append(cp * (hp + 3) * (wp + 2))
    if cfg.n_t:
        sizes += [2 * e * hp * wp, e * (hp + 3) * (wp + 2), cp * (hp + kc) * (wp + kc - 1)]
    return max(sizes) * np.dtype(dtype).itemsize
