"""Full prediction model: encoder, packed translator, decoder, rollout.

Pipeline per forward: every input frame runs through a shared convolutional
encoder; the per-frame features are packed along channels, refined by the
multi-scale init stage plus a stack of peripheral gating blocks, unpacked
back into frames and decoded at full resolution (with a skip from the first
encoder block). The output horizon is met by slicing (shorter) or
autoregressive rollout of whole passes (longer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import block as gate_block
from . import multiscale
from .autodiff import ParamStore, Var
from .descriptor import CUE_NAMES
from .errors import ConfigurationError, InputError
from .rng import INIT, stream


@dataclass
class ModelConfig:
    t_in: int = 2
    t_out: int = 2
    c_in: int = 1
    c_out: int = 1
    height: int = 16
    width: int = 16
    latent_c: int | None = None  # None: 16 for <=32x32 inputs, 32 otherwise
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
        if self.latent_c is not None:
            return self.latent_c
        return 16 if max(self.height, self.width) <= 32 else 32

    @property
    def packed_channels(self) -> int:
        return self.t_in * self.latent

    @property
    def downsample(self) -> int:
        return 2 ** (self.n_s // 2)

    @property
    def latent_hw(self) -> tuple[int, int]:
        return self.height // self.downsample, self.width // self.downsample

    def block_settings(self) -> gate_block.BlockSettings:
        return gate_block.BlockSettings(
            scales=self.kernels,
            cues=self.cues,
            fusion=self.fusion,
            beta_mode=self.beta_mode,
            beta_fixed=self.beta_fixed,
            beta_act=self.gate_act,
            center_size=self.center_size,
            expansion=self.expansion,
            drop_rate=self.drop_path,
        )

    def validate(self) -> "ModelConfig":
        for name in ("t_in", "t_out", "c_in", "c_out", "height", "width"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if self.n_s < 1:
            raise ConfigurationError("encoder depth n_s must be >= 1")
        if self.n_t < 0:
            raise ConfigurationError("translator depth n_t must be >= 0")
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
        self.block_settings().validate(self.packed_channels)
        return self


@dataclass
class EncoderBlock:
    w: Var
    gn_gamma: Var
    gn_beta: Var
    stride: int


@dataclass
class DecoderBlock:
    w: Var
    gn_gamma: Var
    gn_beta: Var
    upsample: bool


@dataclass
class ModelParams:
    encoder: list[EncoderBlock]
    msinit: multiscale.MultiScaleInitParams
    blocks: list[gate_block.BlockParams]
    decoder: list[DecoderBlock]
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
        enc = []
        for i, stride in enumerate(encoder_strides(config.n_s)):
            cin = config.c_in if i == 0 else c
            enc.append(
                EncoderBlock(
                    w=store.add(f"encoder/block{i}/w", _conv_init(rng, c, cin, 3, dtype)),
                    gn_gamma=store.add(f"encoder/block{i}/gn_gamma", np.ones(c, dtype=dtype)),
                    gn_beta=store.add(f"encoder/block{i}/gn_beta", np.zeros(c, dtype=dtype)),
                    stride=stride,
                )
            )
        ms = multiscale.init_params(
            store, "translator/msinit", config.packed_channels, config.msinit_scales, rng, dtype
        )
        settings = config.block_settings()
        blocks = [
            gate_block.init_params(
                store, f"translator/block{i}", config.packed_channels, settings, rng, dtype
            )
            for i in range(config.n_t)
        ]
        dec = []
        mirrored = encoder_strides(config.n_s)[::-1]
        for j, enc_stride in enumerate(mirrored):
            final = j == config.n_s - 1
            cin = 2 * c if final else c
            dec.append(
                DecoderBlock(
                    w=store.add(f"decoder/block{j}/w", _conv_init(rng, c, cin, 3, dtype)),
                    gn_gamma=store.add(f"decoder/block{j}/gn_gamma", np.ones(c, dtype=dtype)),
                    gn_beta=store.add(f"decoder/block{j}/gn_beta", np.zeros(c, dtype=dtype)),
                    upsample=enc_stride == 2,
                )
            )
        readout_w = store.add("decoder/readout/w", _pw_init(rng, config.c_out, c, dtype))
        readout_b = store.add("decoder/readout/b", np.zeros(config.c_out, dtype=dtype))
        params = ModelParams(enc, ms, blocks, dec, readout_w, readout_b)
        return cls(config, store, params, dtype)

    # -- stages --------------------------------------------------------------

    def encode_frame(self, frame):
        """Shared encoder: returns (latent features, first-block skip)."""
        x = self._as_var(frame, (self.config.c_in, self.config.height, self.config.width))
        skip = None
        for blk in self.params.encoder:
            x = ad.conv2d(x, blk.w, stride=blk.stride)
            x = ad.group_norm(x, blk.gn_gamma, blk.gn_beta, groups=2)
            x = ad.leaky_relu(x, 0.2)
            if skip is None:
                skip = x
        return x, skip

    def translate(self, z, mode: str = "eval", drop_draw=None, internals=None):
        """Multi-scale init followed by the gating block stack.

        Stochastic-depth uniforms are drawn only when the drop rate is
        positive; at rate 0 every branch is kept and nothing is drawn. A list
        passed as ``internals`` receives one :class:`BlockInternals` per block.
        """
        settings = self.config.block_settings()
        draws = drop_draw is not None and settings.drop_rate > 0.0
        x = multiscale.forward(z, self.params.msinit)
        for i, blk in enumerate(self.params.blocks):
            u = drop_draw(i) if draws else None
            record = None
            if internals is not None:
                record = gate_block.BlockInternals()
                internals.append(record)
            x = gate_block.forward(x, blk, settings, mode=mode, drop_u=u, internals=record)
        return x

    def decode_frame(self, feat, skip):
        """Mirror decoder; the last block consumes the encoder skip."""
        x = feat
        n = len(self.params.decoder)
        for j, blk in enumerate(self.params.decoder):
            if blk.upsample:
                x = ad.upsample2x(x)
            if j == n - 1:
                x = ad.concat_channels([x, skip])
            x = ad.conv2d(x, blk.w, stride=1)
            x = ad.group_norm(x, blk.gn_gamma, blk.gn_beta, groups=2)
            x = ad.leaky_relu(x, 0.2)
        return ad.pwconv(x, self.params.readout_w, self.params.readout_b)

    def predict(self, frames, mode: str = "eval", drop_draw=None, internals=None):
        """Map t_in input frames to exactly t_out output frames.

        Each frame is one [c_in,H,W] sample or a batch [N,c_in,H,W], and the
        outputs match. ``drop_draw(pass_idx, block_idx)`` supplies the
        stochastic-depth uniforms in train mode, one per sample. Shorter
        horizons slice the first pass; longer horizons roll out by feeding
        the last t_in predictions back as inputs. A list passed as
        ``internals`` receives the first pass's block internals (see
        :meth:`translate`).
        """
        cfg = self.config
        frames = list(frames)
        if len(frames) != cfg.t_in:
            raise InputError(f"expected {cfg.t_in} input frames, got {len(frames)}")

        def run_pass(inputs, pass_idx, keep: int):
            feats, skips = [], []
            for f in inputs:
                feat, skip = self.encode_frame(f)
                feats.append(feat)
                skips.append(skip)
            z = ad.pack_time(feats)
            draw = (lambda b: drop_draw(pass_idx, b)) if drop_draw is not None else None
            z = self.translate(z, mode=mode, drop_draw=draw,
                               internals=internals if pass_idx == 0 else None)
            parts = ad.unpack_time(z, cfg.t_in)
            return [self.decode_frame(parts[t], skips[t]) for t in range(keep)]

        if cfg.t_out <= cfg.t_in:
            return run_pass(frames, 0, cfg.t_out)
        outputs = []
        current = frames
        pass_idx = 0
        while len(outputs) < cfg.t_out:
            preds = run_pass(current, pass_idx, cfg.t_in)
            outputs.extend(preds)
            current = outputs[-cfg.t_in :]
            pass_idx += 1
        return outputs[: cfg.t_out]

    def suppression_values(self) -> list[tuple[int, int, int, float]]:
        """Effective center-suppression coefficients as (block, scale, channel, value)."""
        rows = []
        settings = self.config.block_settings()
        for b, blk in enumerate(self.params.blocks):
            for k in blk.scales:
                coefficient = gate_block.suppression_coefficient(blk, settings, k)
                if coefficient is None:
                    values = np.full(self.config.packed_channels, settings.beta_fixed)
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


def _conv_init(rng, cout, cin, k, dtype):
    bound = 1.0 / np.sqrt(cin * k * k)
    return rng.uniform(-bound, bound, size=(cout, cin, k, k)).astype(dtype)


def _pw_init(rng, cout, cin, dtype):
    bound = 1.0 / np.sqrt(cin)
    return rng.uniform(-bound, bound, size=(cout, cin)).astype(dtype)


# ---------------------------------------------------------------------------
# Complexity accounting
# ---------------------------------------------------------------------------


def sep_scale_params(k: int, channels: int) -> int:
    """Kernel parameters of one separable depthwise scale: 2k per channel."""
    return 2 * k * channels


def dense_scale_params(k: int, channels: int) -> int:
    """Kernel parameters of the dense depthwise equivalent: k^2 per channel."""
    return k * k * channels


def count_params(config: ModelConfig) -> int:
    """Exact number of learnable scalars for a configuration."""
    model = Model.build(config.validate(), seed=0)
    return model.store.num_scalars()


def count_flops(config: ModelConfig) -> int:
    """2 x multiply-adds of every convolution in one forward pass.

    Accounts t_in frames through the encoder, one translator pass (including
    the fixed descriptor filters), and t_out frames through decoder+readout.
    """
    cfg = config.validate()
    c = cfg.latent
    macs_enc = 0
    h, w = cfg.height, cfg.width
    cin = cfg.c_in
    for stride in encoder_strides(cfg.n_s):
        h, w = h // stride, w // stride
        macs_enc += 9 * cin * c * h * w
        cin = c
    hp, wp = cfg.latent_hw
    hw = hp * wp
    cp = cfg.packed_channels
    m = len(cfg.msinit_scales)
    macs_tr = sum(2 * k * cp * hw + 9 * cp * hw + cp * (cp // m) * hw for k in cfg.msinit_scales)
    e = cfg.expansion * cp
    cue_macs = {"f1": 18 * cp * hw, "f2": 9 * cp * hw, "f3": 18 * cp * hw}
    per_block = sum(cue_macs[cue] for cue in cfg.cues)
    if cfg.fusion == "softmax":
        per_block += len(cfg.cues) * len(cfg.kernels) * hw
    per_block += sum(2 * k * cp * hw for k in cfg.kernels)
    per_block += cfg.center_size**2 * cp * hw
    per_block += cp * 2 * e * hw + 9 * e * hw + e * cp * hw
    macs_tr += cfg.n_t * per_block
    macs_dec = 0
    h, w = hp, wp
    mirrored = encoder_strides(cfg.n_s)[::-1]
    for j, enc_stride in enumerate(mirrored):
        if enc_stride == 2:
            h, w = 2 * h, 2 * w
        dec_cin = 2 * c if j == cfg.n_s - 1 else c
        macs_dec += 9 * dec_cin * c * h * w
    macs_dec += c * cfg.c_out * cfg.height * cfg.width
    total_macs = cfg.t_in * macs_enc + macs_tr + cfg.t_out * macs_dec
    return 2 * total_macs


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
