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

import numpy as np

from . import autodiff as ad
from . import block as gate_block
from . import multiscale
from .autodiff import ParamStore, Var
from .descriptor import CUE_NAMES, check_cues
from .errors import ConfigurationError, InputError
from .multiscale import fan_in_uniform
from .ops import GN_GROUPS, index_blocks
from .rng import INIT, stream

FUSIONS = ("softmax", "mean")  # the values of ModelConfig.fusion, and of its config key
GATE_ACTS = ("tanh", "sigmoid")  # the same for gate_act


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
        rounded up to the next multiple of GN_GROUPS whose t_in frames split over the
        multi-scale init branches."""
        if self.latent_c is not None:
            return self.latent_c
        width = 16 if max(self.height, self.width) <= 32 else 32
        while self.t_in * width % max(len(self.msinit_scales), 1):
            width += GN_GROUPS
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
        if self.t_out > self.t_in and self.c_out != self.c_in:  # a rollout encodes its outputs
            raise ConfigurationError(f"a rollout (t_out {self.t_out} > t_in {self.t_in}) needs"
                                     f" c_out {self.c_out} equal to c_in {self.c_in}")
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
        if self.latent % GN_GROUPS != 0:
            raise ConfigurationError(
                f"latent width {self.latent} not divisible into {GN_GROUPS} groups")
        multiscale.validate_scales(self.packed_channels, self.msinit_scales)
        scales = self.kernels
        if not scales:
            raise ConfigurationError("need at least one kernel scale")
        if len(set(scales)) != len(scales):
            raise ConfigurationError(f"duplicate kernel scales {scales}")
        if any(k % 2 == 0 or k < 1 for k in scales):
            raise ConfigurationError(f"kernel scales must be odd, got {scales}")
        if self.fusion not in FUSIONS:
            raise ConfigurationError(f"unknown fusion '{self.fusion}'")
        if self.beta_mode not in ("learnable", "fixed"):
            raise ConfigurationError(f"unknown beta mode '{self.beta_mode}'")
        if self.gate_act not in GATE_ACTS:
            raise ConfigurationError(f"unknown beta activation '{self.gate_act}'")
        if self.center_size not in (3, 5):
            raise ConfigurationError(f"center size must be 3 or 5, got {self.center_size}")
        if self.expansion < 1:
            raise ConfigurationError(f"expansion must be >= 1, got {self.expansion}")
        if not 0.0 <= self.drop_path < 1.0:
            raise ConfigurationError(f"drop rate must lie in [0,1), got {self.drop_path}")
        check_cues(self.cues)
        if not np.isfinite(self.beta_fixed):
            raise ConfigurationError(f"fixed beta must be finite, got {self.beta_fixed}")
        return self


@dataclass
class ConvStage:
    """One conv -> group norm -> LeakyReLU stage: an encoder conv may have
    stride 2, a decoder stage may upsample its input 2x (nearest) before the conv."""

    w: Var
    gn_gamma: Var
    gn_beta: Var
    stride: int
    upsample: bool


@dataclass
class ModelParams:
    encoder: list[ConvStage]
    msinit: list[multiscale.BranchParams]
    blocks: list[gate_block.BlockParams]
    decoder: list[ConvStage]
    readout_w: Var
    readout_b: Var


def frame_blocks(config: ModelConfig, dtype) -> list[slice]:
    """The blocks of the t_in frames that the encoder and decoder take in one call:
    ``ops.index_blocks`` of one sample's full-resolution latent frame, latent x H x W
    items. All of them in one block at the README micro config (6 kB a frame), one
    frame a block at 128 x 128 (384 kB)."""
    item_bytes = config.latent * config.height * config.width * np.dtype(dtype).itemsize
    return index_blocks(config.t_in, item_bytes)


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

    def encode_frame(self, frames):
        """Shared encoder over a frame block [F, ..., c_in, H, W] (or one frame), taken as
        it is (:meth:`predict` validates its inputs once): returns (latent features,
        first-block skip), with the block's leading axes."""
        x = skip = _conv_norm_act(frames, self.params.encoder[0])
        for stage in self.params.encoder[1:]:
            x = _conv_norm_act(x, stage)
        return x, skip

    def translate(self, x, mode: str = "eval", drop_draw=None, internals=None):
        """Multi-scale init followed by the gating block stack.

        Stochastic-depth uniforms are drawn only when the drop rate is
        positive; at rate 0 every branch is kept and nothing is drawn. A list
        passed as ``internals`` receives each block's gate weights α, in block order.
        """
        draws = drop_draw is not None and self.config.drop_path > 0.0
        x = multiscale.forward(x, self.params.msinit)  # the packed map's last reader
        for i, blk in enumerate(self.params.blocks):
            u = drop_draw(i) if draws else None
            x = gate_block.forward(x, blk, self.config, mode=mode, drop_u=u, internals=internals)
        return x

    def decode_frame(self, feat, skip):
        """Mirror decoder over a frame block (or one frame); the last block, which never
        upsamples (encoder block 0 has stride 1), consumes the encoder skip."""
        x = feat
        n = len(self.params.decoder)
        for j, stage in enumerate(self.params.decoder):
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
        list passed as ``internals`` receives the first pass's gate weights (see
        :meth:`translate`). ``mode`` is "train" or "eval".

        The encoder and decoder run on the :func:`frame_blocks`, each one call
        over a [F, ..., c, H, W] stack of F frames; every op treats the frame
        axis as more samples, so the frames' values are those of one call per
        frame. A pass stacks its inputs once, packs the encoded blocks along
        channels in one copy, and decodes the blocks of the frames still
        needed, each cut with its skip by ``take_frames`` from the translated
        map's frame view; the next pass encodes the decoded blocks as they are.

        Each map is released after its last reader (a tape, when active, keeps every
        value): at its peak an eval call holds one gating block's input, fused map and
        mixing-stage arrays, the pass's encoder skips and the outputs so far.
        """
        if mode not in ("train", "eval"):
            raise ConfigurationError(f"unknown mode '{mode}'")
        cfg = self.config
        frames, blocks = self._input_frames(frames), frame_blocks(cfg, self.dtype)
        current = [ad.stack_frames(frames[sl]) for sl in blocks]
        del frames
        outputs = []
        for pass_idx in range((cfg.t_out + cfg.t_in - 1) // cfg.t_in):
            feats, skips = map(list, zip(*(self.encode_frame(b) for b in current)))
            current = [ad.pack_frames(feats)]  # popped: translate alone holds the packed map
            del feats
            draw = partial(drop_draw, pass_idx) if drop_draw is not None else None
            z = self.translate(current.pop(), mode=mode, drop_draw=draw,
                               internals=internals if pass_idx == 0 else None)
            z = ad.unpack_frames(z, cfg.t_in)
            keep = min(cfg.t_in, cfg.t_out - len(outputs))
            needed = [slice(sl.start, min(sl.stop, keep)) for sl in blocks if sl.start < keep]
            current = [self.decode_frame(ad.take_frames(z, sl),
                                         ad.take_frames(skips.pop(0), slice(sl.stop - sl.start)))
                       for sl in needed]
            del z
            outputs.extend(ad.take_frames(y, f) for y in current for f in range(y.shape[0]))
        return outputs

    def suppression_values(self) -> list[tuple[int, int, int, float]]:
        """Effective center-suppression coefficients as (block, scale, channel, value)."""
        rows = []
        for b, blk in enumerate(self.params.blocks):
            for k in blk.scales:
                coefficient = gate_block.suppression_coefficient(blk, self.config, k)
                if isinstance(coefficient, Var):
                    coefficient = coefficient.value
                values = np.broadcast_to(coefficient, self.config.packed_channels)
                rows.extend((b, k, c, float(v)) for c, v in enumerate(values))
        return rows

    def _input_frames(self, frames) -> list:
        """The t_in input frames, arrays in the model's dtype (Vars as they are): all one
        [c_in,H,W] sample or all one [N,c_in,H,W] batch."""
        cfg = self.config
        frames = [f if isinstance(f, Var) else np.asarray(f, dtype=self.dtype) for f in frames]
        if len(frames) != cfg.t_in:
            raise InputError(f"expected {cfg.t_in} input frames, got {len(frames)}")
        expected = (cfg.c_in, cfg.height, cfg.width)
        for f in frames:
            if len(f.shape) not in (3, 4) or f.shape[-3:] != expected:
                raise InputError(
                    f"frame shape {f.shape} is neither {expected} nor (N, *{expected})"
                )
        if len({f.shape for f in frames}) > 1:
            raise InputError(f"input frames differ in shape: {[f.shape for f in frames]}")
        return frames


def _conv_norm_act(x, stage: ConvStage):
    """The encoder/decoder stage: 3x3 conv (behind a nearest 2x upsampling, as one op,
    in an upsampling stage), group normalization, LeakyReLU (:func:`ad.group_norm_act`)."""
    if stage.upsample:
        x = ad.upsample_conv2d(x, stage.w)
    else:
        x = ad.conv2d(x, stage.w, stride=stage.stride)
    return ad.group_norm_act(x, stage.gn_gamma, stage.gn_beta)


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
    An upsampling decoder stage counts the paper's 3 x 3 conv over the upsampled
    map, 9 Ci Co multiply-adds per output pixel: the model's cost, not the 4 Ci Co
    that ``ops.upsample_conv2d`` spends on its parity planes.
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
    """Bytes of the largest feature map one sample adds to an eval forward of a
    validated ``config`` (``Model.build`` validates it): the decoder's last input, the
    latent map and its skip over the largest :func:`frame_blocks` block, 2 F latent H W;
    the packed translator map, cp h w; and with gating blocks the GLU's gate and value
    rows, 2E h w. A kernel's scratch stays within a small factor of the map it reads."""
    cfg = config
    hw = cfg.latent_hw[0] * cfg.latent_hw[1]
    sizes = [2 * frame_blocks(cfg, dtype)[0].stop * cfg.latent * cfg.height * cfg.width,
             cfg.packed_channels * hw]
    if cfg.n_t:
        sizes.append(2 * cfg.expansion * cfg.packed_channels * hw)
    return max(sizes) * np.dtype(dtype).itemsize
