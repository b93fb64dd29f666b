"""Training, evaluation, and introspection dumps.

Training is fully deterministic for a given (seed, config, data): parameter
init, batch shuffling, and stochastic-depth decisions all come from
counter-based streams, so repeated runs produce byte-identical checkpoints
and history files.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import container, metrics
from .autodiff import Tape, backward
from .config import TrainConfig, parse_config_text, serialize_config
from .errors import ConfigurationError, InputError, NumericError
from .model import Model, ModelConfig, count_flops, per_sample_bytes
from .rng import DROP, SHUFFLE, counter_uniform, stream


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and guard


class Adam:
    """Adam with fixed hyperparameters (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) and no schedule.

    The moments ``m`` and ``v`` are one flat vector each, in the store's
    parameter order and its single dtype, and so are the values: each
    parameter is bound once, here, to its slice of ``params``. A step gathers
    every gradient into one vector and updates ``params`` in place, once over
    the vectors. The update is elementwise, so it is bitwise the per-parameter
    rule. ``ParamStore.load_state`` writes values in place and keeps the binding.
    """

    def __init__(self, store, lr: float):
        variables = store.variables()
        dtypes = {p.value.dtype for p in variables}
        if len(dtypes) != 1:
            raise ConfigurationError(
                f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}"
            )
        (self.dtype,) = dtypes
        self.store = store
        self.lr = lr
        self.t = 0
        self.params = np.concatenate([p.value for p in variables], axis=None)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        ends = np.cumsum([p.value.size for p in variables]).tolist()
        for p, lo, hi in zip(variables, [0] + ends, ends):
            p.value = self.params[lo:hi].reshape(p.value.shape)

    def step(self):
        self.t += 1
        bias1 = 1.0 - ADAM_BETA1**self.t
        bias2 = 1.0 - ADAM_BETA2**self.t
        g = np.concatenate([self.store.grad(name) for name in self.store.names()], axis=None,
                           dtype=self.dtype)
        m, v = self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        self.params -= (self.lr * update).astype(self.dtype, copy=False)


def _check_sequences(m: ModelConfig, data: np.ndarray, need: int):
    """Accept only [N,T,c_in,H,W] sequences of at least ``need`` frames whose
    first ``need`` frames are finite."""
    if data.ndim != 5:
        raise InputError(f"sequence data must be [N,T,C,H,W], got rank {data.ndim}")
    if data.shape[1] < need:
        raise InputError(f"data has {data.shape[1]} frames, config needs {need}")
    if data.shape[2:] != (m.c_in, m.height, m.width):
        raise InputError(
            f"data frames {data.shape[2:]} do not match config {(m.c_in, m.height, m.width)}"
        )
    finite = np.isfinite(data[:, :need])
    if not finite.all():
        i, t = np.argwhere(~finite)[0][:2]
        raise InputError(f"sequence {i} frame {t} holds a non-finite value")


@dataclass
class EpochRecord:
    epoch: int
    loss: float


def _batch_loss(model: Model, seqs: np.ndarray, drop_draw):
    """Mean over the batch of each sequence's mean per-frame MSE, as one graph.

    ``seqs`` is one [T,C,H,W] sequence or a batch [N,T,C,H,W]; frame t of a
    batch is one [N,C,H,W] array. All sequences share a frame size, so a
    frame's MSE over the whole batch is the mean of the per-sequence MSEs.
    """
    m = model.config
    inputs = [seqs[..., t, :, :, :] for t in range(m.t_in)]
    preds = model.predict(inputs, mode="train", drop_draw=drop_draw)
    total = None
    for t, pred in enumerate(preds):
        diff = ad.sub(pred, np.asarray(seqs[..., m.t_in + t, :, :, :], dtype=model.dtype))
        frame_loss = ad.mean_all(ad.mul(diff, diff))
        total = frame_loss if total is None else ad.add(total, frame_loss)
    return ad.scale(total, 1.0 / len(preds))


def _first_nonfinite(store) -> str | None:
    for name in store.names():
        if not np.all(np.isfinite(store.value(name))):
            return name
    return None


def _first_nonfinite_op(tape: Tape) -> str | None:
    """The earliest recorded op whose output is not finite, named from its vjp."""
    for i, node in enumerate(tape.nodes):
        if not np.all(np.isfinite(node.value)):
            op = node.vjp.__qualname__.split(".")[0]
            return f"'{op}' (tape node {i} of {len(tape.nodes)})"
    return None


def _loss_and_grads(model: Model, seqs: np.ndarray, drop_draw, where: str) -> float:
    """One graph over the minibatch: forward, divergence check, backward into the store.

    The graph dies on return, so it never overlaps the next step's.
    """
    model.store.zero_grads()
    total, tape = ad.forward_traced(lambda: _batch_loss(model, seqs, drop_draw), [])
    loss_value = float(total.value)
    if not np.isfinite(loss_value):
        culprit = _first_nonfinite(model.store)
        raise NumericError(
            f"non-finite loss at {where}; first non-finite op: {_first_nonfinite_op(tape)}"
            + (f"; first non-finite parameter: '{culprit}'" if culprit else "")
        )
    backward(tape, np.asarray(1.0, dtype=total.value.dtype))
    return loss_value


def train(cfg: TrainConfig, data: np.ndarray, log=None) -> tuple[Model, list[EpochRecord]]:
    """Train on [N,T,C,H,W] sequences; loss is the spatially normalized MSE.

    Each step runs one graph over the whole minibatch. Stochastic-depth
    uniforms are keyed by (epoch, step, position in batch, pass and block),
    so every drop decision is independent of how the batch is evaluated.
    """
    cfg.validate()
    _check_sequences(cfg.model, data, cfg.model.t_in + cfg.model.t_out)
    model = Model.build(cfg.model, seed=cfg.seed, dtype=np.float32)
    opt = Adam(model.store, cfg.lr)
    n = data.shape[0]
    history: list[EpochRecord] = []
    for epoch in range(1, cfg.epochs + 1):
        order = stream(cfg.seed, SHUFFLE, epoch).permutation(n)
        epoch_loss = 0.0
        for step, lo in enumerate(range(0, n, cfg.batch)):
            batch = order[lo : lo + cfg.batch]

            def drop_draw(pass_idx, block_idx):
                counter = pass_idx * 4096 + block_idx
                return np.array([
                    counter_uniform(cfg.seed, DROP, (epoch, step, j, counter))
                    for j in range(len(batch))
                ])

            where = f"epoch {epoch} step {step}"
            loss_value = _loss_and_grads(model, data[batch], drop_draw, where)
            opt.step()
            if not np.isfinite(opt.params).all():
                raise NumericError(
                    f"non-finite values in parameter '{_first_nonfinite(model.store)}'"
                    f" after epoch {epoch} step {step}"
                )
            epoch_loss += loss_value * len(batch)
        record = EpochRecord(epoch, epoch_loss / n)
        history.append(record)
        if log is not None:
            log(record)
    return model, history


def write_history_csv(path, history: list[EpochRecord]):
    rows = ([rec.epoch, f"{rec.loss:.10g}"] for rec in history)
    container.write_csv(path, chain([["epoch", "loss"]], rows))


def save_model(path, cfg: TrainConfig, model: Model):
    container.save_checkpoint(path, serialize_config(cfg), dict(model.store.items()))


def load_model(path) -> tuple[TrainConfig, Model]:
    config_text, tensors = container.load_checkpoint(path)
    cfg = parse_config_text(config_text)
    cfg.validate()
    model = Model.build(cfg.model, seed=cfg.seed, dtype=np.float32)
    model.store.load_state(tensors)
    return cfg, model


# Eval-mode prediction stacks as many sequences into one Model.predict call as keep
# the largest per-sample feature map (model.per_sample_bytes) within this many bytes:
# 170 at the README micro config (24 kB; one call on 16 sequences takes a fifth of
# the time of 16), one at the 128x128 kth shape (7.9 MB; chunk 2 saves no time).
EVAL_CHUNK_BYTES = 4 << 20


def eval_chunk(m: ModelConfig, dtype) -> int:
    """Sequences per eval-mode ``Model.predict`` call of a validated config: at least
    one."""
    return max(1, EVAL_CHUNK_BYTES // per_sample_bytes(m, dtype))


def predict_batch(model: Model, data: np.ndarray) -> np.ndarray:
    """Eval-mode predictions for every sequence: [N, t_out, c_out, H, W].

    Sequences go through the model in chunks of :func:`eval_chunk`, each one
    graph over [n, c_in, H, W] frames (rollouts included). Eval mode takes
    every statistic per sample, so on one machine and BLAS build each
    prediction is bitwise the one a call on its sequence alone gives.
    """
    m = model.config
    _check_sequences(m, data, m.t_in)
    n = data.shape[0]
    out = np.empty((n, m.t_out, m.c_out, m.height, m.width), dtype=model.dtype)
    chunk = eval_chunk(m, model.dtype)
    for lo in range(0, n, chunk):
        frames = [data[lo : lo + chunk, t] for t in range(m.t_in)]
        # written straight into out, and no output of this chunk outlives the call
        np.stack([p.value for p in model.predict(frames)], axis=1, out=out[lo : lo + chunk])
    return out


METRIC_NAMES = ("mse", "mse_norm", "mae", "psnr", "ssim", "params", "flops")


def evaluate(cfg: TrainConfig, model: Model, data: np.ndarray) -> dict[str, float]:
    """Run eval-mode prediction over a dataset (:func:`predict_batch`, so in
    chunks of sequences) and report the seven metrics."""
    m = cfg.model
    _check_sequences(m, data, m.t_in + m.t_out)
    preds = predict_batch(model, data)
    gt = data[:, m.t_in : m.t_in + m.t_out].astype(np.float64)
    preds = preds.astype(np.float64)
    return {
        "mse": metrics.mse(preds, gt, normalized=False),
        "mse_norm": metrics.mse(preds, gt, normalized=True),
        "mae": metrics.mae(preds, gt),
        "psnr": metrics.psnr(preds, gt),
        "ssim": metrics.ssim(preds, gt),
        "params": float(model.store.num_scalars()),
        "flops": float(count_flops(m)),
    }


def write_metrics_csv(path, report: dict[str, float]):
    """Exactly one `metric,value` row per report entry (no header)."""
    container.write_csv(path, ([name, f"{report[name]:.10g}"] for name in METRIC_NAMES))


# ---------------------------------------------------------------------------
# Introspection dumps
# ---------------------------------------------------------------------------


def write_pgm(path, gray: np.ndarray):
    """Binary P5 image, maxval 255."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise InputError(f"PGM payload must be 2-D, got {gray.shape}")
    h, w = gray.shape
    with container.atomic_write(path) as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.astype(np.uint8).tobytes())


def dump_gates(model: Model, input_sequence: np.ndarray, block_index: int, out_prefix):
    """Write the gate map of one block: full alpha CSV plus argmax PGM.

    The map comes from one ordinary eval-mode prediction of the sequence's
    first t_in frames (its first pass when the horizon rolls out).
    The PGM maps the per-pixel argmax scale index (ties toward the smallest
    index) to evenly spaced gray levels. Returns the two output paths.
    """
    m = model.config
    if not 0 <= block_index < m.n_t:
        raise InputError(f"block index {block_index} out of range 0..{m.n_t - 1}")
    if input_sequence.ndim != 4:
        raise InputError(f"input sequence must be [T,C,H,W], got {input_sequence.shape}")
    _check_sequences(m, input_sequence[None], m.t_in)
    internals = []
    model.predict([input_sequence[t] for t in range(m.t_in)], internals=internals)
    alpha = internals[block_index].value
    k = alpha.shape[0]
    argmax = alpha.argmax(axis=0)
    levels = (
        np.zeros(1, dtype=np.uint8)
        if k == 1
        else np.round(255.0 * np.arange(k) / (k - 1)).astype(np.uint8)
    )
    prefix = Path(out_prefix)
    pgm_path = prefix.with_name(prefix.name + "_argmax.pgm")
    csv_path = prefix.with_name(prefix.name + "_alpha.csv")
    write_pgm(pgm_path, levels[argmax])
    header = ["h", "w"] + [f"alpha_{i}" for i in range(k)]
    rows = ([y, x] + [f"{alpha[i, y, x]:.10g}" for i in range(k)]
            for y in range(alpha.shape[1]) for x in range(alpha.shape[2]))
    container.write_csv(csv_path, chain([header], rows))
    return csv_path, pgm_path


def dump_betas(model: Model, out_csv):
    """Write every effective suppression coefficient: block, scale, channel, value."""
    rows = ([b, k, c, f"{v:.10g}"] for b, k, c, v in model.suppression_values())
    container.write_csv(out_csv, chain([["block", "scale", "channel", "value"]], rows))
