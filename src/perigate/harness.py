"""Training, evaluation, and introspection dumps.

Training is fully deterministic for a given (seed, config, data): parameter
init, batch shuffling, and stochastic-depth decisions all come from
counter-based streams, so repeated runs produce byte-identical checkpoints
and history files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import container, metrics
from .autodiff import Tape, backward
from .config import TrainConfig, parse_config_text, serialize_config
from .errors import InputError, NumericError
from .model import Model, ModelConfig, count_flops
from .rng import DROP, SHUFFLE, counter_uniform, stream


class Adam:
    """Adam with fixed hyperparameters and no schedule."""

    def __init__(self, store, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(store.value(name)) for name in store.names()}
        self.v = {name: np.zeros_like(store.value(name)) for name in store.names()}

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for name in self.store.names():
            g = self.store.grad(name)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            p = self.store.var(name)
            p.value = p.value - (self.lr * update).astype(p.value.dtype)


def load_sequences(path) -> np.ndarray:
    arr = container.load_tensor(path)
    if arr.ndim != 5:
        raise InputError(f"sequence file must be [N,T,C,H,W], got rank {arr.ndim}")
    return arr


def _check_sequences(m: ModelConfig, data: np.ndarray, need: int):
    """Accept only [N,T,c_in,H,W] sequences of at least ``need`` frames."""
    if data.ndim != 5:
        raise InputError(f"sequence data must be [N,T,C,H,W], got rank {data.ndim}")
    if data.shape[1] < need:
        raise InputError(f"data has {data.shape[1]} frames, config needs {need}")
    if data.shape[2:] != (m.c_in, m.height, m.width):
        raise InputError(
            f"data frames {data.shape[2:]} do not match config {(m.c_in, m.height, m.width)}"
        )


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
    tape = Tape()
    with tape:
        total = _batch_loss(model, seqs, drop_draw)
    tape.outputs = (total,)
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
    opt = Adam(model.store, cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
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
            bad = _first_nonfinite(model.store)
            if bad is not None:
                raise NumericError(
                    f"non-finite values in parameter '{bad}' after epoch {epoch} step {step}"
                )
            epoch_loss += loss_value * len(batch)
        record = EpochRecord(epoch, epoch_loss / n)
        history.append(record)
        if log is not None:
            log(record)
    return model, history


def write_history_csv(path, history: list[EpochRecord]):
    with container.atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for rec in history:
            writer.writerow([rec.epoch, f"{rec.loss:.10g}"])


def save_model(path, cfg: TrainConfig, model: Model):
    container.save_checkpoint(path, serialize_config(cfg), dict(model.store.items()))


def load_model(path) -> tuple[TrainConfig, Model]:
    config_text, tensors = container.load_checkpoint(path)
    cfg = parse_config_text(config_text)
    cfg.validate()
    model = Model.build(cfg.model, seed=cfg.seed, dtype=np.float32)
    model.store.load_state(tensors)
    return cfg, model


def predict_batch(model: Model, data: np.ndarray) -> np.ndarray:
    """Eval-mode predictions for every sequence: [N, t_out, c_out, H, W]."""
    m = model.config
    _check_sequences(m, data, m.t_in)
    out = np.empty(
        (data.shape[0], m.t_out, m.c_out, m.height, m.width), dtype=model.dtype
    )
    for i in range(data.shape[0]):
        inputs = [data[i, t] for t in range(m.t_in)]
        preds = model.predict(inputs, mode="eval")
        for t, p in enumerate(preds):
            out[i, t] = p.value
    return out


METRIC_NAMES = ("mse", "mse_norm", "mae", "psnr", "ssim", "params", "flops")


def evaluate(cfg: TrainConfig, model: Model, data: np.ndarray) -> dict[str, float]:
    """Run eval-mode prediction over a dataset and report the seven metrics."""
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
    with container.atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for name in METRIC_NAMES:
            writer.writerow([name, f"{report[name]:.10g}"])


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
    if input_sequence.ndim != 4 or input_sequence.shape[0] < m.t_in:
        raise InputError(
            f"input sequence must be [T>={m.t_in},C,H,W], got {input_sequence.shape}"
        )
    internals = []
    model.predict([input_sequence[t] for t in range(m.t_in)], internals=internals)
    alpha = internals[block_index].alpha.value
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
    with container.atomic_write(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "w"] + [f"alpha_{i}" for i in range(k)])
        for y in range(alpha.shape[1]):
            for x in range(alpha.shape[2]):
                writer.writerow([y, x] + [f"{alpha[i, y, x]:.10g}" for i in range(k)])
    return csv_path, pgm_path


def dump_betas(model: Model, out_csv):
    """Write every effective suppression coefficient: block, scale, channel, value."""
    with container.atomic_write(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "scale", "channel", "value"])
        for row in model.suppression_values():
            writer.writerow([row[0], row[1], row[2], f"{row[3]:.10g}"])
