"""The benchmark's workloads, each a closed loop of one caller in one process.

Every workload makes its inputs from the seed it is given, drives perigate
only through public functions (``harness.train``, ``harness.predict_batch``,
``cli.main``, ``container.*``, ``data.gen_bouncing``) and checks every output
it times. The reasons for each workload are in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from perigate import cli, container, data, harness, model
from perigate.config import TrainConfig, serialize_config
from perigate.model import ModelConfig

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    """An output of perigate did not pass the benchmark's check."""


def expect(condition, message: str):
    if not condition:
        raise CheckFailed(message)


class Recorder:
    """Operations attempted and failed, latency samples and work done."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latency_ms: list[float] = []
        self.wall_latency_ms: list[float] = []
        self.work = 0
        self.work_s = 0.0
        self.work_wall_s = 0.0
        self.probe_ratio = 0.0  # median loop probe / the probes around the loop

    def add_work(self, units: int, seconds: float, clock):
        """``units`` of work that took ``seconds`` (reference) in the clock's latest call."""
        self.work += units
        self.work_s += seconds
        self.work_wall_s += clock.last_wall

    def add_latency(self, seconds: float, clock):
        """One latency sample of ``seconds`` (reference) from the clock's latest call."""
        self.latency_ms.append(seconds * 1e3)
        self.wall_latency_ms.append(clock.last_wall * 1e3)

    @contextlib.contextmanager
    def op(self, what: str):
        """Count one operation; an exception or failed check inside marks it failed."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # every failure is counted and reported, never raised
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def run_cli(argv) -> tuple[int, str]:
    """``cli.main`` in this process, with its stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def check_predictions(preds, shape):
    expect(preds.shape == shape, f"prediction shape {preds.shape} != {shape}")
    expect(bool(np.all(np.isfinite(preds))), "non-finite prediction")


def check_metrics_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect([r[0] for r in rows] == list(harness.METRIC_NAMES), f"metric rows {rows}")
    expect(all(math.isfinite(float(r[1])) for r in rows), f"non-finite metric in {rows}")


def eval_job(clock, ckpt, data_path, out_csv) -> float:
    """One in-process ``perigate eval``, checkpoint load to CSV; returns seconds."""
    (code, _), seconds = clock.timed(run_cli, ["eval", "--ckpt", ckpt, "--data", data_path,
                                               "--out-csv", out_csv])
    expect(code == 0, f"eval exited {code}")
    check_metrics_csv(out_csv)
    return seconds


class Workload:
    name = ""
    probe_kind = "small"  # the clock probe that matches this workload's hot path
    setup_reps = 5  # setup_s is the median of this many set-ups
    job_reps = 1  # job_s is the median of this many jobs

    def __init__(self, work: Path, seed: int, clock):
        self.work = work
        self.seed = seed
        self.clock = clock

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def step(self, rec: Recorder):
        """One unit of the closed loop: adds latency samples and work done."""
        raise NotImplementedError

    def job(self) -> float:
        """One fixed batch job through ``cli.main``; returns its reference seconds."""
        raise NotImplementedError

    def final_checks(self, rec: Recorder):
        pass

    def fingerprint(self) -> bytes:
        """A deterministic output, compared bitwise between traced and untraced runs."""
        raise NotImplementedError

    def flop_check(self, tracer):
        """(op-summed FLOPs per kind, count_flops) for one eval forward, or None."""
        return None


# ---------------------------------------------------------------------------
# Model workloads
# ---------------------------------------------------------------------------


class ModelWorkload(Workload):
    """A workload whose set-up leaves ``model``, ``mcfg`` and one input sequence ``one``."""

    def fingerprint(self):
        return harness.predict_batch(self.model, self.one).tobytes()

    def flop_check(self, tracer):
        mark = tracer.mark()
        harness.predict_batch(self.model, self.one)
        return tracer.op_flops_since(mark), model.count_flops(self.mcfg)


class TrainMicro(ModelWorkload):
    """README micro config: train, checkpoint, predict the held-out set, eval."""

    name = "train-micro"
    job_reps = 9
    n_train = 24  # a multiple of the batch, so every step sees a full batch
    n_heldout = 16
    epochs = 2

    def __init__(self, work, seed, clock):
        super().__init__(work, seed, clock)
        self.cfg = TrainConfig(
            model=ModelConfig(t_in=2, t_out=2, height=16, width=16, latent_c=6, n_s=2, n_t=2,
                              kernels=(9, 15, 31)),
            epochs=self.epochs, lr=0.002, batch=8, seed=seed,
        )
        self.mcfg = self.cfg.model
        self.ckpt = work / "micro.pfgc"
        self.heldout_path = work / "heldout.pfgt"
        self.model = None

    def config(self):
        return {"model": serialize_config(self.cfg).splitlines(), "train_sequences": self.n_train,
                "heldout_sequences": self.n_heldout, "frames": 4}

    def setup(self):
        seqs = data.gen_bouncing(self.seed, self.n_train + self.n_heldout, 4, 16, 16)
        self.train_data = seqs[: self.n_train]
        self.heldout = seqs[self.n_train :]
        self.one = self.heldout[:1]
        container.save_tensor(self.work / "train.pfgt", self.train_data)
        container.save_tensor(self.heldout_path, self.heldout)

    def step(self, rec):
        with rec.op("train"):
            (trained, history), seconds = self.clock.timed(harness.train, self.cfg,
                                                           self.train_data)
            losses = [h.loss for h in history]
            expect(all(math.isfinite(x) for x in losses), f"non-finite loss {losses}")
            expect(losses[-1] < losses[0], f"loss did not fall: {losses}")
            rec.add_work(self.n_train * self.epochs, seconds, self.clock)
            self.model = trained
        with rec.op("checkpoint"):
            harness.save_model(self.ckpt, self.cfg, self.model)
            text, tensors = container.load_checkpoint(self.ckpt)
            expect(text == serialize_config(self.cfg), "config text changed in the checkpoint")
            saved = dict(self.model.store.items())
            expect(list(tensors) == list(saved), "checkpoint entry names changed")
            expect(all(tensors[k].dtype == v.dtype and tensors[k].tobytes() == v.tobytes()
                       for k, v in saved.items()), "checkpoint did not round-trip bitwise")
        first = None
        for i in range(self.n_heldout):
            with rec.op("predict"):
                preds, seconds = self.clock.timed(harness.predict_batch, self.model,
                                                  self.heldout[i : i + 1])
                check_predictions(preds, (1, 2, 1, 16, 16))
                rec.add_latency(seconds, self.clock)
                first = preds if i == 0 else first
        with rec.op("repeat predict"):
            again = harness.predict_batch(self.model, self.one)
            expect(first is not None and again.tobytes() == first.tobytes(),
                   "repeated eval-mode predict is not bitwise identical")

    def job(self):
        return eval_job(self.clock, self.ckpt, self.heldout_path, self.work / "metrics.csv")



class PredictKth(ModelWorkload):
    """Paper-scale eval shape: one-sequence predictions plus one eval."""

    name = "predict-kth"
    probe_kind = "large"
    setup_reps = 3
    pool = 3  # sequences cycled through by the timed loop
    n_eval = 1
    job_reps = 3
    model_seed = 7  # fixed, so the stored reference summary applies to every run
    reference_file = HERE / "reference_kth.json"

    def __init__(self, work, seed, clock):
        super().__init__(work, seed, clock)
        self.mcfg = ModelConfig(t_in=10, t_out=10, height=128, width=128, latent_c=6, n_s=2,
                                n_t=2, kernels=(9, 15, 31))
        self.ckpt = work / "kth.pfgc"
        self.eval_path = work / "kth_eval.pfgt"
        self.next = 0

    def config(self):
        cfg = TrainConfig(model=self.mcfg, seed=self.model_seed)
        return {"model": serialize_config(cfg).splitlines(), "pool_sequences": self.pool,
                "eval_sequences": self.n_eval, "frames": 20}

    def setup(self):
        seqs = data.gen_bouncing(self.seed, self.pool, 20, 128, 128)
        container.save_tensor(self.eval_path, seqs[: self.n_eval])
        built = model.Model.build(self.mcfg, seed=self.model_seed)
        harness.save_model(self.ckpt, TrainConfig(model=self.mcfg, seed=self.model_seed), built)
        _, self.model = harness.load_model(self.ckpt)
        self.inputs = seqs[:, :10]
        self.one = self.inputs[:1]

    def step(self, rec):
        with rec.op("predict"):
            seq = self.inputs[self.next % self.pool][None]
            self.next += 1
            preds, seconds = self.clock.timed(harness.predict_batch, self.model, seq)
            check_predictions(preds, (1, 10, 1, 128, 128))
            rec.add_latency(seconds, self.clock)
            rec.add_work(1, seconds, self.clock)

    def job(self):
        return eval_job(self.clock, self.ckpt, self.eval_path, self.work / "kth_metrics.csv")

    def final_checks(self, rec):
        with rec.op("reference"):
            ref = json.loads(self.reference_file.read_text())
            preds = harness.predict_batch(self.model, reference_input())
            check_predictions(preds, (1, 10, 1, 128, 128))
            got = prediction_summary(preds)
            for key, want in ref["summary"].items():
                diff = float(np.max(np.abs(np.asarray(got[key]) - np.asarray(want))))
                expect(diff <= ref["tolerance"], f"reference {key} differs by {diff:.3g}")



def reference_input() -> np.ndarray:
    """The fixed input behind reference_kth.json: [1, 10, 1, 128, 128]."""
    return data.gen_bouncing(0, 1, 10, 128, 128)


def prediction_summary(preds: np.ndarray) -> dict[str, list[float]]:
    """Per-frame mean and standard deviation, plus a 16x16-pooled last frame."""
    frames = preds[0, :, 0].astype(np.float64)
    pooled = frames[-1].reshape(16, 8, 16, 8).mean(axis=(1, 3))
    return {
        "frame_mean": frames.mean(axis=(1, 2)).tolist(),
        "frame_std": frames.std(axis=(1, 2)).tolist(),
        "last_frame_pooled": pooled.ravel().tolist(),
    }


# ---------------------------------------------------------------------------
# Spectral-analysis workloads
# ---------------------------------------------------------------------------

README_RING = (["analyze", "ring", "--hl", "gauss:0.5,gain=0.5", "--hs", "exp:1.5",
                "--beta", "0.75"], "ring 0.353723718 1.146276282")


class Analyze(Workload):
    """A fixed cycle of ``perigate analyze`` queries through ``cli.main``."""

    job_reps = 3
    samples = 1024  # the CLI default

    def __init__(self, work, seed, clock):
        super().__init__(work, seed, clock)
        self.next = 0

    def config(self):
        queries = [" ".join(q).replace(f"{self.work}/", "") for q, _ in self.queries]
        return {"queries": queries, "samples": self.samples}

    def step(self, rec):
        query, expected = self.queries[self.next % len(self.queries)]
        self.next += 1
        with rec.op("analyze " + query[1]):
            (code, text), seconds = self.clock.timed(run_cli, query)
            check_query(query, expected, code, text)
            rec.add_latency(seconds, self.clock)
            rec.add_work(1, seconds, self.clock)

    def job(self):
        """The whole cycle once, every result also written as CSV.

        Each query is timed on its own, so probes bracket every one of them.
        """
        seconds = 0.0
        for i, (query, expected) in enumerate(self.queries):
            out_csv = self.work / f"query{i}.csv"
            (code, text), t = self.clock.timed(run_cli, query + ["--out-csv", out_csv])
            seconds += t
            check_query(query, expected, code, text)
            with open(out_csv) as fh:
                rows = sum(1 for _ in fh)
            expect(rows == self.samples + 1, f"{out_csv.name} has {rows} lines")
        return seconds

    def fingerprint(self):
        return "".join(run_cli(q)[1] for q, _ in self.queries).encode()

    def _u(self, lo, hi) -> str:
        return f"{self.rng.uniform(lo, hi):.4f}"


def check_query(query, expected, code, text):
    expect(code == 0, f"{' '.join(query)} exited {code}")
    first = text.splitlines()[0] if text else ""
    if expected is not None:
        expect(first == expected, f"{' '.join(query)} printed {first!r}, want {expected!r}")
    kind = query[1]
    if kind == "ring":
        expect(first == "none" or first.startswith("ring "), f"ring printed {first!r}")
    elif kind == "snr-sweep":
        expect(first.startswith("snr range ["), f"snr-sweep printed {first!r}")
    else:
        expect("grid_ok true" in text.splitlines(), f"beta-star printed {text!r}")


def _profile(rng, k: int, width: float) -> np.ndarray:
    x = np.arange(k) - (k - 1) / 2
    row = np.exp(-0.5 * (x / width) ** 2) + 0.02 * rng.standard_normal(k)
    return row / row.sum()


class AnalyzeSpectra(Analyze):
    """Queries on kernel-file spectra: a k=31 surround against a 3, 9 or 15 center."""

    name = "analyze-spectra"
    probe_kind = "spectral"
    job_reps = 3  # each cycle holds nine kernel queries

    def setup(self):
        rng = np.random.default_rng([self.seed, 0xCE7])
        surround = self.work / "surround_k31.pfgt"
        container.save_tensor(surround, np.stack([_profile(rng, 31, rng.uniform(4, 8)),
                                                  _profile(rng, 31, rng.uniform(4, 8))]))
        centers = {}
        for k, two_rows in ((3, False), (9, True), (15, False)):
            path = self.work / f"center_k{k}.pfgt"
            gain = rng.uniform(1.5, 2.5)
            rows = [gain * _profile(rng, k, rng.uniform(0.5, 1.5)) for _ in range(1 + two_rows)]
            container.save_tensor(path, np.stack(rows) if two_rows else rows[0])
            centers[k] = path
        self.rng = np.random.default_rng([self.seed, 0x5EC])
        # a Latin square over (kind, center size): any run of queries stays balanced
        order = [("ring", 3), ("snr-sweep", 9), ("beta-star", 15),
                 ("snr-sweep", 3), ("beta-star", 9), ("ring", 15),
                 ("beta-star", 3), ("ring", 9), ("snr-sweep", 15)]
        self.queries = []
        for kind, k in order:
            q = ["analyze", kind, "--hl", f"kernel:{surround}", "--hs", f"kernel:{centers[k]}"]
            if kind == "ring":
                q += ["--beta", self._u(0.3, 0.9)]
            else:
                q += ["--ps", f"band:{self._u(0.2, 0.8)},{self._u(1.8, 2.8)}",
                      "--sigma2", self._u(0.5, 2.0)]
            self.queries.append((q, None))


class AnalyzeAnalytic(Analyze):
    """Closed-form ``exp:``/``gauss:`` queries only; no kernel file is read."""

    name = "analyze-analytic"
    job_reps = 5

    def setup(self):
        self.rng = np.random.default_rng([self.seed, 0x5EC])
        u = self._u
        sweep_readme = ["--hl", "exp:0.6", "--hs", "gauss:2.5", "--ps", "band:0.5,2.5",
                        "--sigma2", "1"]

        def seeded_pair():
            return ["--hl", f"exp:{u(0.4, 0.9)}", "--hs", f"gauss:{u(1.5, 3.5)}",
                    "--ps", f"band:{u(0.2, 0.8)},{u(1.8, 2.8)}", "--sigma2", u(0.5, 2.0)]

        def seeded_ring():
            return (["analyze", "ring", "--hl", f"gauss:{u(0.3, 0.8)},gain={u(0.3, 0.7)}",
                     "--hs", f"exp:{u(1.0, 2.0)}", "--beta", u(0.6, 0.9)], None)

        self.queries = [
            README_RING,
            (["analyze", "snr-sweep"] + sweep_readme, None),
            (["analyze", "beta-star"] + sweep_readme, None),
            seeded_ring(),
            (["analyze", "snr-sweep"] + seeded_pair(), None),
            (["analyze", "beta-star", "--coeffs", "2,1,1,1,0,1"], None),
            seeded_ring(),
            (["analyze", "snr-sweep"] + seeded_pair(), None),
            (["analyze", "beta-star"] + seeded_pair(), None),
            seeded_ring(),
            (["analyze", "snr-sweep"] + seeded_pair(), None),
            (["analyze", "beta-star"] + seeded_pair(), None),
        ]


WORKLOADS = {w.name: w for w in (TrainMicro, PredictKth, AnalyzeSpectra, AnalyzeAnalytic)}
