"""Run one benchmark workload against the perigate sources of this checkout.

    python3 perfbench/run.py --workload train-micro --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` gives the per-layer metrics: it runs the workload untraced,
then again with the tracer's wrappers installed, and compares the two.
The metric names and units come from BENCHMARK.json at the checkout root.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; must not exceed the core count (checked below).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import Clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# The loop's median probe may differ from the probes taken around the loop
# by at most this factor either way; beyond it the reference times are not
# trusted. Natural drift on a shared 2-vCPU host moved it by up to 1.34x.
PROBE_SHIFT_MAX = 2.0
BASELINE_PROBES = 25  # probes taken just before, and again just after, the loop


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    Nearest rank: the sample at 1-based rank i of n is the 100*i/n-th
    percentile, with n - i samples beyond it. With fewer than 11 samples no
    rank qualifies; the maximum is returned, at percentile 100. With 11 to 20
    samples the rank falls below the median: such a run has no measurable
    tail, and the printed percentile says so.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def cold_start():
    """A fresh interpreter importing the CLI, as each ``perigate`` command does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import perigate.cli"], env=env, cwd=ROOT, check=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def settle():
    """Move everything set-up made out of the garbage collector's view.

    A one-shot ``perigate`` process never runs a full collection over a heap
    that has served thousands of requests; without this, such collections
    land on a few random samples and decide the tail.
    """
    gc.collect()
    gc.freeze()


def measure(workload, rec, seconds: float) -> tuple[int, float]:
    """Closed loop: one step after another until ``seconds`` have passed; at least one.

    Returns the steps taken and the median probe of the loop over the mean
    of the median probes taken just before and just after it. The loop's
    probes follow perigate calls; a change that leaves work behind (threads,
    freed pages) slows them and would be credited as a speed-up, so a shift
    beyond PROBE_SHIFT_MAX fails the run.
    """
    settle()
    clock = workload.clock
    before = statistics.median(clock.probe() for _ in range(BASELINE_PROBES))
    first = len(clock.probes)
    steps = 0
    t_end = time.perf_counter() + seconds
    while steps == 0 or time.perf_counter() < t_end:
        workload.step(rec)
        steps += 1
    loop = clock.probes[first:]
    after = statistics.median(clock.probe() for _ in range(BASELINE_PROBES))
    ratio = statistics.median(loop) / ((before + after) / 2)
    with rec.op("probe steady over the loop"):
        if not 1 / PROBE_SHIFT_MAX <= ratio <= PROBE_SHIFT_MAX:
            raise RuntimeError(f"loop probes read {ratio:.3f} x the probes around the loop")
    return steps, ratio


def wall_figures(rec, job_wall_s) -> dict[str, float]:
    """The loop's figures in raw wall time, next to the reference-time ones."""
    return {
        "wall.throughput_per_s": rec.work / rec.work_wall_s if rec.work_wall_s else 0.0,
        "wall.latency_ms_p50": statistics.median(rec.wall_latency_ms or [0.0]),
        "wall.job_s": statistics.median(job_wall_s) if job_wall_s else 0.0,
        "clock.loop_probe_ratio": rec.probe_ratio,
    }


def timed_job(wl, rec, reps: int) -> tuple[list[float], list[float]]:
    """``reps`` jobs: their reference seconds and wall seconds."""
    ref_s, wall_s = [], []
    for _ in range(reps):
        wall0 = wl.clock.wall_s
        with rec.op("job"):
            ref_s.append(wl.job())
            wall_s.append(wl.clock.wall_s - wall0)
    return ref_s, wall_s


def run_untraced(cls, work: Path, seed: int, seconds: float, rec):
    clock = Clock(cls.probe_kind)
    wl = cls(work, seed, clock)
    setup_s = [clock.timed(cold_start)[1] + clock.timed(wl.setup)[1]
               for _ in range(wl.setup_reps)]
    _, rec.probe_ratio = measure(wl, rec, seconds)
    job_s, job_wall_s = timed_job(wl, rec, wl.job_reps)
    wl.final_checks(rec)
    lat = rec.latency_ms or [0.0]
    tail_ms, pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": rec.work / rec.work_s if rec.work_s else 0.0,
        "latency_ms_p50": statistics.median(lat),
        "latency_ms_tail": tail_ms,
        "job_s": statistics.median(job_s) if job_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [f"latency_ms_tail is p{pct:.1f} of {len(lat)} samples ({beyond} beyond it)",
             f"setup_s is the median of {len(setup_s)} set-ups; job_s of {len(job_s)} jobs",
             f"times are in reference seconds ({clock.kind} probe = {clock.ref_s * 1e3:g} ms); "
             f"wall time was {clock.wall_s / clock.scaled_s:.3f} x reference, probe median "
             f"{statistics.median(clock.probes) * 1e3:.3f} ms over {len(clock.probes)} probes",
             "raw wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in
                                           wall_figures(rec, job_wall_s).items())]
    return wl, metrics, notes


def run_traced(cls, work: Path, seed: int, seconds: float, rec):
    """Untraced then traced copies of the same work; per-layer figures from the second."""
    import tracing

    plain = cls(work / "untraced", seed, Clock(cls.probe_kind))
    plain.work.mkdir()
    plain.setup()
    steps, rec.probe_ratio = measure(plain, rec, seconds / 2)
    untraced_s = plain.clock.scaled_s
    _, job_wall_s = timed_job(plain, rec, 1)
    wall = wall_figures(rec, job_wall_s)
    plain_fingerprint = plain.fingerprint()

    traced = cls(work / "traced", seed, Clock(cls.probe_kind))
    traced.work.mkdir()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced.setup()
        settle()
        for _ in range(steps):
            traced.step(rec)
        traced_s = traced.clock.scaled_s
        with rec.op("job"):
            traced.job()
        traced.final_checks(rec)
        traced_fingerprint = traced.fingerprint()
        flops = traced.flop_check(tracer)
    finally:
        not_restored = tracer.restore()
    with rec.op("restore wrapped attributes"):
        if not_restored:
            raise RuntimeError(f"still wrapped after the traced run: {not_restored}")
    with rec.op("traced output equals untraced output"):
        if traced_fingerprint != plain_fingerprint:
            raise RuntimeError("traced and untraced outputs differ")

    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics.update(wall)
    notes = [f"{len(tracer.spans)} spans; the timed calls of {steps} steps took "
             f"{untraced_s:.3f} s untraced and {traced_s:.3f} s traced (reference seconds)",
             "wall.* and clock.loop_probe_ratio come from the untraced steps and one "
             "untraced job"]
    metrics["flops.op_sum_abs_diff"] = 0.0
    if flops is not None:
        per_kind, analytic = flops
        diff = sum(per_kind.values()) - analytic
        metrics["flops.op_sum_abs_diff"] = float(abs(diff))
        notes.append(f"FLOP cross-check, one eval forward: op wrappers {sum(per_kind.values())} "
                     f"{per_kind}, count_flops {analytic}, difference {diff}")
    spans_csv = OUT / f"spans-{cls.name}-seed{seed}.csv"
    tracer.write_csv(spans_csv)
    notes.append(f"spans written to {spans_csv.relative_to(ROOT)}")
    return traced, metrics, notes


def environment(wl, args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "machine": platform.machine(),
        "workload": args.workload,
        "config": wl.config(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "perigate" / "__init__.py").is_file():
        print(f"error: no perigate sources under {SRC}", file=sys.stderr)
        return 2
    if BLAS_THREADS > (os.cpu_count() or 1):
        print(f"error: {BLAS_THREADS} BLAS threads exceed the core count", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import perigate

    if Path(perigate.__file__).resolve().parent != SRC / "perigate":
        print(f"error: imported perigate from {perigate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Recorder

    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    rec = Recorder()
    try:
        run = run_traced if args.trace else run_untraced
        wl, values, notes = run(cls, work, args.seed, args.seconds, rec)
    finally:
        shutil.rmtree(work)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(wanted):
        print(f"error: computed {sorted(set(values) ^ set(wanted))} disagree with "
              f"BENCHMARK.json {section}", file=sys.stderr)
        return 2
    for error in rec.errors:
        print(f"failed: {error}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, unit in wanted.items():
        print(f"  {name:<40} {values[name]:>16.6f} {unit}")
    print(f"  {'fail_ratio':<40} {rec.failed / max(rec.attempted, 1):>16.6f} "
          f"({rec.failed} of {rec.attempted} operations)")
    for note in notes:
        print("  " + note)
    print("env " + json.dumps(environment(wl, args), sort_keys=True))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
