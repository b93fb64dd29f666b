"""Run-to-run spread of the end-to-end metrics, as the acceptance check computes it.

    python3 perfbench/spread.py --workload predict-kth --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound and a third of it. ``--workload all`` runs every
workload in turn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds, trace: int) -> dict:
    """One run; ``seconds`` None means BENCHMARK.json's run_seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    if len(seeds(args.seeds)) < 2:
        parser.error("quartiles need at least two seeds")
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    worst = 0.0
    for workload in names:
        results = []
        for seed in seeds(args.seeds):
            res = run_once(workload, seed, None, 0)
            results.append(res)
            print(f"{workload} seed {seed}: correct {res['correct']} failed {res['failed']} "
                  f"of {res['attempted']}", flush=True)
        print(f"{workload}: {'metric':<20} {'median':>12} {'spread':>8} {'bound/3':>8}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  WIDE"
            if metric["name"] != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print(f"{workload}: {metric['name']:<20} {med:>12.6g} {spread:>8.4f} "
                  f"{metric['bound'] / 3:>8.4f}{flag}  " + " ".join(f"{v:.5g}" for v in values),
                  flush=True)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
