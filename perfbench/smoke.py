"""Smoke run: every workload at its smallest size, untraced and traced.

    python3 perfbench/smoke.py

``--seconds 1`` makes each closed loop a single step. Every run must exit 0,
print every metric BENCHMARK.json names, and report no failed operation.
"""

from __future__ import annotations

import json
import sys

from spread import ROOT, run_once


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            res = run_once(workload, seed=0, seconds=1, trace=trace)
            names = {m["name"] for m in spec[section]}
            ok = res["correct"] and res["failed"] == 0 and set(res["metrics"]) == names
            bad += not ok
            print(f"{workload} trace {trace}: {'ok' if ok else 'FAILED'} "
                  f"({res['failed']} of {res['attempted']} operations failed)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
