"""Write reference_kth.json, the summary the predict-kth workload checks against.

    python3 perfbench/make_reference.py

Run it only when a change to perigate is meant to change predictions beyond
the stored tolerance, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run

sys.path.insert(0, str(run.SRC))

from perigate import harness  # noqa: E402
from workloads import PredictKth, prediction_summary, reference_input  # noqa: E402

# The summary values are O(0.1-1). Making the descriptor's constants float32,
# so the float32 model computes in float32 throughout, moved them by < 1e-7.
TOLERANCE = 1e-4


def main():
    run.OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=run.OUT)
    try:
        wl = PredictKth(run.Path(work), seed=0, clock=run.Clock(PredictKth.probe_kind))
        wl.setup()
        preds = harness.predict_batch(wl.model, reference_input())
    finally:
        shutil.rmtree(work)
    doc = {
        "what": "eval-mode predictions of the predict-kth model (model seed "
                f"{PredictKth.model_seed}) on gen_bouncing(0, 1, 10, 128, 128)",
        "tolerance": TOLERANCE,
        "summary": prediction_summary(preds),
    }
    PredictKth.reference_file.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {PredictKth.reference_file}")


if __name__ == "__main__":
    main()
