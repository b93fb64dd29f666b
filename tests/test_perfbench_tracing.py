"""The benchmark's tracer must find every name it wraps, and unwrap them all."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from perigate import block, harness
from perigate.config import TrainConfig

from helpers import micro_config

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_install_then_restore_leaves_nothing_wrapped():
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises KeyError when a traced name no longer exists
        for fn in (harness.backward, block.uniform_gate, block.center_suppress, block.fuse):
            assert getattr(fn, "perfbench_wrapper", False)
    finally:
        leftover = tracer.restore()
    assert leftover == []
    assert not hasattr(block.fuse, "perfbench_wrapper")


def test_train_step_and_predict_reach_every_layer_span():
    cfg = TrainConfig(model=micro_config(kernels=(3, 9)), epochs=1, batch=2)
    data = np.random.default_rng(0).random((2, 4, 1, 8, 8)).astype(np.float32)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        model, _ = harness.train(cfg, data)  # one minibatch: one step
        model.predict([data[0, t] for t in range(cfg.model.t_in)])
    finally:
        assert tracer.restore() == []
    metrics = tracing.layer_metrics(tracer)
    for name in ("block.gate_ms", "block.peripheral.k9_ms", "block.center_ms", "block.fuse_ms",
                 "block.glu_ms", "model.encoder_ms_per_seq", "autodiff.tape_nodes_per_seq"):
        assert metrics[name] > 0, name
    # every block forward calls each wrapped block function: the gate, per configured
    # scale the peripheral response, suppression_coefficient and center_suppress (both
    # block.center spans), then fuse and the GLU
    kernels = cfg.model.kernels
    want = {"block.gate": 1, "block.center": 2 * len(kernels), "block.fuse": 1, "block.glu": 1}
    want.update({f"block.peripheral.k{k}": 1 for k in kernels})
    forwards = [i for i, span in enumerate(tracer.spans) if span[0] == "block.forward"]
    assert len(forwards) == 2 * cfg.model.n_t  # in the training step and in the prediction
    for i in forwards:
        children = Counter(span[0] for span in tracer.spans
                           if span[1] == i and span[0].startswith("block."))
        assert children == want
