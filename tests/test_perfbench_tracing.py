"""The benchmark's tracer must find every name it wraps, and unwrap them all."""

import importlib.util
from pathlib import Path

from perigate import block, harness

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
