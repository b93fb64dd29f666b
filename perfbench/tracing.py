"""Spans and counts recorded from outside perigate.

The tracer replaces public functions of perigate's modules (and a few
methods of its classes) with thin wrappers that record a span per call:
name, parent span, per-sequence or per-query id, start and end. The wrappers
are installed only for a traced run and removed afterwards; nothing under
``src/`` knows about them.

Op wrappers sit on the traced op vocabulary of ``perigate.autodiff``. Only
the outermost op call records a span (``sep_conv`` calls two 1-D passes,
``pack_time`` calls ``concat_channels``), so op self time is the whole op
and FLOPs are not counted twice.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from perigate import autodiff, block, cli, container, data, descriptor, harness
from perigate import metrics, model, multiscale, spectral

# autodiff.__all__ entries that are not ops of the forward vocabulary
_NOT_OPS = {"Var", "Tape", "ParamStore", "tape_active", "forward_traced", "backward",
            "grad_check"}
OP_NAMES = [name for name in autodiff.__all__ if name not in _NOT_OPS]

OP_KINDS = ("conv2d", "pwconv", "sep_conv", "dwconv_2d", "avg_pool3", "group_norm", "grn",
            "other")
CONV_KINDS = ("conv2d", "pwconv", "sep_conv", "dwconv_2d", "avg_pool3")


def _value(x):
    return x.value if isinstance(x, autodiff.Var) else np.asarray(x)


def op_flops(name: str, args, out) -> int:
    """2 x multiply-adds of a convolution call, from argument and output shapes.

    Uses the same convention as ``perigate.model.count_flops``; bias adds are
    not counted. Non-convolution ops count 0.
    """
    if name == "conv2d":
        co, ci, kh, kw = _value(args[1]).shape
        return 2 * ci * kh * kw * _value(out).size
    if name == "pwconv":
        return 2 * _value(args[1]).shape[1] * _value(out).size
    if name == "sep_conv":
        k_h, k_v = _value(args[1]).shape[-1], _value(args[2]).shape[-1]
        return 2 * (k_h + k_v) * _value(out).size
    if name == "dwconv_2d":
        kh, kw = _value(args[1]).shape[-2:]
        return 2 * kh * kw * _value(out).size
    if name == "avg_pool3":
        return 2 * 9 * _value(out).size
    return 0


def _outputs(out):
    return out if isinstance(out, (list, tuple)) else (out,)


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    A span is ``[name, parent, unit, t0_ns, t1_ns, info]``; ``unit`` is the
    id of the sequence (one ``Model.predict`` call) or query (one
    ``cli.main`` call) that was current when the span opened.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._unit = -1
        self._in_op = False
        self._patches: list[tuple[object, str, object]] = []
        self._owners: dict[int, object] = {}  # every module or class ever patched

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, new_unit: bool = False) -> int:
        if new_unit:
            self._unit += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._unit, time.perf_counter_ns(), 0, None])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.spans[sid][4] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrappers -------------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper):
        original = vars(owner)[attr]
        wrapper = functools.wraps(original)(make_wrapper(original))
        wrapper.perfbench_wrapper = True
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self._owners[id(owner)] = owner

    def _span_wrapper(self, name, info=None, new_unit=False):
        """Wrapper factory: one span per call; ``name`` may be a function of args."""

        def make(original):
            def wrapper(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                sid = self._open(label, new_unit)
                try:
                    out = original(*args, **kwargs)
                finally:
                    self._close(sid)
                if info is not None:
                    self.spans[sid][5] = info(args, kwargs, out)
                return out

            return wrapper

        return make

    def _op_wrapper(self, op_name: str):
        kind = op_name if op_name in OP_KINDS else "other"

        def make(original):
            def wrapper(*args, **kwargs):
                if self._in_op:
                    return original(*args, **kwargs)
                self._in_op = True
                sid = self._open("op." + kind)
                try:
                    out = original(*args, **kwargs)
                finally:
                    self._close(sid)
                    self._in_op = False
                f64 = sum(_value(o).dtype == np.float64 for o in _outputs(out))
                self.spans[sid][5] = (op_flops(op_name, args, out), f64)
                return out

            return wrapper

        return make

    def install(self):
        """Wrap every traced attribute; ``restore`` undoes it."""
        for op_name in OP_NAMES:
            self._patch(autodiff, op_name, self._op_wrapper(op_name))

        def tape_info(args, kwargs, out):
            nodes = args[0].nodes
            return (len(nodes), sum(n.value.nbytes for n in nodes))

        # harness imported ``backward`` by name, so its binding is the one train calls
        self._patch(harness, "backward", self._tape_wrapper(tape_info))
        self._patch(harness.Adam, "step", self._span_wrapper("harness.adam_step"))
        for fn in ("train", "predict_batch", "evaluate"):
            self._patch(harness, fn, self._span_wrapper("harness." + fn))

        def predict_mode(args, kwargs, out):
            return kwargs.get("mode", args[2] if len(args) > 2 else "eval")

        self._patch(model.Model, "predict",
                    self._span_wrapper("model.predict", predict_mode, new_unit=True))
        self._patch(model.Model, "encode_frame", self._span_wrapper("model.encoder"))
        self._patch(model.Model, "translate", self._span_wrapper("model.translator"))
        self._patch(model.Model, "decode_frame", self._span_wrapper("model.decoder"))
        self._patch(multiscale, "forward", self._span_wrapper("multiscale.forward"))
        self._patch(descriptor, "frequency_descriptor", self._span_wrapper("descriptor.forward"))

        self._patch(block, "forward", self._span_wrapper("block.forward"))
        for fn in ("gate_weights", "uniform_gate"):
            self._patch(block, fn, self._span_wrapper("block.gate"))
        self._patch(block, "peripheral_response",
                    self._span_wrapper(lambda a, kw: f"block.peripheral.k{a[2]}"))
        for fn in ("suppression_coefficient", "center_suppress"):
            self._patch(block, fn, self._span_wrapper("block.center"))
        self._patch(block, "fuse", self._span_wrapper("block.fuse"))
        self._patch(block, "channel_mix_glu", self._span_wrapper("block.glu"))

        for fn in ("ssim", "psnr", "mse", "mae"):
            self._patch(metrics, fn, self._span_wrapper("metrics." + fn))

        def saved_ckpt_bytes(args, kwargs, out):
            return sum(np.asarray(t).nbytes for t in args[2].values())

        def loaded_ckpt_bytes(args, kwargs, out):
            return sum(t.nbytes for t in out[1].values())

        self._patch(container, "save_checkpoint",
                    self._span_wrapper("container.save_checkpoint", saved_ckpt_bytes))
        self._patch(container, "load_checkpoint",
                    self._span_wrapper("container.load_checkpoint", loaded_ckpt_bytes))
        self._patch(container, "save_tensor",
                    self._span_wrapper("container.save_tensor",
                                       lambda a, kw, out: np.asarray(a[1]).nbytes))
        self._patch(container, "load_tensor",
                    self._span_wrapper("container.load_tensor", lambda a, kw, out: out.nbytes))
        self._patch(data, "gen_bouncing", self._span_wrapper("data.gen_bouncing"))

        for fn in ("response_from_kernel", "response_from_function", "find_ring",
                   "quad_coeffs", "optimal_beta", "snr"):
            self._patch(spectral, fn, self._span_wrapper("spectral." + fn))
        self._patch(cli, "main", self._span_wrapper("cli.main", new_unit=True))

    def _tape_wrapper(self, info):
        # the tape is measured before backward runs; backward frees node adjoints
        def make(original):
            def wrapper(*args, **kwargs):
                measured = info(args, kwargs, None)
                sid = self._open("autodiff.backward")
                try:
                    return original(*args, **kwargs)
                finally:
                    self._close(sid)
                    self.spans[sid][5] = measured

            return wrapper

        return make

    def restore(self) -> list[str]:
        """Put every original back; return any attribute still wrapped afterwards."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return [f"{owner.__name__}.{attr}" for owner in self._owners.values()
                for attr, value in vars(owner).items() if hasattr(value, "perfbench_wrapper")]

    # -- queries --------------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def op_flops_since(self, mark: int) -> dict[str, int]:
        """Summed op FLOPs per kind over the spans recorded after ``mark``."""
        out = {kind: 0 for kind in CONV_KINDS}
        for name, _, _, _, _, info in self.spans[mark:]:
            if name.startswith("op.") and name[3:] in out:
                out[name[3:]] += info[0]
        return out

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,name,parent,unit,start_ns,end_ns\n")
            for i, (name, parent, unit, t0, t1, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{unit},{t0},{t1}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the recorded spans (0 where a layer did no work).

    Stage times (``model.*``, ``block.*``, ...) are inclusive span durations
    per sequence; ``ops.<kind>.self_ms`` and ``cli.self_ms`` are self times.
    """
    spans = tracer.spans
    dur = [(s[4] - s[3]) / 1e6 for s in spans]
    child_ms = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child_ms[s[1]] += dur[i]

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[0]
        # the block's own center conv is the dwconv_2d called straight from block.forward
        if name == "op.dwconv_2d" and s[1] >= 0 and spans[s[1]][0] == "block.forward":
            total["block.center"] = total.get("block.center", 0.0) + dur[i]
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1

    def per_call(name):
        return total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    predicts = [s for s in spans if s[0] == "model.predict"]
    n_seq = len(predicts)
    n_train = sum(1 for s in predicts if s[5] == "train")

    def per_seq(value):
        return value / n_seq if n_seq else 0.0

    out: dict[str, float] = {}
    steps = [s for s in spans if s[0] == "autodiff.backward"]
    out["autodiff.backward_ms_per_step"] = per_call("autodiff.backward")
    out["autodiff.tape_nodes_per_seq"] = (
        sum(s[5][0] for s in steps) / n_train if n_train else 0.0)
    out["autodiff.tape_mb_per_step"] = (
        sum(s[5][1] for s in steps) / 1e6 / len(steps) if steps else 0.0)
    out["harness.adam_step_ms"] = per_call("harness.adam_step")
    for stage in ("encoder", "translator", "decoder"):
        out[f"model.{stage}_ms_per_seq"] = per_seq(total.get(f"model.{stage}", 0.0))
    out["multiscale.forward_ms_per_seq"] = per_seq(total.get("multiscale.forward", 0.0))
    out["descriptor.forward_ms_per_seq"] = per_seq(total.get("descriptor.forward", 0.0))
    out["block.gate_ms"] = per_seq(total.get("block.gate", 0.0))
    for k in (9, 15, 31):
        out[f"block.peripheral.k{k}_ms"] = per_seq(total.get(f"block.peripheral.k{k}", 0.0))
    for part in ("center", "fuse", "glu"):
        out[f"block.{part}_ms"] = per_seq(total.get(f"block.{part}", 0.0))

    flops = {kind: 0 for kind in OP_KINDS}
    f64 = 0
    for s in spans:
        if s[0].startswith("op."):
            flops[s[0][3:]] += s[5][0]
            f64 += s[5][1]
    for kind in OP_KINDS:
        name = "op." + kind
        out[f"ops.{kind}.calls"] = per_seq(calls.get(name, 0))
        out[f"ops.{kind}.self_ms"] = per_seq(total.get(name, 0.0))
        if kind in CONV_KINDS:
            seconds = total.get(name, 0.0) / 1e3
            out[f"ops.{kind}.gflops_per_s"] = flops[kind] / seconds / 1e9 if seconds else 0.0
    out["ops.calls_per_seq"] = per_seq(sum(calls.get("op." + k, 0) for k in OP_KINDS))
    out["ops.f64_outputs_per_seq"] = per_seq(f64)

    for fn in ("ssim", "psnr", "mse", "mae"):
        out[f"metrics.{fn}_ms"] = per_call("metrics." + fn)
    out["container.save_checkpoint_ms"] = per_call("container.save_checkpoint")
    out["container.load_checkpoint_ms"] = per_call("container.load_checkpoint")
    for direction in ("save", "load"):
        name = f"container.{direction}_tensor"
        moved = sum(s[5] for s in spans if s[0] == name)
        seconds = total.get(name, 0.0) / 1e3
        out[f"container.{direction}_tensor_mb_per_s"] = moved / 1e6 / seconds if seconds else 0.0
    out["data.gen_bouncing_ms"] = per_call("data.gen_bouncing")
    for fn in ("response_from_kernel", "response_from_function", "find_ring", "quad_coeffs",
               "optimal_beta", "snr"):
        out[f"spectral.{fn}_ms"] = per_call("spectral." + fn)
    cli_self = [dur[i] - child_ms[i] for i, s in enumerate(spans) if s[0] == "cli.main"]
    out["cli.self_ms"] = sum(cli_self) / len(cli_self) if cli_self else 0.0
    return out
