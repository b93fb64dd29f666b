"""Timing in units of a fixed probe, which takes out the machine's speed drift.

On a shared machine the speed of one core drifts by 20-50% over seconds to
minutes as neighbours load the host; CPU time drifts with it. The same
stretch of fixed numpy and Python work (the probe) slows by about the same
factor. So every timed call is bracketed by probes, and its duration is
reported as

    seconds * reference / mean(probe before, probe after)

that is, the time the call would have taken at the speed where the probe
takes its reference time. The probe never calls perigate, so a change to
perigate moves the timed call and not the probe. Each workload picks the
probe that does the kind of work its own hot path does (see PROBES). A
probe whose sensitivity to the drift differs from its workload's over- or
under-corrects, which leaves part of the drift in the figures; both sides
of a comparison are timed the same way. A change that slows the probes
themselves (say, by leaving threads running after a call) would read as a
speed-up; run.py fails a run whose loop probes move too far from the probes
taken around the loop, and reports the raw wall figures beside the scaled ones.
"""

from __future__ import annotations

import mmap
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# A probe older than this no longer describes the machine's current speed.
PROBE_MAX_AGE_S = 0.5

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((6, 16, 16)).astype(np.float32)
_SMALL_K = _rng.standard_normal((6, 3, 3)).astype(np.float32)
_MID = _rng.standard_normal((6, 64, 64)).astype(np.float32)
_MID_K = _rng.standard_normal((6, 6, 3, 3)).astype(np.float32)
_R = np.linspace(0.0, 3.0, 4096)
_LARGE = _rng.standard_normal((6, 128, 128))
_LARGE_K = _rng.standard_normal((6, 3, 3))
_LARGE_W = _rng.standard_normal((24, 6))
_FREQ = _rng.uniform(0.0, 3.0, (128, 32, 1))
_OFFSETS = np.arange(9) - 4.0
_TAPS = _rng.standard_normal(9)
_FRESH_BYTES = 1 << 20
_GRID = _rng.uniform(0.0, 3.0, (256, 64, 1))


def _window3(x):
    return sliding_window_view(np.pad(x, ((0, 0), (1, 1), (1, 1))), (3, 3), axis=(1, 2))


def probe_small():
    """Small arrays, where Python and per-call overhead dominate."""
    x = _SMALL
    for _ in range(8):
        y = np.einsum("chwuv,cuv->chw", _window3(x), _SMALL_K)
        y = (y - y.mean()) / np.sqrt(y.var() + 1e-5)
        x = np.where(y > 0, y, 0.2 * y)
    np.einsum("ihwuv,oiuv->ohw", _window3(_MID)[:, ::2, ::2], _MID_K)
    np.exp(-1j * _R).real.sum()
    acc = 0.0
    for i in range(1000):
        acc += i * 0.5
    return acc


def probe_large():
    """Arrays of about a megabyte, where arithmetic, cache traffic and page faults dominate."""
    y = np.einsum("chwuv,cuv->chw", _window3(_LARGE), _LARGE_K)
    z = np.einsum("oc,chw->ohw", _LARGE_W, y)
    e = np.exp(-1j * _FREQ * _OFFSETS) @ _TAPS
    # fresh pages, as the multi-megabyte temporaries of large numpy calls get
    with mmap.mmap(-1, _FRESH_BYTES) as buf:
        np.frombuffer(buf, dtype=np.float64).fill(1.0)
    return z.sum() + e.real.sum()


def probe_spectral():
    """Complex exponentials over a frequency grid, reduced by a matrix product."""
    return (np.exp(-1j * _GRID * _OFFSETS) @ _TAPS).real.sum()


# probe kind -> (probe, runs per reading, reading's typical seconds on the
# 2-core x86_64 machine the benchmark was written on). A reading is the
# fastest of its runs: noise only ever adds time. The large probe's single
# runs scatter too much to read once.
PROBES = {"small": (probe_small, 1, 0.004), "large": (probe_large, 3, 0.005),
          "spectral": (probe_spectral, 3, 0.005)}


class Clock:
    """Times calls in reference seconds; keeps wall-clock totals for comparison."""

    def __init__(self, kind: str):
        self.kind = kind
        self._work, self._runs, self.ref_s = PROBES[kind]
        self.probes: list[float] = []
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.last_wall = 0.0  # wall seconds of the latest timed call
        self._last = (0.0, 0.0)  # (when, seconds) of the latest probe

    def probe(self) -> float:
        """Read the machine's current speed: seconds of the fastest probe run."""
        best = float("inf")
        for _ in range(self._runs):
            t0 = time.perf_counter()
            self._work()
            t1 = time.perf_counter()
            best = min(best, t1 - t0)
        self.probes.append(best)
        self._last = (t1, best)
        return best

    def timed(self, fn, *args):
        """Call ``fn(*args)``; return (result, duration in reference seconds)."""
        when, before = self._last
        if time.perf_counter() - when > PROBE_MAX_AGE_S:
            before = self.probe()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = self.probe()
        scaled = wall * self.ref_s / ((before + after) / 2)
        self.last_wall = wall
        self.wall_s += wall
        self.scaled_s += scaled
        return result, scaled
