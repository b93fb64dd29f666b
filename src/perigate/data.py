"""Synthetic bouncing-square sequence generator.

Sequences hold axis-aligned bright squares moving with constant integer
velocity and reflecting exactly off the frame edges (position folding), a
deterministic desk-scale stand-in for moving-object benchmarks. Every draw
comes from a counter-based stream keyed by (seed, sequence), so files are
byte-identical across platforms and runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .rng import DATA, stream

VELOCITIES = (-2, -1, 1, 2)


def fold_position(p: int, limit: int) -> int:
    """Reflect an unconstrained coordinate into [0, limit]."""
    period = 2 * limit
    m = p % period
    return m if m <= limit else period - m


def gen_bouncing(
    seed: int,
    num_sequences: int,
    frames: int,
    height: int,
    width: int,
    num_objects: int = 2,
) -> np.ndarray:
    """Generate [N, T, 1, H, W] float32 sequences of bouncing unit squares.

    Squares have side height // 8, intensity 1.0 on a 0.0 background, and
    overlaps add then clamp at 1.
    """
    if num_sequences < 1 or frames < 1 or num_objects < 1:
        raise ConfigurationError("counts must be >= 1")
    side = height // 8
    if side < 1:
        raise ConfigurationError(f"height {height} too small for a visible square")
    if side >= width:  # side = height // 8 is always below height
        raise ConfigurationError(f"square side {side} must be smaller than {height}x{width}")
    limit_y = height - side
    limit_x = width - side
    out = np.zeros((num_sequences, frames, 1, height, width), dtype=np.float32)
    for i in range(num_sequences):
        gen = stream(seed, DATA, i)
        objects = []
        for _ in range(num_objects):
            y0 = int(gen.integers(0, limit_y + 1))
            x0 = int(gen.integers(0, limit_x + 1))
            vy = int(VELOCITIES[gen.integers(0, len(VELOCITIES))])
            vx = int(VELOCITIES[gen.integers(0, len(VELOCITIES))])
            objects.append((y0, x0, vy, vx))
        for t in range(frames):
            frame = out[i, t, 0]
            for y0, x0, vy, vx in objects:
                y = fold_position(y0 + vy * t, limit_y)
                x = fold_position(x0 + vx * t, limit_x)
                frame[y : y + side, x : x + side] += 1.0
            np.clip(frame, 0.0, 1.0, out=frame)
    return out
