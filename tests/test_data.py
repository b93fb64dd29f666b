"""Bouncing-square generator: motion rules, determinism, shapes."""

import numpy as np
import pytest

from perigate.data import fold_position, gen_bouncing
from perigate.errors import ConfigurationError


class TestFolding:
    def test_free_motion(self):
        assert [fold_position(0 + 1 * t, 7) for t in range(4)] == [0, 1, 2, 3]

    def test_reflection_at_zero(self):
        # at the wall with velocity -1: next step moves to +1
        assert fold_position(0 - 1 * 1, 7) == 1
        assert fold_position(0 - 1 * 2, 7) == 2

    def test_reflection_at_upper_wall(self):
        limit = 5
        positions = [fold_position(4 + 2 * t, limit) for t in range(5)]
        assert positions == [4, 4, 2, 0, 2]  # 6 folds to 4, 8 folds to 2, ...

    def test_period(self):
        limit = 3
        seq = [fold_position(t, limit) for t in range(8)]
        assert seq == [0, 1, 2, 3, 2, 1, 0, 1]


class TestGenerator:
    def test_shape_and_range(self):
        data = gen_bouncing(seed=0, num_sequences=3, frames=5, height=16, width=16)
        assert data.shape == (3, 5, 1, 16, 16)
        assert data.dtype == np.float32
        assert data.min() == 0.0 and data.max() == 1.0

    def test_square_size(self):
        data = gen_bouncing(seed=1, num_sequences=1, frames=1, height=16, width=16,
                            num_objects=1)
        assert data[0, 0, 0].sum() == 4.0  # side 16 // 8 = 2

    def test_single_pixel_objects_at_min_size(self):
        data = gen_bouncing(seed=2, num_sequences=1, frames=3, height=8, width=8,
                            num_objects=1)
        assert np.all(data.sum(axis=(2, 3, 4)) == 1.0)

    def test_free_translation(self):
        # a single object away from walls moves by its integer velocity
        data = gen_bouncing(seed=3, num_sequences=4, frames=2, height=32, width=32,
                            num_objects=1)
        for i in range(4):
            y0, x0 = np.argwhere(data[i, 0, 0])[0]
            y1, x1 = np.argwhere(data[i, 1, 0])[0]
            if 4 <= y0 <= 24 and 4 <= x0 <= 24:
                assert abs(int(y1) - int(y0)) in (1, 2)
                assert abs(int(x1) - int(x0)) in (1, 2)

    def test_deterministic_across_calls(self):
        a = gen_bouncing(seed=7, num_sequences=4, frames=6, height=8, width=8)
        b = gen_bouncing(seed=7, num_sequences=4, frames=6, height=8, width=8)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_content(self):
        a = gen_bouncing(seed=7, num_sequences=4, frames=6, height=8, width=8)
        b = gen_bouncing(seed=8, num_sequences=4, frames=6, height=8, width=8)
        assert a.tobytes() != b.tobytes()

    def test_overlap_clamped(self):
        data = gen_bouncing(seed=9, num_sequences=8, frames=4, height=8, width=8,
                            num_objects=4)
        assert data.max() <= 1.0

    def test_degenerate_geometry(self):
        with pytest.raises(ConfigurationError):
            gen_bouncing(seed=0, num_sequences=1, frames=1, height=4, width=4)
        with pytest.raises(ConfigurationError):
            gen_bouncing(seed=0, num_sequences=1, frames=1, height=16, width=2)
        with pytest.raises(ConfigurationError):
            gen_bouncing(seed=0, num_sequences=0, frames=1, height=8, width=8)

    def test_refused_sizes_and_their_messages(self):
        # gen-data's --size sets height = width, so only height < 8 is refused there
        for height in range(1, 33):
            for width in range(1, 9):
                side = height // 8
                if height < 8:
                    match = f"height {height} too small for a visible square"
                elif width <= side:
                    match = f"square side {side} must be smaller than {height}x{width}"
                else:
                    data = gen_bouncing(seed=0, num_sequences=1, frames=3, height=height,
                                        width=width, num_objects=1)
                    assert data.shape == (1, 3, 1, height, width)
                    assert np.all(data.sum(axis=(2, 3, 4)) == side * side)
                    continue
                with pytest.raises(ConfigurationError, match=match):
                    gen_bouncing(seed=0, num_sequences=1, frames=3, height=height, width=width)
