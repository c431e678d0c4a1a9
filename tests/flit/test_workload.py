"""Workload model tests."""

import random

import pytest

from repro.errors import SimulationError
from repro.flit.workload import FixedPermutation, UniformRandom


class TestLoadValidation:
    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(SimulationError):
                UniformRandom(bad)

    def test_mean_interarrival(self):
        wl = UniformRandom(0.5)
        assert wl.mean_interarrival(64) == 128.0


class TestUniformRandom:
    def test_never_self(self):
        wl = UniformRandom(0.5)
        rng = random.Random(0)
        for _ in range(500):
            assert wl.pick_destination(3, 8, rng) != 3

    def test_covers_all_other_nodes(self):
        wl = UniformRandom(0.5)
        rng = random.Random(1)
        seen = {wl.pick_destination(0, 8, rng) for _ in range(500)}
        assert seen == set(range(1, 8))


class TestFixedPermutation:
    def test_fixed_destination(self):
        wl = FixedPermutation(0.5, [2, 0, 1])
        rng = random.Random(0)
        assert wl.pick_destination(0, 3, rng) == 2

    def test_fixed_point_silent(self):
        wl = FixedPermutation(0.5, [0, 2, 1])
        rng = random.Random(0)
        assert wl.pick_destination(0, 3, rng) == -1

    def test_rejects_non_permutation(self):
        with pytest.raises(SimulationError):
            FixedPermutation(0.5, [0, 0, 1])

    def test_size_mismatch_detected_on_use(self):
        wl = FixedPermutation(0.5, [1, 0])
        with pytest.raises(SimulationError):
            wl.pick_destination(0, 3, random.Random(0))
