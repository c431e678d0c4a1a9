"""Permutation traffic generators."""

import numpy as np
import pytest

from repro.errors import TrafficError
from repro.traffic.permutations import (
    derangement,
    permutation_matrix,
    permutation_pairs,
    random_permutation,
    sample_permutations,
)


class TestRandomPermutation:
    def test_is_permutation(self):
        perm = random_permutation(100, seed=0)
        assert sorted(perm.tolist()) == list(range(100))

    def test_reproducible(self):
        assert np.array_equal(random_permutation(50, 7), random_permutation(50, 7))

    def test_fixed_points_allowed(self):
        # Over many samples some permutation must contain a fixed point
        # (the paper's "possibly itself").
        rng = np.random.default_rng(0)
        found = any(
            np.any(random_permutation(8, rng) == np.arange(8)) for _ in range(50)
        )
        assert found


class TestDerangement:
    def test_no_fixed_points(self):
        for seed in range(5):
            perm = derangement(20, seed)
            assert not np.any(perm == np.arange(20))

    def test_single_node_impossible(self):
        with pytest.raises(TrafficError):
            derangement(1)


class TestPermutationMatrix:
    def test_unit_traffic_rows(self):
        tm = permutation_matrix(np.array([1, 2, 0]))
        assert tm.is_permutation()
        assert tm.total == 3.0

    def test_custom_amount(self):
        tm = permutation_matrix(np.array([1, 0]), amount=2.0)
        assert tm[0, 1] == 2.0

    def test_rejects_non_permutation(self):
        with pytest.raises(TrafficError):
            permutation_matrix(np.array([0, 0, 1]))

    @pytest.mark.parametrize("perm", [
        [0, 2, 2, 1],           # duplicate (and a missing id)
        [1, 2, 3, 4],           # out of range above
        [-1, 0, 1, 2],          # out of range below
        [[0, 1], [1, 0]],       # 2-D
        [[1, 0]],               # 2-D with one row
    ], ids=["duplicate", "above", "below", "2-D", "2-D-one-row"])
    def test_rejects_every_non_permutation(self, perm):
        with pytest.raises(TrafficError, match="not a permutation"):
            permutation_matrix(np.array(perm))

    def test_accepts_the_empty_and_identity_permutations(self):
        assert permutation_matrix(np.array([], dtype=np.int64)).n_procs == 0
        assert permutation_matrix(np.arange(5)).n_pairs == 5


class TestPermutationPairs:
    def test_rows_are_the_matrices_network_pairs(self):
        rng = np.random.default_rng(4)
        perms = np.stack([np.arange(9)]  # all fixed points: no pairs
                         + [random_permutation(9, rng) for _ in range(5)])
        for row, got in zip(perms, permutation_pairs(perms)):
            want = permutation_matrix(row).network_pairs()
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [[0, 2, 2, 1], [1, 2, 3, 4], [-1, 0, 1, 2]],
                             ids=["duplicate", "above", "below"])
    def test_one_bad_row_rejects_the_batch(self, bad):
        perms = np.array([[1, 0, 3, 2], bad, [0, 1, 2, 3]])
        with pytest.raises(TrafficError, match="not a permutation"):
            permutation_pairs(perms)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)], ids=["1-D", "3-D"])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(TrafficError, match="not a permutation"):
            permutation_pairs(np.zeros(shape, dtype=np.int64))


class TestSamplePermutations:
    def test_count_and_independence(self):
        tms = list(sample_permutations(16, 4, seed=3))
        assert len(tms) == 4
        assert all(tm.is_permutation() for tm in tms)
        assert any(tms[0] != tm for tm in tms[1:])
