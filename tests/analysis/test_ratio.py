"""Empirical oblivious-ratio search tests."""

import pytest

from repro.analysis.ratio import empirical_oblivious_ratio, worst_case_permutation
from repro.errors import SimulationError
from repro.routing.factory import make_scheme
from repro.routing.heuristics import UMulti
from repro.topology.variants import m_port_n_tree
from repro.traffic.adversarial import suggest_theorem2_topology


class TestWorstCasePermutation:
    def test_finds_bad_permutation_for_dmodk(self, tree8x2):
        ratio, perm = worst_case_permutation(
            tree8x2, make_scheme(tree8x2, "d-mod-k"), samples=50, seed=0
        )
        assert ratio > 1.5  # d-mod-k is far from optimal on permutations
        assert sorted(perm.tolist()) == list(range(32))

    def test_umulti_always_one(self, tree8x2):
        ratio, _ = worst_case_permutation(
            tree8x2, UMulti(tree8x2), samples=20, seed=0
        )
        assert ratio == pytest.approx(1.0)

    def test_rejects_unknown_engine(self, tree8x2):
        # "batched" is a flit engine; it must not run the reference
        with pytest.raises(SimulationError, match="unknown flow engine"):
            worst_case_permutation(tree8x2, UMulti(tree8x2), samples=4,
                                   seed=0, engine="batched")


class TestEmpiricalObliviousRatio:
    def test_theorem2_witness_found(self):
        xgft = suggest_theorem2_topology(2, 4)
        est = empirical_oblivious_ratio(
            xgft, make_scheme(xgft, "d-mod-k"), permutation_samples=10, seed=1
        )
        assert est.ratio >= 4.0
        assert est.witness == "theorem2"

    def test_umulti_estimate_is_one(self, tree8x2):
        est = empirical_oblivious_ratio(
            tree8x2, UMulti(tree8x2), permutation_samples=10, seed=1
        )
        assert est.ratio == pytest.approx(1.0)

    def test_multipath_tightens_estimate(self, tree8x2):
        dmodk = empirical_oblivious_ratio(
            tree8x2, make_scheme(tree8x2, "d-mod-k"),
            permutation_samples=30, seed=2,
        )
        dj = empirical_oblivious_ratio(
            tree8x2, make_scheme(tree8x2, "disjoint:2"),
            permutation_samples=30, seed=2,
        )
        assert dj.ratio <= dmodk.ratio
