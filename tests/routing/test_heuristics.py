"""shift-1 / disjoint / random / UMULTI selection tests."""

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.routing.heuristics import (
    Disjoint,
    RandomMultipath,
    RandomSingle,
    Shift1,
    UMulti,
)
from repro.routing.factory import make_scheme
from repro.routing.modk import DModK
from repro.topology.variants import m_port_n_tree

from tests.conftest import TOPOLOGY_POOL, pool_ids


class TestShift1:
    def test_paper_example_k3(self, fig3_xgft):
        # Section 4.2.2: for (0, 63) with K=3: Paths 7, 0, 1.
        assert Shift1(fig3_xgft, 3).route(0, 63).indices == (7, 0, 1)

    def test_contains_dmodk_path_first(self, fig3_xgft):
        dmodk = DModK(fig3_xgft)
        shift = Shift1(fig3_xgft, 4)
        for s, d in ((0, 63), (5, 40), (12, 33)):
            assert shift.route(s, d).indices[0] == dmodk.route(s, d).indices[0]

    def test_consecutive_mod_x(self, fig3_xgft):
        rs = Shift1(fig3_xgft, 5).route(0, 63)
        x = 8
        for a, b in zip(rs.indices, rs.indices[1:]):
            assert b == (a + 1) % x

    def test_k_clamped_to_x(self, fig3_xgft):
        rs = Shift1(fig3_xgft, 100).route(0, 63)
        assert sorted(rs.indices) == list(range(8))

    def test_equals_umulti_at_max(self, tree8x2):
        shift = Shift1(tree8x2, tree8x2.max_paths)
        um = UMulti(tree8x2)
        for s, d in ((0, 31), (1, 17)):
            assert sorted(shift.route(s, d).indices) == sorted(um.route(s, d).indices)


class TestDisjoint:
    def test_paper_example_k4(self, fig3_xgft):
        # Section 4.2.3: level-2 disjoint paths from Path 7: 7, 1, 3, 5.
        assert Disjoint(fig3_xgft, 4).route(0, 63).indices == (7, 1, 3, 5)

    def test_prefixes_nest(self, fig3_xgft):
        # disjoint(K) is a prefix of disjoint(K') for K < K'.
        small = Disjoint(fig3_xgft, 2).route(0, 63).indices
        large = Disjoint(fig3_xgft, 6).route(0, 63).indices
        assert large[: len(small)] == small

    def test_paths_fork_at_lowest_level(self, fig3_xgft):
        """The first w_1*w_2 disjoint paths traverse distinct level-1
        switches on the destination side wherever possible — the defining
        property vs shift-1."""
        rs = Disjoint(fig3_xgft, 4).route(0, 63)
        level2_switches = set()
        for path in rs.paths(fig3_xgft):
            level2_switches.add(path.nodes[2])  # up-side level-2 switch
        assert len(level2_switches) == 4

    def test_shift1_shares_lower_links(self, fig3_xgft):
        """Contrast: shift-1's first K paths differ only near the top
        (the paper's motivating weakness)."""
        rs = Shift1(fig3_xgft, 2).route(0, 63)
        paths = rs.paths(fig3_xgft)
        # Paths 7 and 0 share no... they differ only at the top switch:
        shared = set(paths[0].links) & set(paths[1].links)
        assert len(shared) >= 2  # bottom up-link and bottom down-link shared

    def test_two_level_equals_shift1(self, tree8x2):
        shift = Shift1(tree8x2, 3)
        disjoint = Disjoint(tree8x2, 3)
        for s in range(0, 32, 7):
            for d in range(0, 32, 5):
                if s != d:
                    assert shift.route(s, d).indices == disjoint.route(s, d).indices


class TestRandom:
    def test_deterministic_per_pair(self, tree8x3):
        scheme = RandomMultipath(tree8x3, 4, seed=9)
        assert scheme.route(0, 127).indices == scheme.route(0, 127).indices

    def test_seed_changes_selection(self, tree8x3):
        a = RandomMultipath(tree8x3, 4, seed=0)
        b = RandomMultipath(tree8x3, 4, seed=1)
        diffs = sum(
            a.route(s, d).indices != b.route(s, d).indices
            for s, d in ((0, 127), (1, 100), (2, 90), (3, 80))
        )
        assert diffs > 0

    def test_distinct_indices(self, tree8x3):
        scheme = RandomMultipath(tree8x3, 8, seed=3)
        for d in (127, 64, 90):
            idx = scheme.route(0, d).indices
            assert len(set(idx)) == len(idx)

    def test_k_clamp(self, tree8x3):
        scheme = RandomMultipath(tree8x3, 1000, seed=0)
        rs = scheme.route(0, 127)
        assert sorted(rs.indices) == list(range(tree8x3.max_paths))

    def test_uniformity_over_pairs(self, tree8x3):
        """K=1 random selections cover path indices roughly uniformly."""
        scheme = RandomMultipath(tree8x3, 1, seed=5)
        s = np.zeros(2000, dtype=np.int64)
        d = np.arange(16, 2016) % tree8x3.n_procs
        keep = tree8x3.nca_level(s, d) == 3
        idx = scheme.path_index_matrix(s[keep], d[keep], 3).ravel()
        counts = np.bincount(idx, minlength=16)
        assert counts.min() > 0.4 * counts.mean()

    def test_random_single_is_k1(self, tree8x3):
        scheme = RandomSingle(tree8x3, seed=2)
        assert scheme.label == "random-single"
        assert scheme.route(0, 127).num_paths == 1

    def test_batch_matches_scalar(self, tree8x3):
        scheme = RandomMultipath(tree8x3, 4, seed=11)
        s = np.array([0, 1, 2])
        d = np.array([127, 126, 125])
        batch = scheme.path_index_matrix(s, d, 3)
        for i in range(3):
            assert tuple(batch[i]) == scheme.route(int(s[i]), int(d[i])).indices

    @pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["zero", "max"])
    def test_seed_at_range_ends(self, tree8x3, seed):
        for spec in ("random:2", "random:16", "random-single"):
            scheme = make_scheme(tree8x3, spec, seed=seed)
            assert scheme.seed == seed
            rs = scheme.route(0, 127)
            assert rs.num_paths == scheme.paths_per_pair(3)
            order = scheme.path_order_matrix(np.array([0]), np.array([127]), 3)
            assert sorted(order[0]) == list(range(16))

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["below", "above"])
    def test_seed_out_of_range_raises(self, tree8x3, seed):
        """A seed numpy cannot take as a uint64 is rejected when the
        scheme is built, not at its first query."""
        for build in (lambda: make_scheme(tree8x3, "random:2", seed=seed),
                      lambda: RandomMultipath(tree8x3, 2, seed=seed),
                      lambda: RandomSingle(tree8x3, seed=seed)):
            with pytest.raises(RoutingError,
                               match=rf"routing seed {seed} out of range"):
                build()


class TestUMulti:
    def test_uses_all_paths(self, fig3_xgft):
        um = UMulti(fig3_xgft)
        rs = um.route(0, 63)
        assert sorted(rs.indices) == list(range(8))
        assert np.allclose(rs.fractions, 1 / 8)

    def test_respects_nca_level(self, fig3_xgft):
        assert UMulti(fig3_xgft).route(0, 1).num_paths == 1
        assert UMulti(fig3_xgft).route(0, 4).num_paths == 4


class TestCommonInvariants:
    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    @pytest.mark.parametrize("k_paths", [1, 2, 3, 7])
    def test_route_sets_valid(self, xgft, k_paths):
        schemes = [
            Shift1(xgft, k_paths),
            Disjoint(xgft, k_paths),
            RandomMultipath(xgft, k_paths, seed=1),
        ]
        n = min(xgft.n_procs, 6)
        for scheme in schemes:
            for s in range(n):
                d = xgft.n_procs - 1 - s
                if s == d:
                    continue
                rs = scheme.route(s, d)
                x = int(xgft.num_shortest_paths(s, d))
                assert rs.num_paths == min(k_paths, x)
                assert all(0 <= t < x for t in rs.indices)
                assert len(set(rs.indices)) == rs.num_paths
                assert abs(sum(rs.fractions) - 1.0) < 1e-9

    def test_rejects_k_zero(self, tree8x2):
        with pytest.raises(RoutingError):
            Shift1(tree8x2, 0)

    def test_labels(self, tree8x2):
        assert Shift1(tree8x2, 4).label == "shift-1(4)"
        assert Disjoint(tree8x2, 2).label == "disjoint(2)"
        assert RandomMultipath(tree8x2, 8).label == "random(8)"
        assert UMulti(tree8x2).label == "umulti"


def test_graceful_improvement_with_k():
    """Sanity for the Figure 4 mechanism: on a fixed permutation the
    worst heuristic load never increases as K grows (statistically it
    decreases; here we assert the endpoint optimality)."""
    from repro.flow.loads import link_loads
    from repro.flow.metrics import max_link_load, optimal_load
    from repro.traffic.permutations import permutation_matrix, random_permutation

    xgft = m_port_n_tree(8, 2)
    tm = permutation_matrix(random_permutation(xgft.n_procs, 0))
    opt = optimal_load(xgft, tm)
    loads_at_max = max_link_load(link_loads(xgft, Disjoint(xgft, xgft.max_paths), tm))
    assert loads_at_max == pytest.approx(opt)


# shift-1, disjoint and UMULTI select without the native library, so
# only the classes that reach the random heuristic run again on its
# numpy path.
@pytest.mark.usefixtures("no_compiler")
class TestRandomNumpy(TestRandom):
    """:class:`TestRandom` on the numpy selection path."""


@pytest.mark.usefixtures("no_compiler")
class TestCommonInvariantsNumpy(TestCommonInvariants):
    """:class:`TestCommonInvariants` on the numpy selection path."""
