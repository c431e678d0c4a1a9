"""CompiledScheme: table lookups, derived tables, telemetry, pickling."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.ib.lft import compile_lfts
from repro.obs import Recorder, use_recorder
from repro.routing.compiled import compile_scheme
from repro.routing.factory import make_scheme
from repro.routing.vectorized import compile_routes
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT


@pytest.fixture
def plan(tree8x2):
    return compile_scheme(tree8x2, make_scheme(tree8x2, "disjoint:2"))


class TestQuerySurface:
    @pytest.mark.parametrize("spec", ["d-mod-k", "shift-1:3", "random:2",
                                      "umulti"])
    def test_path_index_matrix_matches_scheme(self, tree8x3, spec):
        scheme = make_scheme(tree8x3, spec, seed=4)
        plan = compile_scheme(tree8x3, scheme)
        rng = np.random.default_rng(0)
        for k in range(1, tree8x3.h + 1):
            # Sample pairs with NCA level exactly k.
            n = tree8x3.n_procs
            s = rng.integers(0, n, size=200)
            d = rng.integers(0, n, size=200)
            mask = tree8x3.nca_level(s, d) == k
            s, d = s[mask], d[mask]
            if not len(s):
                continue
            np.testing.assert_array_equal(
                plan.path_index_matrix(s, d, k),
                scheme.path_index_matrix(s, d, k))
            assert plan.paths_per_pair(k) == scheme.paths_per_pair(k)
            np.testing.assert_allclose(plan.fractions(k), scheme.fractions(k))

    def test_label_and_name_preserved(self, tree8x2):
        scheme = make_scheme(tree8x2, "disjoint:2")
        plan = compile_scheme(tree8x2, scheme)
        assert plan.label == scheme.label
        assert plan.scheme_name == scheme.name

    def test_wrong_level_pair_raises(self, plan, tree8x2):
        # Nodes 0 and 1 share the level-1 switch, so they are not a
        # level-h pair.
        with pytest.raises(RoutingError):
            plan.path_index_matrix(np.array([0]), np.array([1]), tree8x2.h)

    def test_compile_is_idempotent(self, plan, tree8x2):
        assert compile_scheme(tree8x2, plan) is plan

    def test_topology_mismatch_raises(self, plan):
        other = m_port_n_tree(4, 2)
        with pytest.raises(RoutingError):
            compile_scheme(other, plan)
        with pytest.raises(RoutingError):
            compile_scheme(other, make_scheme(m_port_n_tree(8, 2), "d-mod-k"))


class TestDerivedTables:
    @pytest.mark.parametrize("spec", ["d-mod-k", "disjoint:2", "umulti"])
    def test_route_table_matches_compile_routes(self, tree8x2, spec):
        scheme = make_scheme(tree8x2, spec)
        plan = compile_scheme(tree8x2, scheme)
        assert compile_routes(tree8x2, plan) == compile_routes(tree8x2, scheme)

    def test_compile_routes_delegates_to_plan(self, tree8x2, plan):
        # compile_routes reads the plan like any scheme.
        scheme = make_scheme(tree8x2, "disjoint:2")
        assert compile_routes(tree8x2, plan) == compile_routes(tree8x2, scheme)

    def test_route_table_subset_pairs(self, tree8x2, plan):
        pairs = np.array([[0, 31], [5, 9], [30, 2]])
        table = compile_routes(tree8x2, plan, pairs)
        full = compile_routes(tree8x2, plan)
        assert set(table) == {s * tree8x2.n_procs + d for s, d in pairs}
        for key, paths in table.items():
            assert full[key] == paths

    def test_route_table_rejects_self_pairs(self, tree8x2, plan):
        with pytest.raises(ValueError):
            compile_routes(tree8x2, plan, np.array([[3, 3]]))

    def test_lfts_from_plan_match_scheme(self, tree8x2):
        scheme = make_scheme(tree8x2, "disjoint:2")
        plan = compile_scheme(tree8x2, scheme)
        from_plan = compile_lfts(tree8x2, plan)
        from_scheme = compile_lfts(tree8x2, scheme)
        assert from_plan.scheme_label == from_scheme.scheme_label
        np.testing.assert_array_equal(from_plan.up_port, from_scheme.up_port)
        np.testing.assert_array_equal(from_plan.path_index,
                                      from_scheme.path_index)


class TestSize:
    def test_nbytes_positive(self, plan):
        assert plan.nbytes > 0
        assert "CompiledScheme" in repr(plan)


class TestTelemetry:
    def test_compile_stats_event_and_timer(self, tree8x2):
        rec = Recorder()
        with use_recorder(rec):
            compile_scheme(tree8x2, make_scheme(tree8x2, "disjoint:2"))
        assert rec.counters["routing.schemes_compiled"] == 1
        assert "routing.compile" in rec.timers
        events = rec.events_of("compile_stats")
        assert events, f"no compile_stats event in {rec.events}"
        stats = events[0]
        n = tree8x2.n_procs
        assert stats["n_pairs"] == n * (n - 1)
        # disjoint:2 stores the one path of a pair under a leaf switch
        # (w_1 = 1) and two paths of every other pair
        leaf_pairs = n * (tree8x2.m[0] - 1)
        assert stats["path_entries"] == leaf_pairs + 2 * (n * (n - 1) - leaf_pairs)
        assert stats["seconds"] >= 0


class TestPickling:
    def test_round_trip(self, tree8x2):
        scheme = make_scheme(tree8x2, "random:2", seed=3)
        plan = compile_scheme(tree8x2, scheme)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.xgft == plan.xgft
        assert clone.label == plan.label
        for k, lv in plan.levels.items():
            np.testing.assert_array_equal(clone.levels[k].path_index,
                                          lv.path_index)
        assert compile_routes(tree8x2, clone) == compile_routes(tree8x2, plan)


@pytest.mark.parametrize("xgft", [
    m_port_n_tree(4, 2),
    m_port_n_tree(4, 3),
    XGFT(3, (3, 2, 4), (1, 2, 3)),
    XGFT(2, (3, 5), (2, 3)),
], ids=repr)
def test_compile_covers_every_cross_pair(xgft):
    scheme = make_scheme(xgft, "d-mod-k")
    plan = compile_scheme(xgft, scheme)
    n = xgft.n_procs
    s, d = np.divmod(np.arange(n * n), n)
    k_arr = xgft.nca_level(s, d)
    for k in range(1, xgft.h + 1):
        at_k = k_arr == k
        assert np.array_equal(plan.path_index_matrix(s[at_k], d[at_k], k),
                              scheme.path_index_matrix(s[at_k], d[at_k], k))
    assert plan.n_pairs == n * (n - 1)
    # self-pairs have no route at any level
    for k in plan.levels:
        with pytest.raises(RoutingError):
            plan.path_index_matrix(np.array([1]), np.array([1]), k)
