"""CompiledScheme: lazily filled tables, checked queries, derived tables,
telemetry, pickling."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.flow.engine import BatchFlowEngine
from repro.flow.sampling import PermutationStudy
from repro.ib.lft import compile_lfts
from repro.obs import Recorder, use_recorder
from repro.routing.compiled import CompiledScheme, compile_scheme
from repro.routing.factory import make_scheme
from repro.routing.vectorized import compile_routes, level_pairs
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT

from tests.conftest import TOPOLOGY_POOL, pool_ids

#: one spec per scheme family
FAMILY_SPECS = ("d-mod-k", "s-mod-k", "random-single", "shift-1:2",
                "disjoint:2", "random:2", "umulti")


@pytest.fixture
def plan(tree8x2):
    return compile_scheme(tree8x2, make_scheme(tree8x2, "disjoint:2"))


def record_selections(monkeypatch):
    """Patch the plans' selection to record the pair keys it selects."""
    selected = []
    original = CompiledScheme._select

    def recording(self, k, rows):
        src, dst = level_pairs(self.xgft).pairs[k]
        selected.extend((src[rows] * self.xgft.n_procs + dst[rows]).tolist())
        return original(self, k, rows)

    monkeypatch.setattr(CompiledScheme, "_select", recording)
    return selected


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
        assert plan.name == scheme.name

    def test_wrong_level_pair_raises(self, plan, tree8x2):
        # Nodes 0 and 1 share the level-1 switch, so they are not a
        # level-h pair.
        with pytest.raises(RoutingError):
            plan.path_index_matrix(np.array([0]), np.array([1]), tree8x2.h)

    @pytest.mark.parametrize("s, d, k", [(-1, 6, 1), (0, 8, 1), (8, 0, 2)])
    def test_out_of_range_node_ids_raise(self, s, d, k):
        # keys outside [0, n_procs**2) once wrapped to another pair's row
        # (-1 * 8 + 6 is the key of (7, 6)), or ran off the key map
        xgft = m_port_n_tree(4, 2)
        plan = compile_scheme(xgft, make_scheme(xgft, "d-mod-k"))
        with pytest.raises(RoutingError, match="node ids"):
            plan.path_index_matrix(np.array([s]), np.array([d]), k)

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
    def test_nbytes_positive(self, plan, tree8x2):
        # no table before the first query; one per level queried after
        assert plan.nbytes == 0
        s, d = level_pairs(tree8x2).pairs[2]
        plan.path_index_matrix(s[:3], d[:3], 2)
        assert plan.nbytes > 0
        assert "CompiledScheme" in repr(plan)


class TestTelemetry:
    def test_compile_records_nothing(self, tree8x2, monkeypatch):
        # compile_scheme selects nothing, so it has nothing to time
        selected = record_selections(monkeypatch)
        scheme = make_scheme(tree8x2, "disjoint:2")
        rec = Recorder()
        with use_recorder(rec):
            compile_scheme(tree8x2, scheme)
        assert selected == []
        assert not rec.timers and not rec.counters and not rec.events


class TestPickling:
    def test_round_trip(self, tree8x2):
        scheme = make_scheme(tree8x2, "random:2", seed=3)
        plan = compile_scheme(tree8x2, scheme)
        s, d = level_pairs(tree8x2).pairs[2]
        plan.path_index_matrix(s[::5], d[::5], 2)  # some rows filled
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.xgft == plan.xgft
        assert clone.label == plan.label
        assert clone.nbytes == plan.nbytes
        assert compile_routes(tree8x2, clone) == compile_routes(tree8x2, plan)


class TestLaziness:
    """A plan selects a pair the first time a query names it, and never
    again."""

    @pytest.mark.parametrize("samples", [8, 16], ids=["one-round",
                                                      "two-rounds"])
    def test_a_study_selects_each_named_pair_once(self, tree8x3, samples,
                                                  monkeypatch):
        selected = record_selections(monkeypatch)
        rounds = []
        evaluate = BatchFlowEngine.permutation_mloads

        def recording(self, perms):
            rounds.append((self, np.array(perms)))
            return evaluate(self, perms)

        monkeypatch.setattr(BatchFlowEngine, "permutation_mloads", recording)
        PermutationStudy(tree8x3, initial_samples=8, max_samples=samples,
                         rel_precision=-1.0, seed=3, engine="compiled",
                         ).run(make_scheme(tree8x3, "disjoint:2"))
        assert len(rounds) == samples // 8
        assert len({id(engine.plan) for engine, _ in rounds}) == 1
        n = tree8x3.n_procs
        perms = np.concatenate([p for _, p in rounds])
        src = np.tile(np.arange(n), len(perms))
        keys = src * n + perms.reshape(-1)
        named = np.unique(keys[src != perms.reshape(-1)])
        # exactly the named pairs, each once
        assert sorted(selected) == named.tolist()
        # a further round on the same plan selects none of them again
        selected.clear()
        engine = rounds[0][0]
        evaluate(engine, perms)
        assert selected == []

    def test_each_level_fills_once(self, tree8x2, monkeypatch):
        selected = record_selections(monkeypatch)
        plan = compile_scheme(tree8x2, make_scheme(tree8x2, "shift-1:2"))
        for k, (s, d) in level_pairs(tree8x2).pairs.items():
            plan.path_index_matrix(s[:4], d[:4], k)
            plan.path_index_matrix(s, d, k)
            plan.path_index_matrix(s[::-1], d[::-1], k)
        assert len(selected) == plan.n_pairs
        assert all(table[2] is None for table in plan._tables.values())


class TestOracleParity:
    """Rows served from the tables equal per-batch selection bit for bit,
    whatever batch filled them."""

    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    def test_random_batches(self, xgft):
        rng = np.random.default_rng(len(repr(xgft)))
        for spec in FAMILY_SPECS:
            scheme = make_scheme(xgft, spec, seed=5)
            plan = compile_scheme(xgft, scheme)
            for k, (src, dst) in level_pairs(xgft).pairs.items():
                # repeated pairs, a subset, a reordering, then every pair
                pick = rng.integers(len(src), size=2 * len(src) + 1)
                for rows in (pick, pick[: len(pick) // 3 + 1],
                             rng.permutation(len(src)), slice(None)):
                    s, d = src[rows], dst[rows]
                    idx, weights = plan.path_selection(s, d, k)
                    want_idx, want_w = scheme.path_selection(s, d, k)
                    np.testing.assert_array_equal(
                        idx, want_idx, err_msg=f"{spec} level {k}")
                    assert weights is None and want_w is None


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
    for k in range(xgft.h + 2):
        with pytest.raises(RoutingError):
            plan.path_index_matrix(np.array([1]), np.array([1]), k)
