"""Unit tests for DegradedScheme: transparency, renormalization, errors,
and the per-level selection tables both fault-aware schemes serve from
(checked against per-batch selection, the oracle)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import DisconnectedPairError, FaultError
from repro.faults import (
    ChurnEvent,
    DegradedFabric,
    DegradedScheme,
    FaultSpec,
    IncrementalDegradedScheme,
    samplable_cables,
    samplable_switches,
    select_surviving,
)
from repro.flow.loads import link_loads
from repro.flow.simulator import FlowSimulator
from repro.routing.compiled import compile_scheme
from repro.routing.factory import make_scheme
from repro.routing.vectorized import level_pairs
from repro.topology.variants import m_port_n_tree
from repro.traffic.synthetic import all_to_all

from tests.conftest import TOPOLOGY_POOL, pool_ids

SCHEME_SPECS = ("d-mod-k", "s-mod-k", "shift-1:2", "disjoint:2",
                "random:2", "umulti")


@pytest.fixture
def fabric(tree8x2):
    fabric = FaultSpec(link_rate=0.15, seed=11).sample(tree8x2)
    assert fabric.is_connected and not fabric.is_pristine
    return fabric


class TestConstruction:
    def test_refuses_stacking(self, tree8x2, fabric):
        ds = DegradedScheme(make_scheme(tree8x2, "d-mod-k"), fabric)
        with pytest.raises(FaultError, match="stack"):
            DegradedScheme(ds, fabric)

    def test_refuses_compiled_plans(self, tree8x2, fabric):
        plan = compile_scheme(tree8x2, make_scheme(tree8x2, "d-mod-k"))
        with pytest.raises(FaultError, match="preference order"):
            DegradedScheme(plan, fabric)

    def test_refuses_topology_mismatch(self, tree8x2, tree8x3):
        with pytest.raises(FaultError, match="different topologies"):
            DegradedScheme(make_scheme(tree8x3, "d-mod-k"),
                           DegradedFabric(tree8x2))

    def test_label_carries_fabric_tag(self, tree8x2, fabric):
        ds = DegradedScheme(make_scheme(tree8x2, "disjoint:2"), fabric)
        assert ds.label.endswith(f"@{fabric.tag}")

    def test_pickles_for_pool_workers(self, tree8x2, fabric):
        ds = DegradedScheme(make_scheme(tree8x2, "shift-1:2"), fabric)
        clone = pickle.loads(pickle.dumps(ds))
        s = np.arange(4); d = s + 8
        k = int(tree8x2.nca_level(0, 8))
        np.testing.assert_array_equal(
            clone.path_index_matrix(s, d, k), ds.path_index_matrix(s, d, k))


class TestPristineTransparency:
    @pytest.mark.parametrize("spec", SCHEME_SPECS)
    def test_identical_routes_on_pristine_fabric(self, tree8x2, spec):
        base = make_scheme(tree8x2, spec)
        ds = DegradedScheme(base, DegradedFabric(tree8x2))
        n = tree8x2.n_procs
        for s in range(0, n, 7):
            for d in range(0, n, 5):
                if s == d:
                    continue
                assert ds.route(s, d) == base.route(s, d)
        keys = np.arange(n * n, dtype=np.int64)
        s_all, d_all = np.divmod(keys, n)
        k_arr = tree8x2.nca_level(s_all, d_all)
        for k in range(1, tree8x2.h + 1):
            mask = k_arr == k
            np.testing.assert_array_equal(
                ds.path_index_matrix(s_all[mask], d_all[mask], k),
                base.path_index_matrix(s_all[mask], d_all[mask], k))
            assert ds.path_weight_matrix(s_all[mask], d_all[mask], k) is None


class TestRenormalization:
    def test_weights_shift_to_survivors(self, tree8x2):
        # Fail one level-1 cable and find a pair that lost a path.
        up1, _ = tree8x2.boundary_link_slices(1)
        fabric = DegradedFabric(tree8x2, failed_cables=[up1.start])
        base = make_scheme(tree8x2, "umulti")
        ds = DegradedScheme(base, fabric)
        n = tree8x2.n_procs
        x = tree8x2.max_paths
        hit = 0
        for s in range(n):
            for d in range(n):
                if s == d or tree8x2.nca_level(s, d) != tree8x2.h:
                    continue
                rs = ds.route(s, d)
                assert abs(sum(rs.fractions) - 1.0) < 1e-12
                if rs.num_paths < x:
                    hit += 1
                    assert rs.num_paths == x - 1
                    assert all(abs(f - 1 / (x - 1)) < 1e-12
                               for f in rs.fractions)
        assert hit > 0

    def test_padding_never_reaches_route_sets(self, tree8x2, fabric):
        ds = DegradedScheme(make_scheme(tree8x2, "umulti"), fabric)
        for (s, d), rs in ds.all_route_sets().items():
            assert len(set(rs.indices)) == rs.num_paths
            for path in rs.paths(tree8x2):
                assert all(fabric.link_ok[c] for c in path.links)


class TestDisconnection:
    def test_typed_error_with_pair(self, tree8x2):
        up0, _ = tree8x2.boundary_link_slices(0)
        fabric = DegradedFabric(tree8x2, failed_cables=[up0.start])
        ds = DegradedScheme(make_scheme(tree8x2, "d-mod-k"), fabric)
        with pytest.raises(DisconnectedPairError) as exc_info:
            ds.route(0, tree8x2.n_procs - 1)
        err = exc_info.value
        assert (err.src, err.dst) == (0, tree8x2.n_procs - 1)

    def test_batch_selection_raises_too(self, tree8x2):
        up0, _ = tree8x2.boundary_link_slices(0)
        fabric = DegradedFabric(tree8x2, failed_cables=[up0.start])
        ds = DegradedScheme(make_scheme(tree8x2, "umulti"), fabric)
        n = tree8x2.n_procs
        s = np.array([0]); d = np.array([n - 1])
        with pytest.raises(DisconnectedPairError):
            ds.path_index_matrix(s, d, int(tree8x2.nca_level(0, n - 1)))


class TestFlitIntegration:
    def test_flit_sim_runs_on_degraded_fabric(self, tree8x2, fabric):
        from repro.flit import FlitConfig, FlitSimulator, UniformRandom

        ds = DegradedScheme(make_scheme(tree8x2, "disjoint:2"), fabric)
        sim = FlitSimulator(tree8x2, ds,
                            FlitConfig(warmup_cycles=100, measure_cycles=300))
        result = sim.run(UniformRandom(0.1), seed=1)
        assert result.throughput > 0

    def test_flit_sim_rejects_stale_route_table(self, tree8x2, fabric):
        from repro.errors import SimulationError
        from repro.flit import FlitConfig, FlitSimulator

        base = make_scheme(tree8x2, "umulti")
        with pytest.raises(SimulationError, match="failed channel"):
            FlitSimulator(tree8x2, base,
                          FlitConfig(warmup_cycles=10, measure_cycles=10),
                          degraded=fabric)


class TestLftIntegration:
    def test_lfts_skip_dead_paths(self, tree8x2, fabric):
        from repro.ib.lft import compile_lfts, trace_route

        ds = DegradedScheme(make_scheme(tree8x2, "umulti"), fabric)
        tables = compile_lfts(tree8x2, ds)
        # Every realized path index routes its pair without looping.
        for dst in range(0, tree8x2.n_procs, 5):
            src = (dst + tree8x2.M(tree8x2.h - 1)) % tree8x2.n_procs
            for offset in range(tables.lids.lids_per_port):
                trace_route(tables, src, dst, offset)


# -- the selection tables ------------------------------------------------

def oracle_select(base, fabric, s, d, k):
    """Per-batch selection, as the fault-aware scheme ran it on every
    query before it kept tables: the base order, its survivors and
    ``select_surviving`` on exactly this batch."""
    s = np.asarray(s, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64)
    order = base.path_order_matrix(s, d, k)
    alive = fabric.path_alive_matrix(s, d, order, k)
    return select_surviving(s, d, order, alive, base.paths_per_pair(k))


def fresh_copy(fabric):
    """A new fabric with the same damage (never sharing the mask)."""
    return DegradedFabric(fabric.xgft, failed_cables=fabric.failed_cables,
                          failed_switches=fabric.failed_switches)


def wrap(kind, base, fabric):
    if kind == "from-scratch":
        return DegradedScheme(base, fabric)
    return IncrementalDegradedScheme(base, fabric)


def assert_matches_oracle(scheme, s, d, k, context=""):
    if scheme.degraded.is_pristine:  # a proxy of the base scheme
        want_idx, want_w = scheme.base.path_index_matrix(s, d, k), None
    else:
        want_idx, want_w = oracle_select(scheme.base, scheme.degraded,
                                         s, d, k)
    np.testing.assert_array_equal(scheme.path_index_matrix(s, d, k),
                                  want_idx, err_msg=context)
    weights = scheme.path_weight_matrix(s, d, k)
    if want_w is None:
        assert weights is None, context
    else:
        np.testing.assert_array_equal(weights, want_w, err_msg=context)


def assert_every_level_matches_oracle(scheme, context=""):
    for k, (s, d) in level_pairs(scheme.xgft).pairs.items():
        assert_matches_oracle(scheme, s, d, k, f"level {k} {context}")


def damaged_fabric(xgft, seed):
    """A connected fabric with failed cables and switches drawn at seeded
    rates, or None when every element of ``xgft`` is critical."""
    rng = np.random.default_rng(seed)
    for attempt in range(64):
        fabric = FaultSpec(link_rate=rng.uniform(0.05, 0.5),
                           switch_rate=rng.uniform(0.0, 0.3),
                           seed=seed * 100 + attempt).sample(xgft)
        if fabric.is_connected and not fabric.is_pristine:
            return fabric
    return None


WRAPPERS = ["from-scratch", "incremental"]
TABLE_SPECS = ("d-mod-k", "shift-1:2", "disjoint:2", "random:2", "umulti")


class TestLevelPairs:
    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    def test_rows_name_their_pairs(self, xgft):
        n = xgft.n_procs
        lp = level_pairs(xgft)
        src, dst = np.divmod(np.arange(n * n), n)
        np.testing.assert_array_equal(lp.level, xgft.nca_level(src, dst))
        assert sorted(lp.pairs) == sorted(set(lp.level[lp.level > 0]))
        for k, (s, d) in lp.pairs.items():
            keys = s * n + d
            assert np.all(np.diff(keys) > 0)  # key order
            np.testing.assert_array_equal(lp.level[keys], k)
            np.testing.assert_array_equal(lp.row[keys], np.arange(len(s)))
        assert not lp.level.flags.writeable and not lp.row.flags.writeable

    def test_cached_per_topology(self, tree8x2):
        assert level_pairs(tree8x2) is level_pairs(tree8x2)


@pytest.mark.parametrize("kind", WRAPPERS)
class TestBatchChecks:
    """Every query checks its batch before it reads a table."""

    @pytest.fixture
    def scheme(self, kind, tree8x2, fabric):
        return wrap(kind, make_scheme(tree8x2, "disjoint:2"), fabric)

    @pytest.mark.parametrize("method", ["path_index_matrix",
                                        "path_weight_matrix"])
    def test_node_ids_out_of_range(self, scheme, method):
        n, h = scheme.xgft.n_procs, scheme.xgft.h
        query = getattr(scheme, method)
        with pytest.raises(FaultError, match="node ids"):
            query(np.array([-1]), np.array([5]), h)
        with pytest.raises(FaultError, match="node ids"):
            query(np.array([0]), np.array([n]), h)
        with pytest.raises(FaultError, match="node ids"):
            query(np.array([0, 1]), np.array([n - 1, n + 40]), h)

    @pytest.mark.parametrize("method", ["path_index_matrix",
                                        "path_weight_matrix"])
    def test_pairs_of_the_wrong_level(self, scheme, method):
        query = getattr(scheme, method)
        h = scheme.xgft.h
        s, d = np.array([0, 0]), np.array([scheme.xgft.n_procs - 1, 1])
        with pytest.raises(FaultError, match="NCA level"):
            query(s, d, h)  # (0, 1) is a level-1 pair
        with pytest.raises(FaultError, match="NCA level"):
            query(s[:1], d[:1], h + 1)
        with pytest.raises(FaultError, match="NCA level"):
            query(s[:1], s[:1], 0)  # a self-pair

    def test_route_checks_node_ids(self, scheme):
        n = scheme.xgft.n_procs
        with pytest.raises(FaultError, match="node ids"):
            scheme.route(-1, 5)
        with pytest.raises(FaultError, match="node ids"):
            scheme.route(5, n)
        assert scheme.route(3, 3).num_paths == 0


class TestStaleTables:
    """A selection table never outlives the fabric version it was filled
    at, whoever moved the fabric."""

    @pytest.fixture
    def setup(self, tree8x3):
        base = make_scheme(tree8x3, "disjoint:2")
        return base, int(samplable_cables(tree8x3)[-1]), all_to_all(
            tree8x3.n_procs)

    def assert_loads_follow(self, scheme, tm, *sims):
        xgft = scheme.xgft
        want = link_loads(xgft, DegradedScheme(
            scheme.base, fresh_copy(scheme.degraded)), tm)
        got = link_loads(xgft, scheme, tm)
        np.testing.assert_array_equal(got, want)
        assert not got[~scheme.degraded.link_ok].any()
        for sim in sims:
            np.testing.assert_array_equal(sim.evaluate(scheme, tm).loads,
                                          want)

    @pytest.mark.parametrize("kind", WRAPPERS)
    def test_event_straight_on_the_fabric(self, setup, kind):
        base, cable, tm = setup
        scheme = wrap(kind, base, DegradedFabric(base.xgft))
        scheme.degraded.fail_cable(int(samplable_cables(base.xgft)[0]))
        sim = FlowSimulator(base.xgft, engine="compiled")
        self.assert_loads_follow(scheme, tm, sim)  # fills and caches
        scheme.degraded.fail_cable(cable)
        self.assert_loads_follow(scheme, tm, sim)
        scheme.degraded.repair_cable(cable)
        self.assert_loads_follow(scheme, tm, sim)

    def test_incremental_schemes_sharing_a_fabric(self, setup):
        base, cable, tm = setup
        one = IncrementalDegradedScheme(base)
        two = IncrementalDegradedScheme(
            make_scheme(base.xgft, "random:2"), one.fabric)
        one.apply_event(ChurnEvent("fail", "cable", cable))
        self.assert_loads_follow(two, tm)
        self.assert_loads_follow(one, tm)
        # an event through the scheme that did not see the last one
        other = int(samplable_cables(base.xgft)[0])
        two.apply_event(ChurnEvent("fail", "cable", other))
        self.assert_loads_follow(one, tm)
        self.assert_loads_follow(two, tm)
        one.apply_event(ChurnEvent("repair", "cable", cable))
        self.assert_loads_follow(two, tm)
        self.assert_loads_follow(one, tm)


    def test_stranding_event_after_a_foreign_event_rolls_back(self,
                                                              tree8x2):
        # the tables refill after the other scheme's event, so the
        # critical host uplink is still checked against every pair
        one = IncrementalDegradedScheme(make_scheme(tree8x2, "disjoint:2"))
        two = IncrementalDegradedScheme(make_scheme(tree8x2, "d-mod-k"),
                                        one.fabric)
        up0, _ = tree8x2.boundary_link_slices(0)
        up1, _ = tree8x2.boundary_link_slices(1)
        one.apply_event(ChurnEvent("fail", "cable", up1.start))
        before = one.fabric.link_ok.copy()
        with pytest.raises(DisconnectedPairError):
            two.apply_event(ChurnEvent("fail", "cable", up0.start))
        np.testing.assert_array_equal(two.fabric.link_ok, before)
        tm = all_to_all(tree8x2.n_procs)
        self.assert_loads_follow(two, tm)
        self.assert_loads_follow(one, tm)


class TestOracleParity:
    """Rows served from the tables equal per-batch selection bit for bit,
    whatever batch filled them."""

    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    @pytest.mark.parametrize("kind", WRAPPERS)
    def test_random_batches(self, xgft, kind):
        fabric = damaged_fabric(xgft, seed=len(repr(xgft)))
        if fabric is None:
            pytest.skip("every element is critical: no connected damage")
        rng = np.random.default_rng(5)
        for spec in TABLE_SPECS:
            scheme = wrap(kind, make_scheme(xgft, spec), fabric)
            for k, (src, dst) in level_pairs(xgft).pairs.items():
                # repeated pairs, then a subset, then a reordering
                pick = rng.integers(len(src), size=2 * len(src) + 1)
                s, d = src[pick], dst[pick]
                assert_matches_oracle(scheme, s, d, k, f"{spec} level {k}")
                half = pick[: len(pick) // 2 + 1]
                assert_matches_oracle(scheme, src[half], dst[half], k)
                back = rng.permutation(len(src))
                assert_matches_oracle(scheme, src[back], dst[back], k)
                for i in rng.integers(len(src), size=4):
                    s_i, d_i = int(src[i]), int(dst[i])
                    idx, w = oracle_select(scheme.base, fabric, [s_i],
                                           [d_i], k)
                    route = scheme.route(s_i, d_i)
                    live = w[0] > 0
                    assert route.indices == tuple(idx[0][live].tolist())
                    assert route.fractions == tuple(w[0][live].tolist())

    @pytest.mark.parametrize("kind", WRAPPERS)
    def test_fail_query_repair_query_fail_fail(self, kind):
        xgft = m_port_n_tree(4, 3)
        cables = samplable_cables(xgft)
        switch = samplable_switches(xgft)[-1]
        scheme = wrap(kind, make_scheme(xgft, "random:2"),
                      DegradedFabric(xgft))
        rng = np.random.default_rng(1)

        def step(action, element_kind, element):
            event = ChurnEvent(action, element_kind, element)
            if kind == "incremental":
                scheme.apply_event(event)
            else:
                event.apply(scheme.degraded)
            label = f"after {event.label} ({kind})"
            # a partial batch first, then every pair
            for k, (s, d) in level_pairs(xgft).pairs.items():
                pick = rng.integers(len(s), size=len(s) // 3 + 1)
                assert_matches_oracle(scheme, s[pick], d[pick], k, label)
            assert_every_level_matches_oracle(scheme, label)

        step("fail", "cable", int(cables[0]))
        step("repair", "cable", int(cables[0]))
        step("fail", "cable", int(cables[-1]))
        step("fail", "switch", switch)

    def test_deterministic_with_one_row_filled_per_query(self, tree8x2,
                                                         fabric):
        # a table filled one row at a time equals one filled in one batch
        base = make_scheme(tree8x2, "shift-1:2")
        one_by_one = DegradedScheme(base, fabric)
        at_once = DegradedScheme(base, fabric)
        for k, (s, d) in level_pairs(tree8x2).pairs.items():
            rows = [one_by_one.path_index_matrix(s[i:i + 1], d[i:i + 1], k)
                    for i in range(len(s))]
            np.testing.assert_array_equal(
                np.concatenate(rows), at_once.path_index_matrix(s, d, k))


def count_selected_rows(monkeypatch):
    """Patch the schemes' selection to count the rows it selects."""
    selected = []
    original = DegradedScheme._select

    def counting(self, k, rows):
        idx, weights = original(self, k, rows)
        selected.append(len(idx))
        return idx, weights

    monkeypatch.setattr(DegradedScheme, "_select", counting)
    return selected


class TestSelectionRuns:
    """Each pair is selected once per fabric version, and the incremental
    scheme re-selects only what an event touched."""

    def test_each_row_once_per_version(self, tree8x2, fabric, monkeypatch):
        selected = count_selected_rows(monkeypatch)
        scheme = DegradedScheme(make_scheme(tree8x2, "disjoint:2"), fabric)
        s, d = level_pairs(tree8x2).pairs[2]
        scheme.path_index_matrix(s[:10], d[:10], 2)
        scheme.path_weight_matrix(s[:10], d[:10], 2)
        scheme.path_index_matrix(s[5:20], d[5:20], 2)
        assert selected == [10, 10]
        cable = next(c for c in samplable_cables(tree8x2)
                     if c not in fabric.failed_cables)
        fabric.fail_cable(int(cable))
        scheme.path_index_matrix(s[:10], d[:10], 2)
        assert selected == [10, 10, 10]

    def test_pristine_fabric_builds_no_table(self, tree8x2, monkeypatch):
        selected = count_selected_rows(monkeypatch)
        scheme = DegradedScheme(make_scheme(tree8x2, "disjoint:2"),
                                DegradedFabric(tree8x2))
        assert_every_level_matches_oracle(scheme)
        assert selected == [] and scheme._tables == {}

    def test_incremental_stays_incremental(self, tree8x3, monkeypatch):
        selected = count_selected_rows(monkeypatch)
        inc = IncrementalDegradedScheme(make_scheme(tree8x3, "disjoint:4"))
        cables = samplable_cables(tree8x3)
        stats = inc.apply_event(ChurnEvent("fail", "cable", int(cables[0])))
        selected.clear()
        assert_every_level_matches_oracle(inc, "after the event")
        assert selected == []
        assert stats.pairs_recomputed > 0
        # a rolled-back event leaves the tables current too
        with pytest.raises(DisconnectedPairError):
            inc.apply_event(ChurnEvent("fail", "switch", (1, 0)))
        selected.clear()
        assert_every_level_matches_oracle(inc, "after the rollback")
        assert selected == []


class TestPathSelection:
    """``path_selection`` answers both batch queries at once: the same
    arrays as ``path_index_matrix`` and ``path_weight_matrix``, from one
    table lookup where a scheme keeps tables."""

    @pytest.mark.parametrize("spec", SCHEME_SPECS)
    def test_equals_the_two_queries(self, tree8x2, fabric, spec):
        """On the scheme, pristine and degraded, and on its compiled
        plan."""
        base = make_scheme(tree8x2, spec)
        for scheme in (base, DegradedScheme(base, DegradedFabric(tree8x2)),
                       DegradedScheme(base, fabric)):
            plan = compile_scheme(tree8x2, scheme)
            for k, (s, d) in level_pairs(tree8x2).pairs.items():
                s, d = s[::3], d[::3]
                idx = scheme.path_index_matrix(s, d, k)
                weights = scheme.path_weight_matrix(s, d, k)
                for got_idx, got_w in (scheme.path_selection(s, d, k),
                                       plan.path_selection(s, d, k)):
                    np.testing.assert_array_equal(got_idx, idx)
                    if weights is None:
                        assert got_w is None
                    else:
                        np.testing.assert_array_equal(got_w, weights)

    def test_one_lookup_per_level_group(self, tree8x2, fabric, monkeypatch):
        lookups = []
        original = DegradedScheme._lookup

        def counting(self, s, d, k):
            lookups.append(k)
            return original(self, s, d, k)

        monkeypatch.setattr(DegradedScheme, "_lookup", counting)
        scheme = DegradedScheme(make_scheme(tree8x2, "disjoint:2"), fabric)
        link_loads(tree8x2, scheme, all_to_all(tree8x2.n_procs))
        assert lookups == [1, 2]
