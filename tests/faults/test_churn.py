"""Unit tests for streaming churn: events, traces, the closed-form
link->candidate pairs map, and incremental re-routing (including the
>=10x acceptance gate on the 8-port 3-tree)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.errors import DisconnectedPairError, FaultError
from repro.faults import (
    ChurnEvent,
    ChurnSpec,
    DegradedFabric,
    IncrementalDegradedScheme,
    generate_trace,
)
from repro.faults.churn import candidate_pairs
from repro.faults.spec import samplable_cables
from repro.obs import Recorder, use_recorder
from repro.routing.factory import make_scheme
from repro.routing.path import build_path
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT

from tests.conftest import TOPOLOGY_POOL, pool_ids


class TestChurnEvent:
    def test_validation(self):
        with pytest.raises(FaultError, match="action"):
            ChurnEvent("break", "cable", 3)
        with pytest.raises(FaultError, match="kind"):
            ChurnEvent("fail", "router", 3)

    def test_labels(self):
        assert ChurnEvent("fail", "cable", 12).label == "-cable:12"
        assert ChurnEvent("repair", "switch", (2, 3)).label == "+switch:2/3"

    def test_inverse_is_involutive(self):
        event = ChurnEvent("fail", "switch", (1, 4))
        assert event.inverse().action == "repair"
        assert event.inverse().inverse() == event

    def test_apply_dispatches_to_fabric(self, tree8x2):
        up1, _ = tree8x2.boundary_link_slices(1)
        fabric = DegradedFabric(tree8x2)
        dead = ChurnEvent("fail", "cable", up1.start).apply(fabric)
        assert dead.size == 2
        assert fabric.failed_cables == (up1.start,)
        ChurnEvent("repair", "cable", up1.start).apply(fabric)
        assert fabric.is_pristine


class TestChurnSpec:
    def test_validation(self):
        with pytest.raises(FaultError):
            ChurnSpec(n_events=-1)
        with pytest.raises(FaultError):
            ChurnSpec(fail_bias=1.5)
        with pytest.raises(FaultError):
            ChurnSpec(switch_fraction=-0.1)


class TestGenerateTrace:
    def test_deterministic_for_fixed_inputs(self, tree8x3):
        spec = ChurnSpec(n_events=12, seed=42)
        assert generate_trace(tree8x3, spec) == generate_trace(tree8x3, spec)

    def test_different_seeds_differ(self, tree8x3):
        a = generate_trace(tree8x3, ChurnSpec(n_events=12, seed=0))
        b = generate_trace(tree8x3, ChurnSpec(n_events=12, seed=1))
        assert a.events != b.events

    def test_events_are_sequentially_valid_and_connected(self, tree8x3):
        trace = generate_trace(tree8x3, ChurnSpec(n_events=20, seed=3))
        fabric = DegradedFabric(tree8x3)
        for event in trace:  # apply() raises on an invalid event
            event.apply(fabric)
            assert fabric.is_connected

    def test_first_event_is_a_failure(self, tree8x3):
        trace = generate_trace(tree8x3, ChurnSpec(n_events=5, seed=9))
        assert trace.events[0].action == "fail"

    def test_switch_fraction_produces_switch_events(self, tree8x3):
        spec = ChurnSpec(n_events=24, switch_fraction=1.0, seed=0)
        trace = generate_trace(tree8x3, spec)
        assert any(e.kind == "switch" for e in trace)

    def test_unchurnable_topology_raises(self):
        # XGFT(1; 4; 1): every cable is a host's only uplink and the
        # only switch carries all hosts — nothing is samplable.
        with pytest.raises(FaultError, match="no non-critical"):
            generate_trace(XGFT(1, (4,), (1,)), ChurnSpec(n_events=2))

    def test_describe_lists_events(self, tree8x2):
        trace = generate_trace(tree8x2, ChurnSpec(n_events=3, seed=1))
        text = trace.describe()
        for event in trace:
            assert event.label in text


@lru_cache(maxsize=None)
def _candidate_links(xgft) -> dict[int, frozenset]:
    """Every pair key's candidate links, path by path from
    :func:`build_path`."""
    n = xgft.n_procs
    return {s * n + d: frozenset(
                link for t in range(xgft.num_shortest_paths(s, d))
                for link in build_path(xgft, s, d, t).links)
            for s in range(n) for d in range(n) if s != d}


def _brute_force_pairs(xgft, link_ids):
    """All pair keys with a candidate path through any of ``link_ids``."""
    wanted = set(int(l) for l in np.atleast_1d(link_ids))
    return np.array(sorted(key for key, links in _candidate_links(xgft).items()
                           if wanted & links), dtype=np.int64)


class TestCandidateLinkIndex:
    """The link -> candidate pairs map, in closed form
    (:func:`candidate_pairs`)."""

    @pytest.mark.parametrize("make", [
        lambda: m_port_n_tree(4, 2),
        lambda: XGFT(2, (3, 2), (1, 2)),
    ])
    def test_matches_brute_force(self, make):
        xgft = make()
        for link in range(0, xgft.n_links, 7):
            expected = _brute_force_pairs(xgft, [link])
            assert np.array_equal(candidate_pairs(xgft, [link]), expected)

    def test_pairs_unions_and_dedups(self):
        xgft = m_port_n_tree(4, 2)
        links = [0, 1, xgft.n_links - 1]
        expected = _brute_force_pairs(xgft, links)
        assert np.array_equal(candidate_pairs(xgft, links), expected)
        # repeated links, in any order, name each pair once
        assert np.array_equal(
            candidate_pairs(xgft, np.array(links[::-1] + links + [1])),
            expected)
        empty = candidate_pairs(xgft, [])
        assert empty.size == 0 and empty.dtype == np.int64

    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    def test_every_link_of_the_pool(self, xgft):
        for link in range(xgft.n_links):
            assert np.array_equal(candidate_pairs(xgft, [link]),
                                  _brute_force_pairs(xgft, [link]))


class TestIncrementalDegradedScheme:
    def test_rejects_stacked_and_mismatched(self, tree8x2, tree8x3):
        base = make_scheme(tree8x2, "disjoint:2")
        inc = IncrementalDegradedScheme(base)
        with pytest.raises(FaultError, match="stack"):
            IncrementalDegradedScheme(inc)
        with pytest.raises(FaultError, match="different topologies"):
            IncrementalDegradedScheme(base, DegradedFabric(tree8x3))

    def test_pristine_is_transparent(self, tree8x2):
        base = make_scheme(tree8x2, "disjoint:2")
        inc = IncrementalDegradedScheme(base)
        s = np.arange(tree8x2.n_procs, dtype=np.int64)
        d = (s + tree8x2.n_procs // 2) % tree8x2.n_procs
        k = int(tree8x2.nca_level(int(s[0]), int(d[0])))
        assert np.array_equal(inc.path_index_matrix(s, d, k),
                              base.path_index_matrix(s, d, k))
        assert inc.path_weight_matrix(s, d, k) is None
        assert inc.route(0, 17).num_paths >= 1

    def test_label_tracks_fabric(self, tree8x2):
        inc = IncrementalDegradedScheme(make_scheme(tree8x2, "disjoint:2"))
        assert inc.label.endswith("@pristine")
        up1, _ = tree8x2.boundary_link_slices(1)
        inc.apply_event(ChurnEvent("fail", "cable", up1.start))
        assert inc.label.endswith("@1c0s")

    def test_disconnecting_event_rolls_back(self, tree8x2):
        base = make_scheme(tree8x2, "disjoint:2")
        inc = IncrementalDegradedScheme(base)
        up0, _ = tree8x2.boundary_link_slices(0)
        critical = ChurnEvent("fail", "cable", up0.start)
        with pytest.raises(DisconnectedPairError):
            inc.apply_event(critical)
        # Fabric and state are exactly as before the event.
        assert inc.fabric.is_pristine
        assert inc.fabric.failed_cables == ()
        s = np.arange(tree8x2.n_procs, dtype=np.int64)
        d = (s + 1) % tree8x2.n_procs
        for k in range(1, tree8x2.h + 1):
            mask = tree8x2.nca_level(s, d) == k
            if not mask.any():
                continue
            assert np.array_equal(
                inc.path_index_matrix(s[mask], d[mask], k),
                base.path_index_matrix(s[mask], d[mask], k))

    def test_rollback_after_partial_damage(self, tree8x2):
        # With one upper cable already failed, a critical host uplink
        # must roll back to the 1-cable state, not to pristine.
        inc = IncrementalDegradedScheme(make_scheme(tree8x2, "disjoint:2"))
        up0, _ = tree8x2.boundary_link_slices(0)
        up1, _ = tree8x2.boundary_link_slices(1)
        inc.apply_event(ChurnEvent("fail", "cable", up1.start))
        before = inc.fabric.link_ok.copy()
        with pytest.raises(DisconnectedPairError):
            inc.apply_event(ChurnEvent("fail", "cable", up0.start))
        assert np.array_equal(inc.fabric.link_ok, before)
        assert inc.fabric.failed_cables == (up1.start,)

    def test_replay_returns_per_event_stats(self, tree8x3):
        inc = IncrementalDegradedScheme(make_scheme(tree8x3, "disjoint:4"))
        trace = generate_trace(tree8x3, ChurnSpec(n_events=6, seed=11))
        stats = inc.replay(trace)
        assert len(stats) == len(trace)
        for st, event in zip(stats, trace):
            assert st.event == event
            assert st.links_changed >= 0
            assert 0 <= st.pairs_recomputed <= st.pairs_total
            assert st.seconds >= 0.0

    def test_single_cable_pairs_reduction_is_at_least_10x(self, tree8x3):
        # THE acceptance gate: on the 8-port 3-tree, re-routing after a
        # single cable failure touches >=10x fewer pairs than a full
        # recompile, asserted through the telemetry counter.
        base = make_scheme(tree8x3, "disjoint:4")
        cable = int(samplable_cables(tree8x3)[0])
        rec = Recorder()
        with use_recorder(rec):
            inc = IncrementalDegradedScheme(base)
            stats = inc.apply_event(ChurnEvent("fail", "cable", cable))
        counted = rec.counters["faults.reroute.pairs_recomputed"]
        assert counted == stats.pairs_recomputed
        assert stats.pairs_total >= 10 * counted
        assert stats.pairs_total == inc.n_pairs

    def test_reroute_telemetry(self, tree8x3):
        rec = Recorder()
        trace = generate_trace(tree8x3, ChurnSpec(n_events=4, seed=5))
        with use_recorder(rec):
            inc = IncrementalDegradedScheme(
                make_scheme(tree8x3, "disjoint:4"))
            stats = inc.replay(trace)
        assert rec.counters["faults.reroute.events"] == len(trace)
        assert rec.counters["faults.reroute.links_changed"] == sum(
            st.links_changed for st in stats)
        assert "faults.reroute.apply" in rec.timers
        assert "faults.reroute.pairs_per_event" in rec.hists

    def test_batch_with_wrong_level_raises(self, tree8x2):
        inc = IncrementalDegradedScheme(make_scheme(tree8x2, "disjoint:2"))
        up1, _ = tree8x2.boundary_link_slices(1)
        inc.apply_event(ChurnEvent("fail", "cable", up1.start))
        s, d = np.array([0]), np.array([1])  # NCA level 1 pair
        with pytest.raises(FaultError, match="NCA level"):
            inc.path_index_matrix(s, d, tree8x2.h)
