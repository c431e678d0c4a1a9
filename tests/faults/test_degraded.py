"""Unit tests for the degraded-fabric mask (cables, switches, liveness)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import FaultError, RoutingError
from repro.faults import DegradedFabric, cable_links, switch_links
from repro.routing.vectorized import path_link_matrix
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT

from tests.conftest import TOPOLOGY_POOL, pool_ids


class TestCableLinks:
    def test_pairing_mirrors_endpoints(self, tree8x2):
        up0, _ = tree8x2.boundary_link_slices(0)
        up1, _ = tree8x2.boundary_link_slices(1)
        for up in list(range(up0.start, up0.stop))[::5] + \
                list(range(up1.start, up1.stop))[::7]:
            u, d = cable_links(tree8x2, up)
            assert u == up
            uref, dref = tree8x2.link_ref(u), tree8x2.link_ref(d)
            assert dref.kind.value == "down"
            assert dref.src_index == uref.dst_index
            assert dref.dst_index == uref.src_index
            assert dref.src_level == uref.dst_level

    def test_rejects_down_link(self, tree8x2):
        _, down = tree8x2.boundary_link_slices(0)
        with pytest.raises(FaultError, match="down link"):
            cable_links(tree8x2, down.start)


class TestSwitchLinks:
    @pytest.mark.parametrize("level,index", [(1, 0), (1, 5), (2, 3)])
    def test_incident_links_touch_the_switch(self, tree8x3, level, index):
        links = switch_links(tree8x3, level, index)
        expected = 2 * tree8x3.m[level - 1]
        if level < tree8x3.h:
            expected += 2 * tree8x3.w[level]
        assert len(links) == len(set(links)) == expected
        for c in links:
            ref = tree8x3.link_ref(c)
            assert ((ref.src_level, ref.src_index) == (level, index)
                    or (ref.dst_level, ref.dst_index) == (level, index))

    def test_bad_coordinates(self, tree8x2):
        with pytest.raises(FaultError):
            switch_links(tree8x2, 0, 0)
        with pytest.raises(FaultError):
            switch_links(tree8x2, 1, tree8x2.level_size(1))


class TestDegradedFabric:
    def test_pristine(self, tree8x2):
        fabric = DegradedFabric(tree8x2)
        assert fabric.is_pristine
        assert fabric.is_connected
        assert fabric.tag == "pristine"
        assert fabric.alive_fraction == 1.0
        assert fabric.n_failed_links == 0

    def test_cable_kills_both_directions(self, tree8x2):
        up1, _ = tree8x2.boundary_link_slices(1)
        cable = up1.start + 3
        fabric = DegradedFabric(tree8x2, failed_cables=[cable])
        up, down = cable_links(tree8x2, cable)
        assert not fabric.link_ok[up] and not fabric.link_ok[down]
        assert fabric.n_failed_links == 2
        assert fabric.n_failed_cables == 1
        assert fabric.tag == "1c0s"

    def test_switch_kills_all_incident_links(self, tree8x3):
        fabric = DegradedFabric(tree8x3, failed_switches=[(2, 7)])
        dead = switch_links(tree8x3, 2, 7)
        assert not fabric.link_ok[dead].any()
        assert fabric.n_failed_links == len(dead)

    def test_mask_is_readonly(self, tree8x2):
        fabric = DegradedFabric(tree8x2)
        with pytest.raises(ValueError):
            fabric.link_ok[0] = False

    def test_critical_host_cable_disconnects(self, tree8x2):
        # w_1 = 1 in every m-port tree: a host's single uplink is a
        # single point of failure.
        up0, _ = tree8x2.boundary_link_slices(0)
        fabric = DegradedFabric(tree8x2, failed_cables=[up0.start])
        assert not fabric.is_connected

    def test_single_upper_cable_keeps_connectivity(self, tree8x2):
        up1, _ = tree8x2.boundary_link_slices(1)
        fabric = DegradedFabric(tree8x2, failed_cables=[up1.start])
        assert fabric.is_connected

    def test_path_alive_matrix(self, tree8x2):
        up1, _ = tree8x2.boundary_link_slices(1)
        fabric = DegradedFabric(tree8x2, failed_cables=[up1.start])
        n = tree8x2.n_procs
        s = np.array([0]); d = np.array([n - 1])
        x = tree8x2.max_paths
        alive = fabric.path_alive_matrix(
            s, d, np.arange(x, dtype=np.int64)[None, :], tree8x2.h)
        # Exactly one of the pair's paths used the dead cable.
        assert alive.sum() == x - 1

    def test_describe_names_damage(self, tree8x3):
        up1, _ = tree8x3.boundary_link_slices(1)
        fabric = DegradedFabric(tree8x3, failed_cables=[up1.start],
                                failed_switches=[(2, 0)])
        text = fabric.describe()
        assert "dead cable" in text and "dead switch" in text

    def test_connectivity_on_irregular_tree(self, irregular):
        fabric = DegradedFabric(irregular)
        assert fabric.is_connected

    def test_multi_level_xgft_switch_failure(self):
        xgft = XGFT(3, (4, 4, 4), (1, 4, 2))
        fabric = DegradedFabric(xgft, failed_switches=[(3, 0)])
        assert fabric.is_connected  # W(3) = 8 top switches, one lost
        assert fabric.n_failed_switches == 1


def brute_force_connected(fabric: DegradedFabric) -> bool:
    """Whether every ordered pair keeps an alive shortest path, checked
    over every link of every path of every pair (an ``(n^2, W, 2k)``
    link tensor per level)."""
    xgft = fabric.xgft
    n = xgft.n_procs
    s, d = np.divmod(np.arange(n * n, dtype=np.int64), n)
    k_arr = xgft.nca_level(s, d)
    for k in range(1, xgft.h + 1):
        mask = k_arr == k
        if not mask.any():
            continue
        x = xgft.W(k)
        idx = np.broadcast_to(np.arange(x, dtype=np.int64),
                              (int(mask.sum()), x))
        alive = fabric.path_alive_matrix(s[mask], d[mask], idx, k)
        if not alive.any(axis=1).all():
            return False
    return True


class TestConnectivity:
    @pytest.mark.parametrize("xgft", [
        m_port_n_tree(4, 3), m_port_n_tree(8, 3), XGFT(3, (3, 2, 4), (1, 2, 3)),
        XGFT(2, (3, 5), (2, 3)), XGFT(3, (2, 3, 4), (2, 2, 2)),
    ], ids=repr)
    def test_equals_brute_force(self, xgft):
        """Random cable and switch faults, including trees with ``w_1 >
        1`` (several host uplinks); both answers occur."""
        rng = np.random.default_rng(xgft.n_links)
        ups = np.flatnonzero(xgft.link_is_up())
        answers = []
        for _ in range(60):
            cables = rng.choice(ups, size=rng.integers(0, 6), replace=False)
            switches = {(int(level), int(rng.integers(xgft.level_size(level))))
                        for level in rng.integers(1, xgft.h + 1,
                                                  size=rng.integers(0, 3))}
            fabric = DegradedFabric(xgft, failed_cables=cables,
                                    failed_switches=switches)
            answers.append(fabric.is_connected)
            assert answers[-1] == brute_force_connected(fabric)
        assert set(answers) == {True, False}

    def test_pairs_below_a_dead_level_stay_connected(self):
        """With one subtree under the top level (``m_h = 1``) no pair's
        NCA is a top switch, so losing every top switch strands no pair."""
        xgft = XGFT(2, (4, 1), (1, 2))
        fabric = DegradedFabric(xgft, failed_switches=[(2, 0), (2, 1)])
        assert fabric.is_connected
        assert brute_force_connected(fabric)

    def test_sixteen_port_tree_memory(self):
        """The brute force's level-3 link tensor is about 3 GB here."""
        xgft = m_port_n_tree(16, 3)
        top_up, _ = xgft.boundary_link_slices(2)
        fabric = DegradedFabric(
            xgft, failed_cables=[top_up.start, top_up.start + 5],
            failed_switches=[(3, 0), (2, 7)])
        tracemalloc.start()
        try:
            connected = fabric.is_connected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert connected
        assert peak < 256 * 2**20
        fabric.fail_cable(xgft.boundary_link_slices(0)[0].start)
        assert not fabric.is_connected  # a host's only uplink


def gathered_alive(fabric, s, d, idx, k) -> np.ndarray:
    """Path liveness through the ``(n, P, 2k)`` link-id tensor: whether
    every link id of each path is alive."""
    return fabric.link_ok[path_link_matrix(fabric.xgft, s, d, idx, k)].all(
        axis=2)


def random_fabric(xgft, rng) -> DegradedFabric:
    """A few random dead cables and switches (critical ones included)."""
    ups = np.flatnonzero(xgft.link_is_up())
    cables = rng.choice(ups, size=min(ups.size, rng.integers(0, 5)),
                        replace=False)
    switches = {(int(level), int(rng.integers(xgft.level_size(level))))
                for level in rng.integers(1, xgft.h + 1,
                                          size=rng.integers(0, 3))}
    return DegradedFabric(xgft, failed_cables=cables, failed_switches=switches)


def assert_liveness_matches(fabric, rng) -> None:
    """:meth:`path_alive_matrix` equals the link-tensor gather on every
    pair of every level, for all of a pair's paths and for a random
    ``(n, P)`` selection with repeats."""
    xgft = fabric.xgft
    n = xgft.n_procs
    s_all, d_all = np.divmod(np.arange(n * n, dtype=np.int64), n)
    k_all = xgft.nca_level(s_all, d_all)
    for k in range(xgft.h + 1):
        s, d = s_all[k_all == k], d_all[k_all == k]
        x = xgft.W(k)
        for idx in (np.broadcast_to(np.arange(x), (s.size, x)),
                    rng.integers(x, size=(s.size, 3))):
            alive = fabric.path_alive_matrix(s, d, idx, k)
            assert alive.shape == idx.shape
            assert np.array_equal(alive, gathered_alive(fabric, s, d, idx, k))


class TestPathLiveness:
    """Path liveness from the per-level ``(n_procs, W(k))`` tables equals
    the per-path link gather it replaced."""

    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    def test_equals_link_gather(self, xgft):
        rng = np.random.default_rng(xgft.n_links)
        dead = 0
        for _ in range(6):
            fabric = random_fabric(xgft, rng)
            assert_liveness_matches(fabric, rng)
            dead += fabric.n_failed_links
        assert dead

    def test_tables_follow_the_version(self, tree8x3):
        """Fail, query, repair, query, fail another: every query sees
        the current mask, never tables cached at an earlier version."""
        rng = np.random.default_rng(0)
        fabric = DegradedFabric(tree8x3)
        up1, _ = tree8x3.boundary_link_slices(1)
        up2, _ = tree8x3.boundary_link_slices(2)
        assert_liveness_matches(fabric, rng)  # warm every level's tables
        fabric.fail_cable(up1.start)
        assert_liveness_matches(fabric, rng)
        fabric.repair_cable(up1.start)
        assert_liveness_matches(fabric, rng)
        fabric.fail_cable(up2.start + 3)
        assert_liveness_matches(fabric, rng)
        fabric.fail_switch(2, 5)
        assert_liveness_matches(fabric, rng)

    def test_tables_are_read_only_and_shared(self, tree8x3):
        fabric = DegradedFabric(tree8x3, failed_switches=[(2, 1)])
        up_ok, down_ok = fabric.level_liveness(3)
        assert up_ok.shape == down_ok.shape == (tree8x3.n_procs, tree8x3.W(3))
        with pytest.raises(ValueError):
            up_ok[0, 0] = False
        assert fabric.is_connected
        assert fabric.level_liveness(3)[0] is up_ok

    @pytest.mark.parametrize("t", [-1, 16], ids=["below", "above"])
    def test_out_of_range_index_raises(self, tree8x3, t):
        fabric = DegradedFabric(tree8x3)
        with pytest.raises(RoutingError,
                           match=rf"path index {t} out of range \[0, 16\)"):
            fabric.path_alive_matrix(np.array([0]), np.array([127]),
                                     np.array([[0, t]]), 3)


class TestFabricMutation:
    """In-place fail/repair events: refcounts, caches, versioning."""

    def test_fail_repair_roundtrip_restores_pristine(self, tree8x2):
        up1, _ = tree8x2.boundary_link_slices(1)
        fabric = DegradedFabric(tree8x2)
        dead = fabric.fail_cable(up1.start)
        assert dead.size == 2 and not fabric.is_pristine
        revived = fabric.repair_cable(up1.start)
        assert sorted(revived) == sorted(dead)
        assert fabric.is_pristine
        assert fabric.link_ok.all()
        assert fabric.failed_cables == ()

    def test_is_connected_cache_invalidated_on_failure(self, tree8x2):
        # Regression: the cached answer must never survive a mutation.
        # Query (caches True) -> fail a critical host uplink -> the next
        # query must be recomputed, not served stale.
        up0, _ = tree8x2.boundary_link_slices(0)
        fabric = DegradedFabric(tree8x2)
        assert fabric.is_connected
        fabric.fail_cable(up0.start)
        assert not fabric.is_connected

    def test_is_connected_cache_invalidated_on_repair(self, tree8x2):
        up0, _ = tree8x2.boundary_link_slices(0)
        fabric = DegradedFabric(tree8x2, failed_cables=[up0.start])
        assert not fabric.is_connected
        fabric.repair_cable(up0.start)
        assert fabric.is_connected

    def test_version_bumps_on_every_event(self, tree8x2):
        up1, _ = tree8x2.boundary_link_slices(1)
        fabric = DegradedFabric(tree8x2)
        v0 = fabric.version
        fabric.fail_cable(up1.start)
        v1 = fabric.version
        fabric.repair_cable(up1.start)
        assert v0 < v1 < fabric.version

    def test_overlapping_switch_and_cable_refcount(self, tree8x3):
        # A link covered by a dead switch AND a dead cable only comes
        # back when its last cause is repaired.
        fabric = DegradedFabric(tree8x3)
        incident = switch_links(tree8x3, 1, 0)
        cable = next(c for c in incident
                     if tree8x3.link_ref(c).kind.value == "up")
        up, down = cable_links(tree8x3, cable)
        fabric.fail_switch(1, 0)
        changed = fabric.fail_cable(cable)
        assert changed.size == 0  # both links already dead via the switch
        fabric.repair_switch(1, 0)
        assert not fabric.link_ok[up] and not fabric.link_ok[down]
        revived = fabric.repair_cable(cable)
        assert sorted(revived) == sorted((up, down))
        assert fabric.is_pristine

    def test_double_fail_and_repair_unfailed_raise(self, tree8x2):
        up1, _ = tree8x2.boundary_link_slices(1)
        fabric = DegradedFabric(tree8x2)
        fabric.fail_cable(up1.start)
        with pytest.raises(FaultError, match="already failed"):
            fabric.fail_cable(up1.start)
        with pytest.raises(FaultError, match="is not failed"):
            fabric.repair_cable(up1.start + 1)
        with pytest.raises(FaultError, match="is not failed"):
            fabric.repair_switch(1, 0)
        fabric.fail_switch(1, 0)
        with pytest.raises(FaultError, match="already failed"):
            fabric.fail_switch(1, 0)

    def test_constructor_equals_event_sequence(self, tree8x3):
        up1, _ = tree8x3.boundary_link_slices(1)
        cables = [up1.start, up1.start + 2]
        at_once = DegradedFabric(tree8x3, failed_cables=cables,
                                 failed_switches=[(2, 1)])
        stepwise = DegradedFabric(tree8x3)
        for c in cables:
            stepwise.fail_cable(c)
        stepwise.fail_switch(2, 1)
        assert np.array_equal(at_once.link_ok, stepwise.link_ok)
        assert at_once.failed_cables == stepwise.failed_cables
        assert at_once.failed_switches == stepwise.failed_switches


def test_m_port_tree_cable_pairing_exhaustive():
    xgft = m_port_n_tree(4, 2)
    for boundary in range(xgft.h):
        up, _ = xgft.boundary_link_slices(boundary)
        for cable in range(up.start, up.stop):
            u, d = cable_links(xgft, cable)
            uref, dref = xgft.link_ref(u), xgft.link_ref(d)
            assert (uref.src_level, uref.src_index) == (dref.dst_level,
                                                        dref.dst_index)
