"""Fault-aware selection's two paths: native and numpy.

``select_level`` makes one native ``select_surviving`` call
(``routing/select.c``) that walks each pair's preference order over the
fabric's liveness tables; without the library it gathers an ``(n, X)``
alive matrix (``path_alive_matrix``) and selects with numpy
(``select_surviving``).  Each case here runs on both paths: drawn orders
and tables against a row-by-row statement of the rule, the error
precedence, and the tables both fault-aware schemes keep under churn.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import native
from repro.errors import DisconnectedPairError, FaultError, RoutingError
from repro.faults import (
    ChurnEvent,
    ChurnSpec,
    DegradedFabric,
    DegradedScheme,
    IncrementalDegradedScheme,
    generate_trace,
    samplable_cables,
)
from repro.faults.scheme import _select_native, select_level
from repro.obs.recorder import Recorder, use_recorder
from repro.routing.factory import make_scheme
from repro.routing.modk import DModK
from repro.routing.vectorized import level_pairs
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT

from tests.conftest import TOPOLOGY_POOL, pool_ids
from tests.flow.test_kernel import on_both_paths

TREES = [
    XGFT(2, (2, 2), (1, 2)),
    XGFT(3, (3, 2, 4), (1, 2, 3)),  # W(3) = 6
    m_port_n_tree(8, 3),            # W(3) = 16
    XGFT(2, (3, 4), (2, 8)),        # W(2) = 16, two host uplinks
]

SPECS = ("d-mod-k", "shift-1:2", "disjoint:3", "random:2", "umulti")


class GivenLiveness(DegradedFabric):
    """A fabric whose every level reports the given ``(up_ok, down_ok)``
    liveness tables; ``path_alive_matrix`` reads them as it reads a real
    fabric's."""

    def __init__(self, xgft, up_ok, down_ok):
        super().__init__(xgft)
        self.tables = (up_ok, down_ok)

    def level_liveness(self, k):
        return self.tables


def rule(s, d, order, up_ok, down_ok, p):
    """The re-route rule one row at a time: the first ``min(p, alive)``
    surviving paths in order at weight ``1 / min(p, alive)``, padded
    with the first surviving path at weight 0."""
    idx = np.empty((len(order), p), dtype=np.int64)
    weights = np.zeros((len(order), p))
    for i, row in enumerate(order.tolist()):
        live = [t for t in row if up_ok[s[i], t] and down_ok[d[i], t]]
        if not live:
            raise DisconnectedPairError(int(s[i]), int(d[i]))
        take = live[:p]
        idx[i] = take + [live[0]] * (p - len(take))
        weights[i, :len(take)] = 1.0 / len(take)
    return idx, weights


@st.composite
def level_queries(draw):
    """A level query on one of :data:`TREES`: nodes, a permutation order
    per row, a path limit ``P`` in ``[1, X]`` and liveness tables where
    every path is live, each destination keeps fewer than ``P`` (at
    least one), exactly one, or any number (rows may have none)."""
    xgft = draw(st.sampled_from(TREES))
    k = draw(st.integers(1, xgft.h))
    x, n_procs = xgft.W(k), xgft.n_procs
    p = draw(st.integers(1, x))
    n = draw(st.integers(0, 12))
    nodes = st.lists(st.integers(0, n_procs - 1), min_size=n, max_size=n)
    s = np.array(draw(nodes), dtype=np.int64)
    d = np.array(draw(nodes), dtype=np.int64)
    order = np.array([draw(st.permutations(range(x))) for _ in range(n)],
                     dtype=np.int64).reshape(n, x)
    mode = draw(st.sampled_from(["all", "fewer", "one", "any"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    up_ok = np.ones((n_procs, x), dtype=bool)
    if mode == "any":
        up_ok = rng.random((n_procs, x)) < rng.random()
        down_ok = rng.random((n_procs, x)) < rng.random()
    elif mode == "all":
        down_ok = np.ones((n_procs, x), dtype=bool)
    else:
        # every row of a destination keeps the same ``live`` paths
        down_ok = np.zeros((n_procs, x), dtype=bool)
        for node in range(n_procs):
            live = 1 if mode == "one" else rng.integers(1, max(p - 1, 1) + 1)
            down_ok[node, rng.permutation(x)[:live]] = True
    return xgft, k, s, d, order, up_ok, down_ok, p


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(query=level_queries())
def test_drawn_queries_follow_the_rule(kernel_path, query):
    xgft, k, s, d, order, up_ok, down_ok, p = query
    fabric = GivenLiveness(xgft, up_ok, down_ok)
    try:
        want = rule(s, d, order, up_ok, down_ok, p)
    except DisconnectedPairError as exc:
        with pytest.raises(DisconnectedPairError) as got:
            select_level(fabric, k, s, d, order, p)
        assert (got.value.src, got.value.dst) == (exc.src, exc.dst)
        return
    idx, weights = select_level(fabric, k, s, d, order, p)
    assert idx.dtype == np.int64 and weights.dtype == np.float64
    assert idx.shape == weights.shape == (len(s), p)
    assert np.array_equal(idx, want[0])
    assert np.array_equal(weights, want[1])


def test_kernel_matches_numpy_on_a_wide_level():
    """W(2) = 512 paths per pair and P from 1 to X, on half-dead tables:
    the native call equals the numpy rule bit for bit."""
    if not native.available():
        pytest.skip(f"native library unavailable: {native.unavailable_reason()}")
    xgft = XGFT(2, (2, 2), (16, 32))
    rng = np.random.default_rng(3)
    n, x = 64, xgft.W(2)
    s, d = rng.integers(xgft.n_procs, size=(2, n))
    order = np.argsort(rng.random((n, x)), axis=1)
    up_ok, down_ok = rng.random((2, xgft.n_procs, x)) < 0.5
    down_ok[:, 7] = up_ok[:, 7] = True  # every pair keeps path 7
    for p in (1, 2, 100, 255, 256, 257, x - 1, x):
        native_out = _select_native(s, d, order, (up_ok, down_ok), p)
        want = rule(s, d, order, up_ok, down_ok, p)
        for got, expected in zip(native_out, want):
            assert np.array_equal(got, expected)


# -- errors ---------------------------------------------------------------

def damaged_tree8x2(tree8x2):
    """8-port 2-tree with host 0's only cable failed: every pair from or
    to node 0 is disconnected."""
    up0, _ = tree8x2.boundary_link_slices(0)
    return DegradedFabric(tree8x2, failed_cables=[up0.start])


class OutOfRangeOrder(DModK):
    """d-mod-k whose preference order puts path ``W(k)`` (outside
    ``[0, W(k))``) last in the row of every pair from ``bad_src``."""

    def __init__(self, xgft, bad_src: int):
        super().__init__(xgft)
        self.bad_src = bad_src

    def path_order_matrix(self, s, d, k):
        order = super().path_order_matrix(s, d, k).copy()
        order[np.asarray(s) == self.bad_src, -1] = self.xgft.W(k)
        return order


def table_state(scheme):
    """Copies of a scheme's tables: the filled rows and their entries."""
    state = {}
    for k, (idx, weights, filled) in scheme._tables.items():
        rows = (np.arange(len(idx)) if filled is None
                else np.flatnonzero(filled))
        state[k] = (rows, idx[rows].copy(), weights[rows].copy())
    return state


def assert_same_state(a, b):
    assert a.keys() == b.keys()
    for k in a:
        for x, y in zip(a[k], b[k]):
            assert np.array_equal(x, y)


def test_first_disconnected_row_is_named(kernel_path, tree8x2):
    """Rows are selected in level-row (pair-key) order, so the pair named
    is the first disconnected one in key order, not in batch order."""
    fabric = GivenLiveness(tree8x2, *damaged_tree8x2(tree8x2).level_liveness(2))
    s, d = np.array([3, 5, 0, 0]), np.array([7, 0, 9, 12])
    order = DModK(tree8x2).path_order_matrix(s, d, 2)
    with pytest.raises(DisconnectedPairError) as exc:
        select_level(fabric, 2, s, d, order, 2)
    assert (exc.value.src, exc.value.dst) == (5, 0)

    scheme = DegradedScheme(make_scheme(tree8x2, "disjoint:2"),
                            damaged_tree8x2(tree8x2))
    scheme.path_selection(np.array([3, 9]), np.array([7, 30]), 2)
    before = table_state(scheme)
    with pytest.raises(DisconnectedPairError) as exc:
        scheme.path_selection(s, d, 2)
    assert (exc.value.src, exc.value.dst) == (0, 9)
    assert_same_state(table_state(scheme), before)


def test_bad_order_entry_after_a_disconnected_row(kernel_path, tree8x2):
    """An order entry outside ``[0, X)`` raises ``RoutingError`` even
    when an earlier row has no surviving path, on both paths, and leaves
    the tables as they were."""
    fabric = GivenLiveness(tree8x2, *damaged_tree8x2(tree8x2).level_liveness(2))
    s, d = np.array([0, 3]), np.array([9, 7])
    order = DModK(tree8x2).path_order_matrix(s, d, 2).copy()
    for bad in (4, -1):
        order[1, 3] = bad
        with pytest.raises(RoutingError, match=rf"path index {bad} out of"):
            select_level(fabric, 2, s, d, order, 1)

    scheme = DegradedScheme(OutOfRangeOrder(tree8x2, bad_src=3),
                            damaged_tree8x2(tree8x2))
    scheme.path_selection(np.array([4]), np.array([9]), 2)
    before = table_state(scheme)
    with pytest.raises(RoutingError, match=r"path index 4 out of range"):
        scheme.path_selection(s, d, 2)
    assert_same_state(table_state(scheme), before)


def test_stranding_event_leaves_incremental_tables(kernel_path, tree8x2):
    scheme = IncrementalDegradedScheme(make_scheme(tree8x2, "random:2"))
    scheme.apply_event(ChurnEvent("fail", "cable",
                                  int(samplable_cables(tree8x2)[0])))
    before = table_state(scheme)
    up0, _ = tree8x2.boundary_link_slices(0)
    with pytest.raises(DisconnectedPairError):
        scheme.apply_event(ChurnEvent("fail", "cable", up0.start))
    assert_same_state(table_state(scheme), before)
    with pytest.raises(DisconnectedPairError):
        IncrementalDegradedScheme(make_scheme(tree8x2, "random:2"),
                                  damaged_tree8x2(tree8x2))


def test_native_guards():
    """What only the C loop checks: node ids (it reads the tables by
    them), the path limit and the shapes it trusts."""
    if not native.available():
        pytest.skip(f"native library unavailable: {native.unavailable_reason()}")
    ok = np.ones((4, 3), dtype=bool)
    s, d = np.array([0, 1]), np.array([2, 3])
    order = np.array([[0, 1, 2], [2, 1, 0]])
    with pytest.raises(RoutingError, match=r"node id 4 out of range \[0, 4\)"):
        _select_native(s, np.array([2, 4]), order, (ok, ok), 2)
    with pytest.raises(RoutingError, match=r"node id -1 out of range"):
        _select_native(np.array([-1, 0]), d, order, (ok, ok), 2)
    with pytest.raises(ValueError, match="1 <= p <= X"):
        _select_native(s, d, order, (ok, ok), 4)
    with pytest.raises(ValueError, match="two contiguous"):
        _select_native(s, d, order, (ok, ok.astype(np.uint8)), 2)
    with pytest.raises(ValueError, match="two contiguous"):
        _select_native(s, d, order[:, :2], (ok, ok), 2)
    with pytest.raises(ValueError, match="two contiguous"):
        _select_native(s, d[:1], order, (ok, ok), 2)


def test_timer_names_the_path(kernel_path, tree8x2):
    scheme = DegradedScheme(make_scheme(tree8x2, "disjoint:2"),
                            DegradedFabric(tree8x2, failed_cables=[
                                int(samplable_cables(tree8x2)[0])]))
    rec = Recorder()
    with use_recorder(rec):
        for k, (s, d) in level_pairs(tree8x2).pairs.items():
            scheme.path_selection(s, d, k)
    name = ("faults.kernel" if kernel_path == "native"
            else "faults.fallback.no_kernel")
    timers = {n: calls for n, (_, calls) in rec.timers.items()
              if n.startswith("faults.")}
    assert timers == {name: len(level_pairs(tree8x2).pairs)}


# -- both schemes' tables under churn ---------------------------------------

def replay_tables(xgft, trace, spec):
    """After each event of ``trace``: every level's selection from an
    incremental scheme following the trace and from a from-scratch
    scheme on a fabric the events are applied to directly."""
    inc = IncrementalDegradedScheme(make_scheme(xgft, spec))
    scratch = DegradedScheme(make_scheme(xgft, spec), DegradedFabric(xgft))
    out = []
    for event in trace:
        inc.apply_event(event)
        event.apply(scratch.degraded)
        for k, (s, d) in level_pairs(xgft).pairs.items():
            out += [*inc.path_selection(s, d, k),
                    *scratch.path_selection(s, d, k)]
    return out


@pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
def test_tables_equal_across_paths_under_churn(request, xgft):
    try:
        trace = generate_trace(xgft, ChurnSpec(
            n_events=6, switch_fraction=0.3, seed=len(repr(xgft))))
    except FaultError:
        pytest.skip("every element is critical: nothing to churn")
    fast, slow = on_both_paths(request, lambda: [
        replay_tables(xgft, trace, spec) for spec in SPECS])
    assert len(fast) == len(slow) == len(SPECS)
    for spec, a, b in zip(SPECS, fast, slow):
        assert len(a) == len(b) > 0
        for x, y in zip(a, b):
            if x is None or y is None:  # a pristine fabric: base routes
                assert x is None and y is None, spec
            else:
                assert x.dtype == y.dtype and np.array_equal(x, y), spec
