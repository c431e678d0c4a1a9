"""Batched reference evaluation: every row is the one-matrix call, bit for bit.

``link_loads`` over a sequence of traffic matrices must give, in row
``b``, exactly the floats of ``link_loads`` on matrix ``b`` alone: no
tolerance.  The one-matrix call is itself pinned, exactly, to a scalar
accumulation over :func:`~repro.routing.path.build_path` in the order
the evaluator adds to each link (NCA level, then the matrix's pair
order, then path order).  Covered: every scheme family, pristine and
degraded fabrics (from-scratch and incremental after churn), compiled
plans read as schemes, weighted non-permutation traffic, ``w_1 > 1``
trees and any chunking.

Every case runs on both scatter-add paths: each class as written on the
default path (the native library, which CI asserts loads), and again as
its ``...Numpy`` subclass with no compiler, on the numpy staging.  Both
are pinned to the same scalar order, so they agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.flow.loads as loads_mod
from repro.errors import TrafficError
from repro.faults.churn import (
    ChurnSpec,
    IncrementalDegradedScheme,
    candidate_pairs,
    generate_trace,
)
from repro.faults.degraded import DegradedFabric
from repro.faults.scheme import DegradedScheme
from repro.faults.spec import samplable_cables
from repro.flow.loads import link_loads, permutation_mloads
from repro.routing.compiled import compile_scheme
from repro.routing.factory import make_scheme
from repro.routing.path import build_path
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.permutations import permutation_matrix, random_permutation

TREES = [
    m_port_n_tree(4, 3),
    XGFT(3, (3, 2, 4), (2, 2, 3)),  # w_1 > 1 on a 3-level tree
    XGFT(2, (3, 5), (2, 3)),        # w_1 > 1 on a 2-level tree
]
SPECS = ["d-mod-k", "s-mod-k", "random-single", "shift-1:3", "disjoint:3",
         "random:3", "umulti"]


def ordered_reference(xgft, scheme, tm) -> np.ndarray:
    """Scalar loads, accumulated in the order the evaluator adds them."""
    loads = np.zeros(xgft.n_links)
    s_arr, d_arr, amounts = tm.network_pairs()
    levels = xgft.nca_level(s_arr, d_arr)
    for row in np.argsort(levels, kind="stable"):
        s, d = int(s_arr[row]), int(d_arr[row])
        rs = scheme.route(s, d)
        for t, frac in zip(rs.indices, rs.fractions):
            for link in build_path(xgft, s, d, t).links:
                loads[link] += amounts[row] * frac
    return loads


def traffic(xgft, seed) -> list[TrafficMatrix]:
    """Permutations, weighted sparse traffic with repeats and self-pairs,
    an empty matrix and a one-pair matrix."""
    rng = np.random.default_rng(seed)
    n = xgft.n_procs
    perms = [permutation_matrix(random_permutation(n, rng)) for _ in range(3)]
    count = 2 * n
    weighted = TrafficMatrix(n, rng.integers(n, size=count),
                             rng.integers(n, size=count),
                             rng.uniform(0.1, 3.0, count))
    return [perms[0], weighted, TrafficMatrix.empty(n), perms[1],
            TrafficMatrix(n, [0], [n - 1], [2.5]), perms[2]]


def assert_rows_are_single_calls(xgft, scheme, tms) -> np.ndarray:
    batch = link_loads(xgft, scheme, tms)
    assert batch.shape == (len(tms), xgft.n_links)
    assert batch.dtype == np.float64
    for row, tm in zip(batch, tms):
        assert np.array_equal(row, link_loads(xgft, scheme, tm))
    return batch


def damaged_fabric(xgft, seed) -> DegradedFabric:
    """A connected fabric with two failed cables."""
    rng = np.random.default_rng(seed)
    cables = samplable_cables(xgft)
    while True:
        picked = rng.choice(cables, size=2, replace=False)
        fabric = DegradedFabric(xgft, failed_cables=picked.tolist())
        if fabric.is_connected:
            return fabric


@pytest.mark.parametrize("xgft", TREES, ids=repr)
@pytest.mark.parametrize("spec", SPECS)
class TestPristine:
    def test_rows_equal_single_calls(self, xgft, spec):
        scheme = make_scheme(xgft, spec, seed=4)
        assert_rows_are_single_calls(xgft, scheme, traffic(xgft, 1))

    def test_single_call_is_the_ordered_scalar_sum(self, xgft, spec):
        scheme = make_scheme(xgft, spec, seed=4)
        for tm in traffic(xgft, 2):
            assert np.array_equal(link_loads(xgft, scheme, tm),
                                  ordered_reference(xgft, scheme, tm))

    def test_compiled_plan_read_as_a_scheme(self, xgft, spec):
        scheme = make_scheme(xgft, spec, seed=4)
        tms = traffic(xgft, 3)
        batch = assert_rows_are_single_calls(
            xgft, compile_scheme(xgft, scheme), tms)
        assert np.array_equal(batch, link_loads(xgft, scheme, tms))


@pytest.mark.parametrize("xgft", TREES[:2], ids=repr)
@pytest.mark.parametrize("spec", ["d-mod-k", "shift-1:2", "disjoint:3",
                                  "random:2", "umulti"])
class TestDegraded:
    def test_from_scratch_degraded_scheme(self, xgft, spec):
        scheme = DegradedScheme(make_scheme(xgft, spec, seed=2),
                                damaged_fabric(xgft, 5))
        tms = traffic(xgft, 4)
        batch = assert_rows_are_single_calls(xgft, scheme, tms)
        for row, tm in zip(batch, tms):
            assert np.array_equal(row, ordered_reference(xgft, scheme, tm))
        # a masked compiled plan reads the same per-pair weights
        assert np.array_equal(
            link_loads(xgft, compile_scheme(xgft, scheme), tms), batch)

    def test_incremental_scheme_after_every_churn_event(self, xgft, spec):
        base = make_scheme(xgft, spec, seed=2)
        inc = IncrementalDegradedScheme(base)
        tms = traffic(xgft, 6)
        trace = generate_trace(xgft, ChurnSpec(n_events=5, seed=3))
        for event in trace:
            inc.apply_event(event)
            batch = assert_rows_are_single_calls(xgft, inc, tms)
            oracle = DegradedScheme(base, DegradedFabric(
                xgft, failed_cables=inc.fabric.failed_cables,
                failed_switches=inc.fabric.failed_switches))
            assert np.array_equal(batch, link_loads(xgft, oracle, tms))


class TestChunking:
    @pytest.mark.parametrize("budget", [1, 50 * 12 * 6])
    def test_budget_does_not_change_the_result(self, monkeypatch, budget):
        xgft = XGFT(3, (3, 2, 4), (2, 2, 3))
        scheme = make_scheme(xgft, "random:3", seed=1)
        tms = traffic(xgft, 7) + traffic(xgft, 8)
        whole = link_loads(xgft, scheme, tms)
        # 1: every matrix is its own chunk; 50 pairs x W(h) x 2h: chunks
        # of one to three matrices
        monkeypatch.setattr(loads_mod, "CHUNK_ENTRIES", budget)
        assert np.array_equal(link_loads(xgft, scheme, tms), whole)

    def test_accepts_any_iterable(self):
        xgft = m_port_n_tree(4, 3)
        scheme = make_scheme(xgft, "disjoint:2")
        tms = traffic(xgft, 9)
        assert np.array_equal(link_loads(xgft, scheme, iter(tms)),
                              link_loads(xgft, scheme, tms))


class TestShapes:
    def test_empty_sequence(self):
        xgft = m_port_n_tree(4, 3)
        out = link_loads(xgft, make_scheme(xgft, "d-mod-k"), [])
        assert out.shape == (0, xgft.n_links)

    def test_one_matrix_is_a_vector(self):
        xgft = m_port_n_tree(4, 3)
        scheme = make_scheme(xgft, "d-mod-k")
        tm = traffic(xgft, 0)[0]
        single = link_loads(xgft, scheme, tm)
        assert single.shape == (xgft.n_links,)
        assert np.array_equal(link_loads(xgft, scheme, [tm]), single[None])

    def test_mismatched_n_procs_raises(self):
        xgft = m_port_n_tree(4, 3)
        scheme = make_scheme(xgft, "d-mod-k")
        n = xgft.n_procs
        tms = [TrafficMatrix.empty(n), TrafficMatrix.empty(n + 1)]
        with pytest.raises(ValueError, match=f"over {n + 1} nodes"):
            link_loads(xgft, scheme, tms)


class TestPermutationRounds:
    def test_round_equals_the_matrices_call(self):
        """A permutation round skips the traffic matrices, bit for bit."""
        xgft = XGFT(3, (3, 2, 4), (2, 2, 3))
        scheme = make_scheme(xgft, "random:3", seed=1)
        n = xgft.n_procs
        rng = np.random.default_rng(12)
        perms = np.stack([np.arange(n)]  # every node a fixed point
                         + [random_permutation(n, rng) for _ in range(5)])
        perms[1] = np.concatenate([[0, 1], 2 + rng.permutation(n - 2)])
        loads = link_loads(xgft, scheme, map(permutation_matrix, perms))
        assert np.array_equal(permutation_mloads(xgft, scheme, perms),
                              loads.max(axis=1, initial=0.0))

    def test_rejects_a_non_permutation_row(self):
        xgft = m_port_n_tree(4, 3)
        perms = np.stack([np.arange(xgft.n_procs)] * 3)
        perms[1, 0] = 1
        with pytest.raises(TrafficError, match="not a permutation"):
            permutation_mloads(xgft, make_scheme(xgft, "d-mod-k"), perms)


@pytest.mark.usefixtures("no_compiler")
class TestPristineNumpy(TestPristine):
    """:class:`TestPristine` on the numpy path."""


@pytest.mark.usefixtures("no_compiler")
class TestDegradedNumpy(TestDegraded):
    """:class:`TestDegraded` on the numpy path."""


@pytest.mark.usefixtures("no_compiler")
class TestChunkingNumpy(TestChunking):
    """:class:`TestChunking` on the numpy path."""


@pytest.mark.usefixtures("no_compiler")
class TestShapesNumpy(TestShapes):
    """:class:`TestShapes` on the numpy path."""


@pytest.mark.usefixtures("no_compiler")
class TestPermutationRoundsNumpy(TestPermutationRounds):
    """:class:`TestPermutationRounds` on the numpy path."""


def brute_force_index(xgft) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, pair_keys)`` of link -> sorted unique pair keys over
    every candidate path, from :func:`build_path`."""
    n = xgft.n_procs
    rows = [set() for _ in range(xgft.n_links)]
    for s in range(n):
        for d in range(n):
            for t in range(xgft.num_shortest_paths(s, d) if s != d else 0):
                for link in build_path(xgft, s, d, t).links:
                    rows[link].add(s * n + d)
    indptr = np.cumsum([0] + [len(r) for r in rows])
    keys = [key for r in rows for key in sorted(r)]
    return indptr, np.array(keys, dtype=np.int64)


@pytest.mark.parametrize("xgft", [m_port_n_tree(4, 3), XGFT(2, (3, 5), (2, 3))],
                         ids=repr)
def test_candidate_link_index_equals_brute_force(xgft):
    """The closed-form link -> candidate pairs map, link by link."""
    indptr, keys = brute_force_index(xgft)
    for link in range(xgft.n_links):
        assert np.array_equal(candidate_pairs(xgft, [link]),
                              keys[indptr[link]:indptr[link + 1]])
