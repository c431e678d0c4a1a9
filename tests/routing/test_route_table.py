"""RouteTable: the CSR flit route table, its builders and its views."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.faults import DegradedScheme, FaultSpec
from repro.flit import BatchedFlitSimulator, FlitConfig, UniformRandom
from repro.routing.compiled import compile_scheme
from repro.routing.factory import make_scheme
from repro.routing.path import build_path
from repro.routing.vectorized import RouteTable, compile_routes
from repro.topology.variants import m_port_n_tree

SPECS = ("d-mod-k", "disjoint:2", "shift-1:8", "random:8", "umulti")


@pytest.fixture(scope="module")
def tree4x3():
    return m_port_n_tree(4, 3)


@pytest.fixture(scope="module")
def degraded(tree4x3):
    """A masked scheme: at least one pair is short of its K paths."""
    fabric = FaultSpec(link_rate=0.1, seed=3).sample(tree4x3)
    assert fabric.is_connected and not fabric.is_pristine
    return DegradedScheme(make_scheme(tree4x3, "disjoint:4"), fabric)


def ordered_pairs(xgft):
    n = xgft.n_procs
    return [(s, d) for s in range(n) for d in range(n) if s != d]


class TestInvariants:
    @pytest.mark.parametrize("spec", SPECS)
    def test_csr_shape(self, tree4x3, spec):
        table = compile_routes(tree4x3, make_scheme(tree4x3, spec, seed=5))
        n = tree4x3.n_procs
        for arr in (table.pair_ptr, table.path_ptr, table.links):
            assert arr.dtype == np.int64
        assert table.pair_ptr.size == n * n + 1
        assert table.pair_ptr[0] == 0 and table.path_ptr[0] == 0
        assert np.all(np.diff(table.pair_ptr) >= 0)
        assert np.all(np.diff(table.path_ptr) >= 0)
        assert table.pair_ptr[-1] == table.n_paths
        assert table.path_ptr[-1] == table.links.size
        # level-k paths have 2k links; self-pairs own no paths
        keys = np.arange(n * n)
        s, d = np.divmod(keys, n)
        per_pair = np.diff(table.pair_ptr)
        level_of_path = np.repeat(tree4x3.nca_level(s, d), per_pair)
        assert np.array_equal(np.diff(table.path_ptr), 2 * level_of_path)
        assert not per_pair[s == d].any()
        assert len(table) == n * (n - 1)

    @pytest.mark.parametrize("spec", SPECS)
    def test_every_pair_matches_build_path(self, tree4x3, spec):
        scheme = make_scheme(tree4x3, spec, seed=5)
        table = compile_routes(tree4x3, scheme)
        for s, d in ordered_pairs(tree4x3):
            expected = [build_path(tree4x3, s, d, t).links
                        for t in scheme.route(s, d).indices]
            assert table[s * tree4x3.n_procs + d] == expected

    @pytest.mark.parametrize("spec", SPECS)
    def test_compiled_plan_serves_the_same_arrays(self, tree4x3, spec):
        scheme = make_scheme(tree4x3, spec, seed=5)
        table = compile_routes(tree4x3, scheme)
        served = compile_routes(tree4x3, compile_scheme(tree4x3, scheme))
        assert served == table
        for name in ("pair_ptr", "path_ptr", "links"):
            assert np.array_equal(getattr(served, name), getattr(table, name))


def test_from_blocks_compacts_any_keep_mask():
    links = np.arange(12, dtype=np.int64).reshape(2, 3, 2)
    keep = np.array([[False, True, True], [True, False, True]])
    table = RouteTable.from_blocks(4, [(np.array([3, 1]), keep, links)])
    assert dict(table) == {1: [(6, 7), (10, 11)], 3: [(2, 3), (4, 5)]}


class TestMasked:
    def test_drops_weight_zero_padding(self, tree4x3, degraded):
        n = tree4x3.n_procs
        table = compile_routes(tree4x3, degraded)
        short = 0
        for s, d in ordered_pairs(tree4x3):
            k = int(tree4x3.nca_level(s, d))
            pair = (np.array([s]), np.array([d]), k)
            idx = degraded.path_index_matrix(*pair)[0]
            weights = degraded.path_weight_matrix(*pair)[0]
            expected = [build_path(tree4x3, s, d, int(t)).links
                        for t, w in zip(idx, weights) if w > 0.0]
            assert table[s * n + d] == expected
            short += len(expected) < len(idx)
        assert short > 0
        assert degraded.degraded.link_ok[table.links].all()

    def test_compiled_plan_drops_the_same_padding(self, tree4x3, degraded):
        # a fault-aware scheme is its own plan; a fresh one, filled by a
        # few pairs first, serves the same tables
        assert compile_scheme(tree4x3, degraded) is degraded
        plan = DegradedScheme(degraded.base, degraded.degraded)
        pairs = np.array([[0, 15], [3, 2], [9, 4]])
        assert (compile_routes(tree4x3, plan, pairs)
                == compile_routes(tree4x3, degraded, pairs))
        table = compile_routes(tree4x3, degraded)
        served = compile_routes(tree4x3, plan)
        assert served == table
        assert np.array_equal(served.pair_ptr, table.pair_ptr)
        assert np.array_equal(served.links, table.links)


class TestMappingView:
    FABRIC = {  # fabric-style: variable lengths, unsorted keys
        7: [(4, 0, 2), (5,)],
        1: [(3, 3)],
        4: [(0,), (1, 2, 6, 7), (2,)],
    }

    def test_from_mapping_round_trips(self):
        table = RouteTable.from_mapping(self.FABRIC, n_keys=9)
        assert table == self.FABRIC
        assert dict(table) == self.FABRIC
        assert list(table) == [1, 4, 7]
        assert table.pair_ptr.tolist() == [0, 0, 1, 1, 1, 4, 4, 4, 6, 6]
        assert table.path_ptr.tolist() == [0, 2, 3, 7, 8, 11, 12]

    def test_missing_and_empty_keys(self):
        table = RouteTable.from_mapping({2: [(1,)], 3: []}, n_keys=4)
        assert len(table) == 1 and 3 not in table
        for key in (0, 3, 4, -1):
            with pytest.raises(KeyError):
                table[key]

    @pytest.mark.parametrize("key", [-1, 4])
    def test_from_mapping_rejects_out_of_range_keys(self, key):
        with pytest.raises(KeyError):
            RouteTable.from_mapping({0: [(1,)], key: [(2,)]}, n_keys=4)

    def test_empty_table(self):
        table = RouteTable.from_mapping({}, n_keys=4)
        assert len(table) == 0 and dict(table) == {}
        assert table.links.dtype == np.int64


def test_pickled_batched_simulator_runs_identically(tree4x3):
    sim = BatchedFlitSimulator(
        tree4x3, make_scheme(tree4x3, "random:8", seed=2),
        FlitConfig(warmup_cycles=100, measure_cycles=400, drain_cycles=400,
                   path_selection="per-packet"))
    clone = pickle.loads(pickle.dumps(sim))
    assert isinstance(clone.routes, RouteTable)
    assert np.array_equal(clone.routes.links, sim.routes.links)
    assert clone.run(UniformRandom(0.4), seed=9) == sim.run(UniformRandom(0.4),
                                                            seed=9)
