"""RouteTable: per-level path ids over shared path tables, its builders
and its views."""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.errors import RoutingError, SimulationError
from repro.faults import DegradedScheme, FaultSpec
from repro.flit import (
    BatchedFlitSimulator,
    FlitConfig,
    FlitSimulator,
    UniformRandom,
)
from repro.routing.compiled import compile_scheme
from repro.routing.factory import make_scheme
from repro.routing.heuristics import Disjoint
from repro.routing.path import build_path
from repro.routing.vectorized import (
    RouteTable,
    compile_routes,
    level_pairs,
    pair_part_tables,
    path_link_table,
)
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


def assert_same_blocks(a: RouteTable, b: RouteTable):
    assert sorted(a.blocks) == sorted(b.blocks)
    for k, block in a.blocks.items():
        for mine, theirs in zip(block, b.blocks[k]):
            assert (mine is None) == (theirs is None)
            if mine is not None:
                assert np.array_equal(mine, theirs)


class TestInvariants:
    @pytest.mark.parametrize("spec", SPECS)
    def test_csr_shape(self, tree4x3, spec):
        scheme = make_scheme(tree4x3, spec, seed=5)
        table = compile_routes(tree4x3, scheme)
        n = tree4x3.n_procs
        pairs = level_pairs(tree4x3)
        # pair keys map to a level and a row through level_pairs, uncopied
        assert table.level is pairs.level and table.row is pairs.row
        assert sorted(table.blocks) == sorted(pairs.pairs)
        for k, block in table.blocks.items():
            s, d = pairs.pairs[k]
            assert block.idx.dtype == np.int64
            assert np.array_equal(block.idx, scheme.path_index_matrix(s, d, k))
            assert block.live is None  # a pristine scheme uses every path
            # level k's CSR path table is path_link_table, 2k links a path
            assert np.array_equal(
                block.path_ptr, 2 * k * np.arange(tree4x3.W(k) + 1))
            assert np.shares_memory(block.links, path_link_table(tree4x3, k))
            for part, cached in zip((block.up, block.down),
                                    pair_part_tables(tree4x3, k)):
                assert part is cached
        # self-pairs own no route
        keys = np.arange(n * n)
        assert not table.level[keys // n == keys % n].any()
        assert len(table) == n * (n - 1)
        assert list(table) == [s * n + d for s, d in ordered_pairs(tree4x3)]

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
        assert_same_blocks(served, table)


class TestMasked:
    def test_drops_weight_zero_padding(self, tree4x3, degraded):
        n = tree4x3.n_procs
        table = compile_routes(tree4x3, degraded)
        link_ok = degraded.degraded.link_ok
        short = 0
        for s, d in ordered_pairs(tree4x3):
            k = int(tree4x3.nca_level(s, d))
            pair = (np.array([s]), np.array([d]), k)
            idx = degraded.path_index_matrix(*pair)[0]
            weights = degraded.path_weight_matrix(*pair)[0]
            expected = [build_path(tree4x3, s, d, int(t)).links
                        for t, w in zip(idx, weights) if w > 0.0]
            paths = table[s * n + d]
            assert paths == expected
            assert all(link_ok[list(path)].all() for path in paths)
            # the live count covers the weighted paths, a prefix of the row
            block = table.blocks[k]
            assert block.live[table.row[s * n + d]] == len(expected)
            short += len(expected) < len(idx)
        assert short > 0

    def test_compiled_plan_drops_the_same_padding(self, tree4x3, degraded):
        # a fault-aware scheme is its own plan; a fresh one, filled by a
        # few pairs first, serves the same tables
        assert compile_scheme(tree4x3, degraded) is degraded
        plan = DegradedScheme(degraded.base, degraded.degraded)
        for s, d in ((0, 15), (3, 2), (9, 4)):
            plan.path_index_matrix(np.array([s]), np.array([d]),
                                   int(tree4x3.nca_level(s, d)))
        table = compile_routes(tree4x3, degraded)
        served = compile_routes(tree4x3, plan)
        assert served == table
        assert_same_blocks(served, table)

    def test_padding_must_end_each_row(self, tree4x3):
        class PaddedFirst(Disjoint):
            """Weight 0 on a row's first path, 1 on its last."""

            def path_weight_matrix(self, s, d, k):
                weights = np.zeros((len(s), self.paths_per_pair(k)))
                weights[:, -1] = 1.0
                return weights

        with pytest.raises(RoutingError, match="level-2 row"):
            compile_routes(tree4x3, PaddedFirst(tree4x3, 2))

    def test_simulator_names_a_failed_channel(self, tree4x3, degraded):
        # a pristine scheme on a damaged fabric routes over dead links
        fabric = degraded.degraded
        cfg = FlitConfig(warmup_cycles=10, measure_cycles=10)
        with pytest.raises(SimulationError,
                           match=r"failed channel (\d+);") as err:
            FlitSimulator(tree4x3, degraded.base, cfg, degraded=fabric)
        channel = int(err.value.args[0].split("channel ")[1].split(";")[0])
        assert not fabric.link_ok[channel]
        # the masked scheme's live paths avoid every failed channel
        FlitSimulator(tree4x3, degraded, cfg)


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
        # one block: its own paths in key order, short rows padded with
        # their first path, and no pair part
        assert list(table.blocks) == [1]
        block = table.blocks[1]
        assert table.level.tolist() == [0, 1, 0, 0, 1, 0, 0, 1, 0]
        assert table.row[[1, 4, 7]].tolist() == [0, 1, 2]
        assert block.idx.tolist() == [[0, 0, 0], [1, 2, 3], [4, 5, 4]]
        assert block.live.tolist() == [1, 3, 2]
        assert block.path_ptr.tolist() == [0, 2, 3, 7, 8, 11, 12]
        assert block.up is None and block.down is None

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
        assert table.blocks == {}


def test_pickled_batched_simulator_runs_identically(tree4x3):
    sim = BatchedFlitSimulator(
        tree4x3, make_scheme(tree4x3, "random:8", seed=2),
        FlitConfig(warmup_cycles=100, measure_cycles=400, drain_cycles=400,
                   path_selection="per-packet"))
    clone = pickle.loads(pickle.dumps(sim))
    assert isinstance(clone.routes, RouteTable)
    assert_same_blocks(clone.routes, sim.routes)
    assert clone.run(UniformRandom(0.4), seed=9) == sim.run(UniformRandom(0.4),
                                                            seed=9)


def test_build_keeps_only_the_selection():
    """Building a simulator selects paths and writes no link ids: on the
    8-port 3-tree with shift-1:8 the construction peaked at 27.9 MB of
    Python allocations when the table held every path's links, and at
    2.4 MB here with path ids alone; the bound is half the former."""
    xgft = m_port_n_tree(8, 3)
    scheme = make_scheme(xgft, "shift-1:8")
    level_pairs(xgft)  # cached per topology, shared with the flow layer
    tracemalloc.start()
    try:
        BatchedFlitSimulator(xgft, scheme, FlitConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14e6
