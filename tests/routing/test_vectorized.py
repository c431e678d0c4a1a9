"""Vectorized path->link computation vs the scalar reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing.heuristics import Disjoint, UMulti
from repro.routing.modk import DModK
from repro.routing.path import build_path
from repro.routing.vectorized import (
    compile_routes,
    pair_link_part,
    pair_part_tables,
    path_link_matrix,
)
from repro.topology.variants import m_port_n_tree

from tests.conftest import TOPOLOGY_POOL, pool_ids


class OutOfRangeDModK(DModK):
    """d-mod-k with every path index moved by ``shift * W(k)``: outside
    ``[0, W(k))``, where a wrapping gather would read it as d-mod-k."""

    def __init__(self, xgft, shift: int):
        super().__init__(xgft)
        self.shift = shift

    def path_index_matrix(self, s, d, k):
        return super().path_index_matrix(s, d, k) + self.shift * self.xgft.W(k)


def division_pair_part(xgft, s, d, k) -> np.ndarray:
    """``(n, 2k)`` pair part of level-``k`` link ids, by integer division
    per pair: the up link out of the source's first level-``l`` node,
    then the down links into the destination's subtrees, top-down."""
    pair = np.empty((s.size, 2 * k), dtype=np.int64)
    for l in range(k):
        pair[:, l] = xgft.up_link_id(l, xgft.W(l) * (s // xgft.M(l)), 0)
        pair[:, 2 * k - 1 - l] = xgft.down_link_id(
            l, xgft.W(l + 1) * (d // xgft.M(l + 1)),
            (d // xgft.M(l)) % xgft.m[l])
    return pair


class TestPairPartTables:
    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    def test_equal_division_per_pair(self, xgft):
        nodes = np.arange(xgft.n_procs, dtype=np.int64)
        rng = np.random.default_rng(xgft.n_links)
        s, d = rng.integers(xgft.n_procs, size=(2, 50))
        for k in range(xgft.h + 1):
            up, down = pair_part_tables(xgft, k)
            assert up.shape == down.shape == (xgft.n_procs, k)
            assert up.dtype == down.dtype == np.int64
            whole = division_pair_part(xgft, nodes, nodes, k)
            assert np.array_equal(up, whole[:, :k])
            assert np.array_equal(down, whole[:, k:])
            assert np.array_equal(pair_link_part(xgft, s, d, k, offset=7),
                                  division_pair_part(xgft, s, d, k) + 7)

    def test_cached_and_read_only(self, tree8x3):
        up, down = pair_part_tables(tree8x3, 2)
        assert pair_part_tables(tree8x3, 2)[0] is up
        with pytest.raises(ValueError):
            down[0, 0] = 0


class TestPathLinkMatrix:
    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    def test_matches_build_path(self, xgft):
        rng = np.random.default_rng(0)
        n = xgft.n_procs
        for _ in range(10):
            s = int(rng.integers(n))
            d = int(rng.integers(n))
            k = int(xgft.nca_level(s, d))
            if k == 0:
                continue
            x = xgft.W(k)
            idx = np.arange(x)[None, :].repeat(1, axis=0)
            links = path_link_matrix(xgft, np.array([s]), np.array([d]), idx, k)
            for t in range(x):
                assert tuple(links[0, t]) == build_path(xgft, s, d, t).links

    @pytest.mark.parametrize("t", [-1, 16], ids=["below", "above"])
    def test_out_of_range_index_raises(self, tree8x3, t):
        idx = np.array([[0, t, 3]])
        with pytest.raises(RoutingError,
                           match=rf"path index {t} out of range \[0, 16\)"):
            path_link_matrix(tree8x3, np.array([0]), np.array([127]), idx, 3)

    def test_shape(self, tree8x3):
        s = np.array([0, 1])
        d = np.array([127, 126])
        idx = np.zeros((2, 3), dtype=np.int64)
        links = path_link_matrix(tree8x3, s, d, idx, 3)
        assert links.shape == (2, 3, 6)


class TestCompileRoutes:
    def test_all_pairs_present(self, kary2x2):
        table = compile_routes(kary2x2, DModK(kary2x2))
        n = kary2x2.n_procs
        assert len(table) == n * (n - 1)

    def test_paths_match_scheme(self, tree8x2):
        scheme = Disjoint(tree8x2, 3)
        table = compile_routes(tree8x2, scheme)
        n = tree8x2.n_procs
        rng = np.random.default_rng(1)
        for _ in range(20):
            s, d = rng.integers(n, size=2)
            if s == d:
                continue
            expected = [p.links for p in scheme.route(int(s), int(d)).paths(tree8x2)]
            assert table[int(s) * n + int(d)] == expected

    def test_rejects_self_pairs(self, tree8x2):
        # a self-pair carries no network traffic, so it has no route
        table = compile_routes(tree8x2, DModK(tree8x2))
        with pytest.raises(KeyError):
            table[1 * 32 + 1]

    def test_umulti_full_fanout(self, tree8x2):
        table = compile_routes(tree8x2, UMulti(tree8x2))
        key = 0 * 32 + 31  # top-level pair
        assert len(table[key]) == tree8x2.max_paths


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_vectorized_agrees_with_scalar_random(data):
    xgft = data.draw(st.sampled_from(TOPOLOGY_POOL))
    s = data.draw(st.integers(0, xgft.n_procs - 1))
    d = data.draw(st.integers(0, xgft.n_procs - 1))
    k = int(xgft.nca_level(s, d))
    if k == 0:
        return
    t = data.draw(st.integers(0, xgft.W(k) - 1))
    links = path_link_matrix(
        xgft, np.array([s]), np.array([d]), np.array([[t]]), k
    )
    assert tuple(links[0, 0]) == build_path(xgft, s, d, t).links


@pytest.mark.parametrize("shift", [1, -1], ids=["above", "below"])
def test_compile_routes_rejects_out_of_range_indices(shift):
    """A gather that wraps would route this scheme as d-mod-k."""
    xgft = m_port_n_tree(4, 3)
    with pytest.raises(RoutingError, match=r"path index -?\d+ out of range"):
        compile_routes(xgft, OutOfRangeDModK(xgft, shift))
