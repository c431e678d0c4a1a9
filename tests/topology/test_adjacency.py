"""Adjacency: parent/child arithmetic vs the label-matching rule."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology.xgft import XGFT

from tests.conftest import TOPOLOGY_POOL, pool_ids


def labels_adjacent(xgft, l, lower_digits, upper_digits):
    """Paper's rule: tuples agree at every digit except digit l+1."""
    return all(
        a == b
        for i, (a, b) in enumerate(zip(lower_digits, upper_digits), start=1)
        if i != l + 1
    )


class TestParentChild:
    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    def test_parent_satisfies_label_rule(self, xgft):
        for l in range(xgft.h):
            for idx in range(xgft.level_size(l)):
                for port in range(xgft.n_up_ports(l)):
                    parent = int(xgft.parent(l, idx, port))
                    assert 0 <= parent < xgft.level_size(l + 1)
                    assert labels_adjacent(
                        xgft, l,
                        xgft.node_digits(l, idx),
                        xgft.node_digits(l + 1, parent),
                    )
                    # The parent's digit l+1 equals the port (left-to-right
                    # port ordering).
                    assert xgft.node_digits(l + 1, parent)[l] == port

    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    def test_child_inverts_parent(self, xgft):
        for l in range(xgft.h):
            for idx in range(xgft.level_size(l)):
                my_digit = xgft.node_digits(l, idx)[l]
                for port in range(xgft.n_up_ports(l)):
                    parent = int(xgft.parent(l, idx, port))
                    assert int(xgft.child(l + 1, parent, my_digit)) == idx

    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    def test_parent_and_child_counts(self, xgft):
        for l in range(xgft.h):
            assert len(xgft.parents(l, 0)) == xgft.w[l]
        for l in range(1, xgft.h + 1):
            assert len(xgft.children(l, 0)) == xgft.m[l - 1]

    def test_vectorized_parent_matches_scalar(self):
        xgft = XGFT(3, (3, 2, 4), (1, 2, 3))
        l = 1
        n = xgft.level_size(l)
        idx = np.arange(n)
        for port in range(xgft.n_up_ports(l)):
            vec = xgft.parent(l, idx, port)
            scalar = [int(xgft.parent(l, i, port)) for i in range(n)]
            assert np.array_equal(vec, scalar)

    def test_errors(self):
        xgft = XGFT(2, (2, 2), (1, 2))
        with pytest.raises(TopologyError):
            xgft.parent(2, 0, 0)  # top level has no parents
        with pytest.raises(TopologyError):
            xgft.child(0, 0, 0)  # processing nodes have no children


class TestAreConnected:
    def test_connected_example(self, fig3_xgft):
        # From the paper: node (1, 0, 0, 0) at level 1 connects to
        # (2, 0, p, 0) for each p.
        x = fig3_xgft
        leaf0 = x.node_index(1, (0, 0, 0))
        for p in range(x.n_up_ports(1)):
            parent = int(x.parent(1, leaf0, p))
            assert x.are_connected(1, leaf0, 2, parent)
            assert x.are_connected(2, parent, 1, leaf0)  # symmetric

    def test_not_connected_same_level(self, fig3_xgft):
        assert not fig3_xgft.are_connected(1, 0, 1, 1)

    def test_not_connected_skip_level(self, fig3_xgft):
        assert not fig3_xgft.are_connected(0, 0, 2, 0)

    def test_not_connected_wrong_subtree(self, fig3_xgft):
        x = fig3_xgft
        # Host 0 connects only to its own leaf switch.
        other_leaf = x.node_index(1, (0, 1, 0))
        assert not x.are_connected(0, 0, 1, other_leaf)


class TestNca:
    def test_nca_levels_follow_id_blocks(self):
        x = XGFT(3, (4, 4, 8), (1, 4, 4))
        assert x.nca_level(0, 0) == 0
        assert x.nca_level(0, 1) == 1    # same leaf (ids 0..3)
        assert x.nca_level(0, 4) == 2    # same level-2 subtree (0..15)
        assert x.nca_level(0, 16) == 3   # different level-2 subtree
        assert x.nca_level(127, 0) == 3

    def test_nca_vectorized(self):
        x = XGFT(3, (4, 4, 8), (1, 4, 4))
        s = np.zeros(4, dtype=np.int64)
        d = np.array([0, 1, 4, 16])
        assert np.array_equal(x.nca_level(s, d), [0, 1, 2, 3])

    @pytest.mark.parametrize("xgft", TOPOLOGY_POOL, ids=pool_ids())
    def test_equals_the_top_down_search(self, xgft):
        """The count of heights whose subtrees differ equals the search
        from the top level down for the highest such height, on every
        ordered pair, as an int64 array and as an int for scalars."""
        n = xgft.n_procs
        s, d = np.divmod(np.arange(n * n, dtype=np.int64), n)
        want = np.zeros(n * n, dtype=np.int64)
        for k in range(xgft.h, 0, -1):
            same = s // xgft.M(k - 1) == d // xgft.M(k - 1)
            want[(want == 0) & ~same] = k
        got = xgft.nca_level(s, d)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert np.array_equal(xgft.nca_level(s.reshape(n, n), d[:n]),
                              want.reshape(n, n))
        for i in (0, 1, n * n // 2, n * n - 2):
            level = xgft.nca_level(int(s[i]), int(d[i]))
            assert type(level) is int and level == want[i]

    def test_num_shortest_paths_property1(self):
        # Property 1: prod_{i<=k} w_i paths for NCA level k.
        x = XGFT(3, (4, 4, 4), (1, 4, 2))
        assert x.num_shortest_paths(0, 0) == 1
        assert x.num_shortest_paths(0, 1) == 1    # k=1, w_1=1
        assert x.num_shortest_paths(0, 4) == 4    # k=2, w_1*w_2=4
        assert x.num_shortest_paths(0, 63) == 8   # k=3: the paper's example

    def test_num_shortest_paths_vectorized(self):
        x = XGFT(3, (4, 4, 4), (1, 4, 2))
        s = np.zeros(3, dtype=np.int64)
        d = np.array([1, 4, 63])
        assert np.array_equal(x.num_shortest_paths(s, d), [1, 4, 8])
