"""Flow metrics: hand-computed ML bounds, OLOAD, performance ratios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.loads import link_loads
from repro.flow.metrics import (
    max_link_load,
    ml_lower_bound,
    optimal_load,
    performance_ratio,
)
from repro.routing.factory import make_scheme
from repro.routing.heuristics import UMulti
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.permutations import permutation_matrix, random_permutation
from repro.traffic.synthetic import all_to_all


class TestMlLowerBound:
    def test_single_flow(self):
        # One unit from node 0 to node 1 (same leaf on the 8-port 2-tree):
        # the binding constraint is the terminal link (height-0 subtree,
        # TL(0) = w_1 = 1).
        xgft = m_port_n_tree(8, 2)
        tm = TrafficMatrix(32, [0], [1], [1.0])
        assert ml_lower_bound(xgft, tm) == pytest.approx(1.0)

    def test_leaf_egress_bound(self):
        # All 4 hosts of leaf 0 send 1 unit out of the leaf: the leaf's
        # TL(1) = w_1*w_2 = 4 links must carry 4 units -> bound 1.0.
        xgft = m_port_n_tree(8, 2)
        tm = TrafficMatrix(32, [0, 1, 2, 3], [4, 5, 6, 7], [1.0] * 4)
        assert ml_lower_bound(xgft, tm) == pytest.approx(1.0)

    def test_ingress_can_bind(self):
        # 8 units converging on one destination: terminal link bound 8.
        xgft = m_port_n_tree(8, 2)
        src = list(range(8, 16))
        tm = TrafficMatrix(32, src, [0] * 8, [1.0] * 8)
        assert ml_lower_bound(xgft, tm) == pytest.approx(8.0)

    def test_empty_matrix(self):
        xgft = m_port_n_tree(8, 2)
        assert ml_lower_bound(xgft, TrafficMatrix.empty(32)) == 0.0

    def test_self_traffic_ignored(self):
        xgft = m_port_n_tree(8, 2)
        tm = TrafficMatrix(32, [5], [5], [100.0])
        assert ml_lower_bound(xgft, tm) == 0.0


class TestOptimalLoad:
    @pytest.mark.parametrize("seed", range(5))
    def test_umulti_achieves_oload_theorem1(self, seed):
        """Theorem 1: MLOAD(UMULTI, TM) == OLOAD(TM) for any TM."""
        xgft = XGFT(3, (3, 2, 4), (1, 2, 3))
        tm = permutation_matrix(random_permutation(xgft.n_procs, seed))
        mload = max_link_load(link_loads(xgft, UMulti(xgft), tm))
        assert mload == pytest.approx(optimal_load(xgft, tm))

    def test_umulti_optimal_all_to_all(self):
        xgft = m_port_n_tree(8, 2)
        tm = all_to_all(xgft.n_procs)
        mload = max_link_load(link_loads(xgft, UMulti(xgft), tm))
        assert mload == pytest.approx(optimal_load(xgft, tm))

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_umulti_optimal_random_sparse(self, data):
        """Property form of Theorem 1 over random sparse matrices."""
        xgft = XGFT(2, (3, 4), (1, 3))
        n = xgft.n_procs
        n_flows = data.draw(st.integers(1, 20))
        src = [data.draw(st.integers(0, n - 1)) for _ in range(n_flows)]
        dst = [data.draw(st.integers(0, n - 1)) for _ in range(n_flows)]
        amt = [data.draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(n_flows)]
        tm = TrafficMatrix(n, src, dst, amt)
        mload = max_link_load(link_loads(xgft, UMulti(xgft), tm))
        assert mload == pytest.approx(optimal_load(xgft, tm))


class TestPerformanceRatio:
    def test_umulti_ratio_one(self):
        xgft = m_port_n_tree(8, 2)
        tm = permutation_matrix(random_permutation(32, 1))
        assert performance_ratio(xgft, UMulti(xgft), tm) == pytest.approx(1.0)

    def test_ratio_at_least_one(self):
        xgft = m_port_n_tree(8, 2)
        for spec in ("d-mod-k", "shift-1:2", "random:3"):
            scheme = make_scheme(xgft, spec)
            for seed in range(3):
                tm = permutation_matrix(random_permutation(32, seed))
                assert performance_ratio(xgft, scheme, tm) >= 1.0 - 1e-12

    def test_empty_traffic_ratio_one(self):
        xgft = m_port_n_tree(8, 2)
        assert performance_ratio(
            xgft, make_scheme(xgft, "d-mod-k"), TrafficMatrix.empty(32)
        ) == 1.0

    def test_precomputed_loads_shortcut(self):
        xgft = m_port_n_tree(8, 2)
        scheme = make_scheme(xgft, "d-mod-k")
        tm = permutation_matrix(random_permutation(32, 2))
        loads = link_loads(xgft, scheme, tm)
        assert performance_ratio(xgft, scheme, tm, loads=loads) == pytest.approx(
            performance_ratio(xgft, scheme, tm)
        )


def test_max_link_load_empty_vector():
    assert max_link_load(np.array([])) == 0.0


@pytest.mark.parametrize("shape", [(2, 3), (1, 4), ()])
def test_max_link_load_rejects_non_vectors(shape):
    # a batch's (B, n_links) matrix has one MLOAD per row, not one overall
    with pytest.raises(ValueError, match="1-D"):
        max_link_load(np.ones(shape))
