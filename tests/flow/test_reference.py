"""Cross-check: vectorized flow loads vs a naive per-path reference.

The reference routes every pair by materializing :class:`Path` objects
and accumulating loads link by link in pure Python — slow but obviously
correct.  The vectorized evaluator must agree exactly, on the default
(native) path and, in :class:`TestNumpyPath`, on the numpy path.
"""

import numpy as np
import pytest

from repro.flow.loads import link_loads
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.permutations import permutation_matrix, random_permutation
from repro.traffic.synthetic import all_to_all, shift_pattern


def reference_loads(xgft, scheme, tm):
    loads = np.zeros(xgft.n_links)
    s_arr, d_arr, amounts = tm.network_pairs()
    for s, d, amount in zip(s_arr, d_arr, amounts):
        rs = scheme.route(int(s), int(d))
        for path, frac in zip(rs.paths(xgft), rs.fractions):
            for link in path.links:
                loads[link] += amount * frac
    return loads


TOPOLOGIES = [
    XGFT(2, (2, 2), (1, 2)),
    XGFT(3, (2, 2, 2), (1, 2, 2)),
    XGFT(2, (3, 5), (2, 3)),   # w_1 > 1
    XGFT(3, (3, 2, 4), (1, 2, 3)),
    m_port_n_tree(4, 2),
]
SCHEMES = ["d-mod-k", "s-mod-k", "shift-1:2", "disjoint:3", "random:2", "umulti"]


@pytest.mark.parametrize("xgft", TOPOLOGIES, ids=repr)
@pytest.mark.parametrize("spec", SCHEMES)
def test_vectorized_equals_reference_permutation(xgft, spec):
    scheme = make_scheme(xgft, spec, seed=5)
    tm = permutation_matrix(random_permutation(xgft.n_procs, 42))
    assert np.allclose(
        link_loads(xgft, scheme, tm), reference_loads(xgft, scheme, tm)
    )


@pytest.mark.parametrize("spec", ["d-mod-k", "disjoint:2", "umulti"])
def test_vectorized_equals_reference_all_to_all(spec):
    xgft = XGFT(3, (2, 2, 2), (1, 2, 2))
    scheme = make_scheme(xgft, spec)
    tm = all_to_all(xgft.n_procs)
    assert np.allclose(
        link_loads(xgft, scheme, tm), reference_loads(xgft, scheme, tm)
    )


def test_vectorized_equals_reference_weighted():
    xgft = XGFT(2, (3, 5), (2, 3))
    scheme = make_scheme(xgft, "disjoint:4")
    rng = np.random.default_rng(0)
    n = xgft.n_procs
    tm = TrafficMatrix(n, rng.integers(n, size=40), rng.integers(n, size=40),
                       rng.random(40))
    assert np.allclose(
        link_loads(xgft, scheme, tm), reference_loads(xgft, scheme, tm)
    )


def test_shift_traffic_loads_one_level():
    """Intra-leaf shift traffic only touches level-0/1 links."""
    xgft = m_port_n_tree(4, 2)  # leaves of 2 hosts
    tm = shift_pattern(xgft.n_procs, 1)
    loads = link_loads(xgft, make_scheme(xgft, "d-mod-k"), tm)
    levels = xgft.link_levels()
    assert loads[levels == 0].sum() > 0
    # stride-1 shift crosses leaf boundaries too, so level 1 is also used;
    # check conservation instead: total load = sum over pairs of path length.
    ref = reference_loads(xgft, make_scheme(xgft, "d-mod-k"), tm)
    assert np.allclose(loads, ref)


@pytest.mark.usefixtures("no_compiler")
class TestNumpyPath:
    """The vectorized-vs-scalar cases above, with no native library."""

    @pytest.mark.parametrize("xgft", TOPOLOGIES, ids=repr)
    @pytest.mark.parametrize("spec", SCHEMES)
    def test_permutation(self, xgft, spec):
        test_vectorized_equals_reference_permutation(xgft, spec)

    @pytest.mark.parametrize("spec", ["d-mod-k", "disjoint:2", "umulti"])
    def test_all_to_all(self, spec):
        test_vectorized_equals_reference_all_to_all(spec)

    def test_weighted(self):
        test_vectorized_equals_reference_weighted()

    def test_shift_traffic(self):
        test_shift_traffic_loads_one_level()
