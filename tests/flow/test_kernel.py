"""The flow evaluator's two scatter-add paths: native and numpy.

Side-by-side equality on the widest rows, path indices checked on both
paths, and runs that say which path they took (timers and the manifest's
``flow_kernel``).  The parity suites (``test_batch_loads.py``,
``test_reference.py``) run every other case on both paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.errors import RoutingError
from repro.experiments.registry import run_instrumented
from repro.faults.degraded import DegradedFabric
from repro.faults.scheme import DegradedScheme
from repro.flow import loads as loads_mod
from repro.flow.loads import kernels_ran, link_loads, permutation_mloads
from repro.obs.recorder import Recorder, use_recorder
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.traffic.permutations import permutation_matrix, random_permutation

from tests.routing.test_vectorized import OutOfRangeDModK


def on_both_paths(request, evaluate):
    """``evaluate()`` natively, then again with no compiler."""
    if not native.available():
        pytest.skip(f"native library unavailable: {native.unavailable_reason()}")
    fast = evaluate()
    request.getfixturevalue("no_compiler")
    return fast, evaluate()


def round_of(xgft, count, seed):
    rng = np.random.default_rng(seed)
    return [permutation_matrix(random_permutation(xgft.n_procs, rng))
            for _ in range(count)]


class TestNativeEqualsNumpy:
    def test_sixteen_port_random_64_round(self, request):
        """``random:64`` on the 16-port 3-tree: 64 paths of 6 links per
        level-3 pair, the widest rows of the paper's topologies."""
        xgft = m_port_n_tree(16, 3)
        scheme = make_scheme(xgft, "random:64", seed=3)
        tms = round_of(xgft, 4, seed=11)
        fast, slow = on_both_paths(
            request, lambda: link_loads(xgft, scheme, tms))
        assert fast.shape == (4, xgft.n_links)
        assert np.array_equal(fast, slow)

    def test_degraded_scheme_with_zero_weight_padding(self, request):
        xgft = m_port_n_tree(8, 3)
        fabric = DegradedFabric(xgft, failed_switches=[(3, 0), (3, 5)])
        # every one of the W(3) = 16 paths per level-3 pair: the two
        # through the failed top switches become weight-0 padding
        scheme = DegradedScheme(make_scheme(xgft, "disjoint:16"), fabric)
        weights = scheme.path_weight_matrix(np.array([0]), np.array([127]), 3)
        assert np.count_nonzero(weights == 0.0) == 2
        tms = round_of(xgft, 3, seed=5)
        fast, slow = on_both_paths(
            request, lambda: link_loads(xgft, scheme, tms))
        assert np.array_equal(fast, slow)


@pytest.mark.parametrize("shift", [1, -1], ids=["above", "below"])
def test_out_of_range_path_index_raises(kernel_path, shift):
    """A wrapping gather would evaluate this scheme as d-mod-k."""
    xgft = m_port_n_tree(4, 3)
    scheme = OutOfRangeDModK(xgft, shift)
    tm = round_of(xgft, 1, seed=0)[0]
    with pytest.raises(RoutingError, match=r"path index -?\d+ out of range"):
        link_loads(xgft, scheme, tm)
    perms = np.roll(np.arange(xgft.n_procs), 1)
    with pytest.raises(RoutingError, match=r"path index -?\d+ out of range"):
        permutation_mloads(xgft, scheme, perms)


def test_native_scatter_checks_link_ids():
    """The C guards behind the closed form: a link id outside the load
    vector or a node id outside the pair-part tables stops the call
    instead of reading or writing past them, and fractions that do not
    match the index matrix never reach it."""
    if not native.available():
        pytest.skip(f"native library unavailable: {native.unavailable_reason()}")
    xgft = m_port_n_tree(4, 2)
    n, n_links, k = xgft.n_procs, xgft.n_links, xgft.h
    loads = np.zeros(n_links)
    s, d, offset = np.array([0]), np.array([n - 1]), np.array([0])
    idx, amount, frac = np.array([[0, 1]]), np.array([1.0]), np.full(2, 0.5)

    def scatter(s=s, d=d, offset=offset, frac=frac):
        loads_mod._scatter(loads, xgft, k, s, d, offset, idx, amount, frac)

    # source 0's first up link has id 0, so the first id is the offset
    with pytest.raises(RoutingError,
                       match=rf"link id {n_links} out of range \[0, {n_links}\)"):
        scatter(offset=np.array([n_links]))
    for node in (n, -1):
        with pytest.raises(RoutingError,
                           match=rf"node id {node} out of range \[0, {n}\)"):
            scatter(s=np.array([node]))
        with pytest.raises(RoutingError,
                           match=rf"node id {node} out of range \[0, {n}\)"):
            scatter(d=np.array([node]))
    with pytest.raises(ValueError, match="fractions"):
        scatter(frac=np.full((1, 3), 0.5))
    with pytest.raises(ValueError, match="fractions"):
        scatter(frac=np.full((2, 2), 0.5))
    assert not loads.any()
    scatter()
    assert loads.sum() == 2 * k


def test_timer_names_the_path(kernel_path):
    xgft = m_port_n_tree(4, 3)
    scheme, tms = make_scheme(xgft, "disjoint:2"), round_of(xgft, 2, 1)
    rec = Recorder()
    with use_recorder(rec):
        link_loads(xgft, scheme, tms)
    timer = "flow.kernel" if kernel_path == "native" else "flow.fallback.no_kernel"
    assert {name: calls for name, (_, calls) in rec.timers.items()} == {timer: 1}


def test_manifest_says_what_ran(kernel_path):
    run = run_instrumented("theorems", fidelity_name="fast", recorder=Recorder())
    assert run.manifest.extra["flow_kernel"] == (
        "native" if kernel_path == "native" else "numpy: no C compiler")


def test_manifest_without_flow_evaluation():
    run = run_instrumented("resources", fidelity_name="fast", recorder=Recorder())
    assert "flow_kernel" not in run.manifest.extra


def test_kernels_ran_joins_both_paths(no_compiler):
    assert kernels_ran({}) is None
    assert kernels_ran({"flow.kernel": (1.0, 0)}) is None
    assert kernels_ran({"experiment.x/flow.batch_eval/flow.kernel": (1.0, 3),
                        "flow.fallback.no_kernel": (0.5, 1)}) == (
        "native; numpy: no C compiler")
