"""Engine parity on degraded fabrics.

The compiled evaluator must agree with the reference evaluator to
1e-12 for every scheme family on degraded 2- and 3-level trees, and
parallel adaptive studies must consume identical RNG streams on both
engines — the acceptance bar for trusting fault-sweep numbers from the
fast path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import DegradedScheme, FaultSpec
from repro.flow.engine import BatchFlowEngine
from repro.flow.loads import link_loads
from repro.flow.sampling import PermutationStudy
from repro.routing.compiled import compile_scheme
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.traffic.permutations import permutation_matrix

SCHEME_SPECS = ("d-mod-k", "s-mod-k", "shift-1:2", "shift-1:4",
                "disjoint:2", "disjoint:4", "random:2", "umulti")

TOPOLOGIES = [
    pytest.param(m_port_n_tree(8, 2), 0.2, id="8-port-2-tree"),
    pytest.param(m_port_n_tree(4, 3), 0.25, id="4-port-3-tree"),
]


def _connected_fabric(xgft, rate, seed=0):
    for attempt in range(64):
        fabric = FaultSpec(link_rate=rate, seed=seed + attempt).sample(xgft)
        if fabric.is_connected and not fabric.is_pristine:
            return fabric
    raise AssertionError("no connected non-pristine fabric found")


@pytest.mark.parametrize("xgft,rate", TOPOLOGIES)
@pytest.mark.parametrize("spec", SCHEME_SPECS)
def test_reference_and_compiled_loads_agree(xgft, rate, spec):
    fabric = _connected_fabric(xgft, rate)
    scheme = DegradedScheme(make_scheme(xgft, spec), fabric)
    engine = BatchFlowEngine(compile_scheme(xgft, scheme))

    rng = np.random.default_rng(7)
    perms = np.stack([rng.permutation(xgft.n_procs) for _ in range(6)])
    batch = engine.permutation_mloads(perms)
    for i, perm in enumerate(perms):
        tm = permutation_matrix(perm)
        ref = link_loads(xgft, scheme, tm)
        np.testing.assert_allclose(engine.link_loads(tm), ref, atol=1e-12)
        np.testing.assert_allclose(batch[i], ref.max(), atol=1e-12)


@pytest.mark.parametrize("xgft,rate", TOPOLOGIES)
def test_compiled_plan_serves_identical_tables(xgft, rate):
    """Route tables read from the compiled plan equal the scheme's own
    (padding filtered on both paths)."""
    from repro.routing.vectorized import compile_routes

    fabric = _connected_fabric(xgft, rate)
    scheme = DegradedScheme(make_scheme(xgft, "umulti"), fabric)
    plan = compile_scheme(xgft, scheme)
    assert plan.masked
    assert compile_routes(xgft, scheme) == plan.route_table()


def test_study_streams_are_engine_invariant():
    """Both engines draw the identical permutation stream — sample for
    sample."""
    xgft = m_port_n_tree(8, 2)
    fabric = _connected_fabric(xgft, 0.2)
    scheme = DegradedScheme(make_scheme(xgft, "disjoint:2"), fabric)

    def study(engine):
        return PermutationStudy(
            xgft, initial_samples=16, max_samples=16, rel_precision=0.5,
            seed=99, engine=engine,
        ).run(scheme)

    ref = study("reference")
    fast = study("compiled")
    assert len(ref.samples) == len(fast.samples) == 16
    np.testing.assert_allclose(ref.samples, fast.samples, atol=1e-12)


def test_fault_sweep_experiment_engine_parity():
    """The registered experiment produces identical curves per engine
    (the PR's acceptance criterion, shrunk to test size)."""
    from repro.experiments.fault_sweep import run

    kwargs = dict(
        fidelity_name="fast", topology=m_port_n_tree(4, 3),
        rates=(0.0, 0.1), curves=("d-mod-k", "disjoint:2", "umulti"),
        seed=5, fault_seed=1,
    )
    ref = run(engine="reference", **kwargs)
    fast = run(engine="compiled", **kwargs)
    assert ref.points[0].tag == "pristine"
    for p_ref, p_fast in zip(ref.points, fast.points):
        assert p_ref.tag == p_fast.tag
        for curve in kwargs["curves"]:
            assert p_ref.mloads[curve] == pytest.approx(
                p_fast.mloads[curve], abs=1e-12)
