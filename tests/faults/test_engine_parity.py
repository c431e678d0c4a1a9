"""Engine parity on degraded fabrics.

The compiled engine must agree with the reference bit for bit for every
scheme family on degraded 2- and 3-level trees, and adaptive studies
must consume identical RNG streams on both engines — the acceptance bar
for trusting fault-sweep numbers from the fast path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import DegradedScheme, FaultSpec
from repro.flow.loads import link_loads
from repro.flow.sampling import PermutationStudy
from repro.flow.simulator import FlowSimulator
from repro.routing.compiled import compile_scheme
from repro.routing.factory import make_scheme
from repro.routing.vectorized import compile_routes
from repro.topology.variants import m_port_n_tree
from repro.traffic.permutations import permutation_matrix
from repro.traffic.synthetic import all_to_all

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
    sim = FlowSimulator(xgft, engine="compiled")

    rng = np.random.default_rng(7)
    perms = np.stack([rng.permutation(xgft.n_procs) for _ in range(6)])
    batch = sim.batch_engine(scheme).permutation_mloads(perms)
    for i, perm in enumerate(perms):
        tm = permutation_matrix(perm)
        ref = link_loads(xgft, scheme, tm)
        assert np.array_equal(sim.evaluate(scheme, tm).loads, ref)
        assert batch[i] == ref.max()
    # every pair at once: each link sums many weighted contributions
    tm = all_to_all(xgft.n_procs)
    assert np.array_equal(sim.evaluate(scheme, tm).loads,
                          link_loads(xgft, scheme, tm))


@pytest.mark.parametrize("xgft,rate", TOPOLOGIES)
def test_compiled_plan_serves_identical_tables(xgft, rate):
    """A fault-aware scheme is its own plan: after a compiled-engine
    round filled some of its rows, route tables compiled from it equal a
    fresh wrapper's (padding filtered on both paths)."""
    fabric = _connected_fabric(xgft, rate)
    base = make_scheme(xgft, "umulti")
    scheme = DegradedScheme(base, fabric)
    assert compile_scheme(xgft, scheme) is scheme
    perms = np.stack([np.random.default_rng(3).permutation(xgft.n_procs)])
    FlowSimulator(xgft, engine="compiled").permutation_mloads(scheme, perms)
    assert compile_routes(xgft, scheme) == compile_routes(
        xgft, DegradedScheme(base, fabric))


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
    assert np.array_equal(ref.samples, fast.samples)


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
        assert p_ref.mloads == p_fast.mloads
