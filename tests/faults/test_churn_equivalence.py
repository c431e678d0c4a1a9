"""The differential-equivalence layer: incremental == from-scratch.

After *every* event of a replayed churn trace, the
:class:`~repro.faults.churn.IncrementalDegradedScheme` must be
bit-identical to a :class:`~repro.faults.scheme.DegradedScheme` built
from scratch over the same cumulative fault set: identical
``path_index_matrix``, identical ``path_weight_matrix`` (including the
weight-0 padding rows), identical per-pair routes, and identical MLOAD
under both flow engines.  The from-scratch wrapper is the oracle — it is
exercised by the whole fault-sweep test surface — so any divergence
localizes the bug to the incremental delta path.

Scheme families x K values x 2- and 3-level topologies are swept
explicitly (not via Hypothesis) so a failure names its configuration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    ChurnSpec,
    DegradedFabric,
    DegradedScheme,
    IncrementalDegradedScheme,
    generate_trace,
)
from repro.flow.simulator import FlowSimulator
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.traffic.permutations import permutation_matrix, random_permutation

#: every registered scheme family, limited heuristics at K in {2, 4}
SCHEME_SPECS = (
    "d-mod-k",
    "s-mod-k",
    "random-single",
    "shift-1:2",
    "shift-1:4",
    "disjoint:2",
    "disjoint:4",
    "random:2",
    "random:4",
    "umulti",
)

TOPOLOGIES = {
    "mport:8x2": m_port_n_tree(8, 2),   # 2-level, 32 hosts
    "mport:4x3": m_port_n_tree(4, 3),   # 3-level, 16 hosts
    "mport:8x3": m_port_n_tree(8, 3),   # 3-level, 128 hosts
}

#: every scheme on the two small trees, plus one scheme on the paper's
#: 8-port 3-tree, the size the flit experiments run at (~0.8 s a
#: scheme there, so not the full sweep)
CASES = [*((spec, topo) for spec in SCHEME_SPECS
            for topo in ("mport:4x3", "mport:8x2")),
         ("disjoint:4", "mport:8x3")]


def _oracle(base, fabric_source: DegradedFabric) -> DegradedScheme:
    """A from-scratch wrapper over a *fresh* fabric with the same
    cumulative fault set (never sharing the mutable mask)."""
    fresh = DegradedFabric(
        base.xgft,
        failed_cables=fabric_source.failed_cables,
        failed_switches=fabric_source.failed_switches,
    )
    return DegradedScheme(base, fresh)


def _pairs_by_level(xgft):
    n = xgft.n_procs
    keys = np.arange(n * n, dtype=np.int64)
    s, d = np.divmod(keys, n)
    k_arr = xgft.nca_level(s, d)
    return [(k, s[k_arr == k], d[k_arr == k])
            for k in range(1, xgft.h + 1) if (k_arr == k).any()]


def assert_bit_identical(inc, oracle, groups, context: str):
    for k, s, d in groups:
        np.testing.assert_array_equal(
            inc.path_index_matrix(s, d, k),
            oracle.path_index_matrix(s, d, k),
            err_msg=f"path_index_matrix diverged at level {k} {context}")
        inc_w = inc.path_weight_matrix(s, d, k)
        oracle_w = oracle.path_weight_matrix(s, d, k)
        if oracle_w is None:
            assert inc_w is None, f"weights not None at level {k} {context}"
        else:
            np.testing.assert_array_equal(
                inc_w, oracle_w,
                err_msg=f"path_weight_matrix diverged at level {k} "
                        f"{context}")


@pytest.mark.parametrize("spec,topo_key", CASES)
def test_incremental_equals_fresh_recompile_after_every_event(
        spec, topo_key):
    xgft = TOPOLOGIES[topo_key]
    base = make_scheme(xgft, spec)
    groups = _pairs_by_level(xgft)
    trace = generate_trace(
        xgft, ChurnSpec(n_events=10, switch_fraction=0.2, seed=7))
    assert len(trace) > 0
    inc = IncrementalDegradedScheme(base)
    for i, event in enumerate(trace):
        inc.apply_event(event)
        assert_bit_identical(
            inc, _oracle(base, inc.fabric), groups,
            f"after event {i} ({event.label}) on {topo_key}/{spec}")


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_identical_mload_under_both_engines(engine, tree8x2):
    # The engines consume the scheme through path_index/weight_matrix,
    # so equality there implies equal loads — this pins the integration
    # end to end anyway: evaluate real permutations on both wrappers.
    # One simulator serves the whole trace, so the compiled engine's plan
    # (the scheme itself) must follow every event.
    base = make_scheme(tree8x2, "disjoint:2")
    trace = generate_trace(tree8x2, ChurnSpec(n_events=6, seed=3))
    inc = IncrementalDegradedScheme(base)
    sim = FlowSimulator(tree8x2, engine=engine)
    rng = np.random.default_rng(0)
    perms = np.stack([random_permutation(tree8x2.n_procs, rng)
                      for _ in range(4)])
    for event in trace:
        inc.apply_event(event)
        oracle = _oracle(base, inc.fabric)
        np.testing.assert_array_equal(sim.permutation_mloads(inc, perms),
                                      sim.permutation_mloads(oracle, perms))
        for p in perms:
            tm = permutation_matrix(p)
            assert sim.max_load(inc, tm) == sim.max_load(oracle, tm)


def test_route_sets_match_after_churn(tree8x2):
    base = make_scheme(tree8x2, "shift-1:2")
    trace = generate_trace(tree8x2, ChurnSpec(n_events=8, seed=13))
    inc = IncrementalDegradedScheme(base)
    for event in trace:
        inc.apply_event(event)
    oracle = _oracle(base, inc.fabric)
    n = tree8x2.n_procs
    for s in range(0, n, 3):
        for d in range(0, n, 5):
            got, want = inc.route(s, d), oracle.route(s, d)
            assert got.indices == want.indices
            assert got.fractions == want.fractions


def test_fresh_start_on_damaged_fabric_matches_oracle(tree8x2):
    # Constructing the incremental scheme on an already-damaged fabric
    # (not replaying events into it) must also match the oracle.
    up1, _ = tree8x2.boundary_link_slices(1)
    fabric = DegradedFabric(tree8x2, failed_cables=[up1.start, up1.start + 3])
    base = make_scheme(tree8x2, "disjoint:4")
    inc = IncrementalDegradedScheme(base, fabric)
    assert_bit_identical(inc, _oracle(base, fabric),
                         _pairs_by_level(tree8x2), "on prebuilt fabric")
