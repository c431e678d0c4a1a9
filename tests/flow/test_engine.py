"""Engine parity: the compiled engine must match the reference bit for bit.

Both engines evaluate with the one closed-form evaluator; the compiled
one reads the scheme's plan, filled pair by pair, in place of the
scheme.  So link loads,
permutation MLOADs, ``FlowSimulator.evaluate`` and study samples must be
*equal* on identical traffic, across every scheme family, pristine and
degraded, on 2- and 3-level topologies (including irregular ones with
w_1 > 1).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.faults import DegradedScheme, FaultSpec
from repro.faults.churn import ChurnEvent, IncrementalDegradedScheme
from repro.faults.degraded import DegradedFabric
from repro.faults.spec import samplable_cables
from repro.flow.engine import BatchFlowEngine
from repro.flow.loads import link_loads
from repro.flow.metrics import max_link_load, permutation_optimal_load
from repro.flow.sampling import PermutationStudy
from repro.flow.simulator import FlowSimulator
from repro.routing.compiled import compile_scheme
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.permutations import permutation_matrix, random_permutation
from repro.traffic.synthetic import all_to_all, shift_pattern

SCHEME_SPECS = ("d-mod-k", "s-mod-k", "shift-1:3", "disjoint:3", "random:3",
                "umulti", "degraded:disjoint:3")

TOPOLOGIES = [
    m_port_n_tree(8, 2),          # 2-level, 32 nodes
    m_port_n_tree(4, 3),          # 3-level, 32 nodes
    XGFT(3, (3, 2, 4), (1, 2, 3)),  # irregular radices
    XGFT(2, (3, 5), (2, 3)),      # w_1 > 1: multiple host uplinks
]


def _scheme(xgft, spec):
    """``make_scheme``; a ``degraded:`` prefix wraps the scheme in a
    :class:`DegradedScheme` over a connected fabric with failed cables."""
    if not spec.startswith("degraded:"):
        return make_scheme(xgft, spec, seed=5)
    for seed in range(64):
        fabric = FaultSpec(link_rate=0.2, seed=seed).sample(xgft)
        if fabric.is_connected and not fabric.is_pristine:
            return DegradedScheme(
                make_scheme(xgft, spec.removeprefix("degraded:"), seed=5),
                fabric)
    raise AssertionError("no connected non-pristine fabric found")


def _random_tm(xgft, seed=0):
    rng = np.random.default_rng(seed)
    n = xgft.n_procs
    k = min(4 * n, n * (n - 1))
    keys = rng.choice(n * n, size=k, replace=False)
    s, d = keys // n, keys % n
    keep = s != d
    return TrafficMatrix(n, s[keep], d[keep],
                         rng.uniform(0.1, 2.0, int(keep.sum())))


@pytest.mark.parametrize("xgft", TOPOLOGIES, ids=repr)
@pytest.mark.parametrize("spec", SCHEME_SPECS)
class TestLinkLoadParity:
    def test_permutation_traffic(self, xgft, spec):
        scheme = _scheme(xgft, spec)
        sim = FlowSimulator(xgft, engine="compiled")
        rng = np.random.default_rng(42)
        perms = np.stack([random_permutation(xgft.n_procs, rng)
                          for _ in range(3)])
        for perm in perms:
            tm = permutation_matrix(perm)
            assert np.array_equal(sim.evaluate(scheme, tm).loads,
                                  link_loads(xgft, scheme, tm))
        assert np.array_equal(sim.permutation_mloads(scheme, perms),
                              FlowSimulator(xgft).permutation_mloads(scheme,
                                                                     perms))

    def test_weighted_sparse_traffic(self, xgft, spec):
        scheme = _scheme(xgft, spec)
        tm = _random_tm(xgft, seed=7)
        assert np.array_equal(
            FlowSimulator(xgft, engine="compiled").evaluate(scheme, tm).loads,
            link_loads(xgft, scheme, tm))

    def test_all_to_all(self, xgft, spec):
        scheme = _scheme(xgft, spec)
        tm = all_to_all(xgft.n_procs)
        assert np.array_equal(
            FlowSimulator(xgft, engine="compiled").evaluate(scheme, tm).loads,
            link_loads(xgft, scheme, tm))


class TestBatchPermutations:
    def test_batch_matches_scalar_loop(self, tree8x3):
        scheme = make_scheme(tree8x3, "disjoint:3")
        engine = BatchFlowEngine(compile_scheme(tree8x3, scheme))
        rng = np.random.default_rng(3)
        perms = np.stack([random_permutation(tree8x3.n_procs, rng)
                          for _ in range(17)])
        batch = engine.permutation_mloads(perms)
        scalar = [max_link_load(link_loads(tree8x3, scheme,
                                           permutation_matrix(p)))
                  for p in perms]
        assert np.array_equal(batch, scalar)

    def test_single_permutation_1d(self, tree8x2):
        scheme = make_scheme(tree8x2, "d-mod-k")
        engine = BatchFlowEngine(compile_scheme(tree8x2, scheme))
        perm = np.roll(np.arange(tree8x2.n_procs), 1)
        out = engine.permutation_mloads(perm)
        assert out.shape == (1,)
        assert out[0] == max_link_load(link_loads(tree8x2, scheme,
                                                  permutation_matrix(perm)))

    def test_rejects_bad_width(self, tree8x2):
        scheme = make_scheme(tree8x2, "d-mod-k")
        engine = BatchFlowEngine(compile_scheme(tree8x2, scheme))
        with pytest.raises(ValueError):
            engine.permutation_mloads(np.zeros((2, 5), dtype=np.int64))


class TestFlowSimulatorEngines:
    @pytest.mark.parametrize("spec", ["d-mod-k", "disjoint:2", "umulti"])
    def test_evaluate_agrees(self, tree8x2, spec):
        scheme = make_scheme(tree8x2, spec)
        tm = shift_pattern(tree8x2.n_procs, 3)
        ref = FlowSimulator(tree8x2).evaluate(scheme, tm)
        comp = FlowSimulator(tree8x2, engine="compiled").evaluate(scheme, tm)
        assert np.array_equal(comp.loads, ref.loads)
        assert comp.max_load == ref.max_load
        assert comp.optimal == ref.optimal
        assert comp.per_level_max == ref.per_level_max

    def test_rejects_unknown_engine(self, tree8x2):
        with pytest.raises(SimulationError):
            FlowSimulator(tree8x2, engine="magic")

    def test_evaluate_accepts_precomputed_optimal(self, tree8x2):
        scheme = make_scheme(tree8x2, "umulti")
        tm = shift_pattern(tree8x2.n_procs, 5)
        sim = FlowSimulator(tree8x2)
        res = sim.evaluate(scheme, tm, optimal=2.0)
        assert res.optimal == 2.0
        assert res.ratio == pytest.approx(res.max_load / 2.0)

    def test_batch_engine_cached_per_scheme(self, tree8x2):
        sim = FlowSimulator(tree8x2, engine="compiled")
        scheme = make_scheme(tree8x2, "disjoint:2")
        assert sim.batch_engine(scheme) is sim.batch_engine(scheme)

    def test_accepts_precompiled_plan(self, tree8x2):
        scheme = make_scheme(tree8x2, "d-mod-k")
        plan = compile_scheme(tree8x2, scheme)
        sim = FlowSimulator(tree8x2, engine="compiled")
        tm = shift_pattern(tree8x2.n_procs, 1)
        assert np.array_equal(sim.evaluate(plan, tm).loads,
                              link_loads(tree8x2, scheme, tm))

    def test_permutation_mloads_both_engines(self, tree8x2):
        scheme = make_scheme(tree8x2, "random:2", seed=1)
        rng = np.random.default_rng(0)
        perms = np.stack([random_permutation(tree8x2.n_procs, rng)
                          for _ in range(5)])
        ref = FlowSimulator(tree8x2).permutation_mloads(scheme, perms)
        comp = FlowSimulator(tree8x2, engine="compiled") \
            .permutation_mloads(scheme, perms)
        assert np.array_equal(comp, ref)

    @pytest.mark.parametrize("wrapper", ["from-scratch", "incremental"])
    def test_plan_follows_in_place_fault_events(self, tree8x3, wrapper):
        # A cable fails in place after the engine met the scheme: the
        # compiled engine must not keep routing over the dead link.
        base = make_scheme(tree8x3, "disjoint:2")
        if wrapper == "from-scratch":
            fabric = DegradedFabric(tree8x3)
            scheme = DegradedScheme(base, fabric)
        else:
            scheme = IncrementalDegradedScheme(base)
            fabric = scheme.fabric
        sim = FlowSimulator(tree8x3, engine="compiled")
        tm = all_to_all(tree8x3.n_procs)
        sim.evaluate(scheme, tm)
        cable = int(samplable_cables(tree8x3)[0])
        if wrapper == "from-scratch":
            fabric.fail_cable(cable)
        else:
            scheme.apply_event(ChurnEvent("fail", "cable", cable))
        loads = sim.evaluate(scheme, tm).loads
        assert np.array_equal(loads, link_loads(tree8x3, scheme, tm))
        assert not loads[~fabric.link_ok].any()


class TestStudyCrossEngine:
    def test_same_seed_same_samples(self, tree8x2):
        """Property-style: both engines consume the identical permutation
        stream, so a fixed-seed study yields the same sample sequence."""
        scheme = make_scheme(tree8x2, "disjoint:2")
        kwargs = dict(initial_samples=16, max_samples=32, seed=99)
        ref = PermutationStudy(tree8x2, **kwargs).run(scheme)
        comp = PermutationStudy(tree8x2, engine="compiled", **kwargs) \
            .run(scheme)
        assert np.array_equal(comp.samples, ref.samples)
        assert comp.converged == ref.converged

    def test_result_carries_optimal(self, tree8x2):
        scheme = make_scheme(tree8x2, "umulti")
        res = PermutationStudy(tree8x2, initial_samples=8, max_samples=8,
                               seed=1).run(scheme)
        assert res.optimal == permutation_optimal_load(tree8x2)
        assert res.mean_ratio == pytest.approx(res.mean / res.optimal)

    def test_umulti_mean_ratio_is_one(self, tree8x2):
        # UMULTI achieves OLOAD on every matrix (Theorem 1), so each
        # sample equals the hoisted optimal.
        res = PermutationStudy(tree8x2, initial_samples=8, max_samples=8,
                               seed=2, engine="compiled") \
            .run(make_scheme(tree8x2, "umulti"))
        assert res.mean_ratio == pytest.approx(1.0)
