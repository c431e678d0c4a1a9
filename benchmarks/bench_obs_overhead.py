"""Overhead of the observability layer (:mod:`repro.obs`).

The recorder must be near-free when disabled.  Every flow evaluation
makes one ``get_recorder()`` lookup and opens one timer (``flow.kernel``
or ``flow.fallback.no_kernel``), and the two entry points add their own:
``FlowSimulator.permutation_mloads`` once per batched round of a
permutation study (the hot path; a no-op timer and an ``enabled``
check), and ``FlowSimulator.max_load`` once per single traffic matrix
(an ``enabled`` check).  The flit event loop pays a single integer
comparison per event.  This bench
measures each against an uninstrumented baseline (the same work through
the evaluator's untimed core) and **asserts** the disabled-recorder cost
stays under the 5 % budget on both flow entry points; the
enabled-recorder cost is reported for reference.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from repro import native
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator
from repro.flit.workload import UniformRandom
from repro.flow import loads
from repro.flow.metrics import max_link_load
from repro.flow.simulator import FlowSimulator
from repro.obs import Recorder, use_recorder
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.traffic.permutations import (
    permutation_matrix,
    permutation_pairs,
    random_permutation,
)

#: disabled-recorder overhead budget on the flow entry points (<5 %)
OBS_OVERHEAD_BUDGET = 0.05

#: shortest timed block in the overhead measurement: a single-matrix
#: call takes microseconds, so it repeats until one block lasts this long
MIN_TIMED_BLOCK_S = 0.02

#: permutations in the measured batched round (a ``fast`` study's first)
ROUND_SIZE = 16


def _best_of(fn, *, rounds: int = 7, reps: int = 5) -> float:
    """Minimum per-call time over several interleaved rounds — robust to
    scheduler noise, which a 5 % bound cannot absorb."""
    best = float("inf")
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (perf_counter() - t0) / reps)
    return best


def _overhead(raw, instrumented) -> dict:
    """Median timings of ``raw`` and of ``instrumented`` under the no-op
    and under an enabled recorder over 7 rounds, plus the derived
    overhead fractions (medians of the per-round ratios).  Each timed
    block runs at least 5 calls and lasts at least
    :data:`MIN_TIMED_BLOCK_S`.
    """
    def enabled():
        with use_recorder(Recorder()):
            return instrumented()

    instrumented(), enabled()  # warm caches outside the timings
    calls, t0 = 0, perf_counter()
    while perf_counter() - t0 < MIN_TIMED_BLOCK_S:
        raw()
        calls += 1
    reps = max(5, calls)

    def timed(fn):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        return (perf_counter() - t0) / reps

    # Each round times the three variants forward then backward, so
    # clock-speed drift within the round (turbo decay, a noisy
    # neighbour) hits them symmetrically; the medians over rounds then
    # drop the rounds a burst of noise landed on.  (A best-of estimate
    # swings by +-10 % on a shared host: one variant catching a lucky
    # fast block decides it.)
    t_raw, t_disabled, t_enabled = [], [], []
    for _ in range(7):
        a, b, c = timed(raw), timed(instrumented), timed(enabled)
        t_enabled.append((c + timed(enabled)) / 2)
        t_disabled.append((b + timed(instrumented)) / 2)
        t_raw.append((a + timed(raw)) / 2)
    return {
        "raw_s": median(t_raw),
        "disabled_s": median(t_disabled),
        "enabled_s": median(t_enabled),
        "disabled_overhead": median(
            d / r for d, r in zip(t_disabled, t_raw)) - 1.0,
        "enabled_overhead": median(
            e / r for e, r in zip(t_enabled, t_raw)) - 1.0,
    }


def measure_obs_overhead() -> dict[str, dict]:
    """Recorder overhead on the flow entry points, on the paper's 8-port
    3-tree: ``"round"`` is one batched round of :data:`ROUND_SIZE`
    permutations, ``"max_load"`` one permutation matrix (see
    :func:`_overhead` for the fields).  The ambient recorder is the
    no-op unless a variant installs one.
    """
    xgft = m_port_n_tree(8, 3)
    sim = FlowSimulator(xgft)
    scheme = make_scheme(xgft, "disjoint:8")
    rng = np.random.default_rng(0)
    perms = np.stack([random_permutation(xgft.n_procs, rng)
                      for _ in range(ROUND_SIZE)])
    tm = permutation_matrix(perms[0])
    return {
        "round": _overhead(
            lambda: loads._loads(xgft, scheme, permutation_pairs(perms),
                                 native.available()).max(axis=1, initial=0.0),
            lambda: sim.permutation_mloads(scheme, perms)),
        "max_load": _overhead(
            lambda: max_link_load(loads._loads(
                xgft, scheme, [tm.network_pairs()], native.available())[0]),
            lambda: sim.max_load(scheme, tm)),
    }


def test_flow_hot_path_disabled_recorder_under_5_percent():
    for name, m in measure_obs_overhead().items():
        print(f"\nflow {name}: raw={m['raw_s'] * 1e3:.3f}ms "
              f"noop={m['disabled_s'] * 1e3:.3f}ms "
              f"({m['disabled_overhead']:+.1%}) "
              f"enabled={m['enabled_s'] * 1e3:.3f}ms "
              f"({m['enabled_overhead']:+.1%})")
        assert m["disabled_overhead"] <= OBS_OVERHEAD_BUDGET, (
            f"disabled recorder costs {m['disabled_overhead']:.1%} on the "
            f"flow {name} (budget {OBS_OVERHEAD_BUDGET:.0%})"
        )


def test_flit_short_run_overhead_reported():
    xgft = m_port_n_tree(4, 2)
    scheme = make_scheme(xgft, "d-mod-k")
    cfg = FlitConfig(warmup_cycles=200, measure_cycles=800, drain_cycles=500)
    sim = FlitSimulator(xgft, scheme, cfg)
    load = UniformRandom(0.5)

    def disabled():
        return sim.run(load, seed=1)

    def enabled():
        rec = Recorder()
        return sim.run(load, seed=1, recorder=rec)

    base = disabled()
    with_rec = enabled()
    # Telemetry must not perturb the simulation itself.
    assert with_rec.throughput == base.throughput
    assert with_rec.events == base.events

    t_off = _best_of(disabled, rounds=5, reps=3)
    t_on = _best_of(enabled, rounds=5, reps=3)
    print(f"\nflit run: disabled={t_off * 1e3:.1f}ms "
          f"enabled={t_on * 1e3:.1f}ms ({t_on / t_off - 1.0:+.1%})")
    # Even fully enabled, per-interval tracing should stay modest.
    assert t_on <= t_off * 2.0
