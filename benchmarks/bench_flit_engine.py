"""Microbenchmark of the flit-level event engines.

Times a fixed-window run on the paper's 8-port 3-tree at moderate load
and reports the event-processing rate — the figure that bounds how long
Table 1 / Figure 5 regeneration takes — for both the reference heap
engine and the batched calendar-queue engine (which must produce
bit-identical results while clearing the >= 5x speedup gate).
"""

from statistics import median
from timeit import repeat

from repro.flit.batched import BatchedFlitSimulator
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator
from repro.flit.workload import UniformRandom
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree

#: minimum batched-over-reference speedup on the 8-port 3-tree (the
#: batched engine's acceptance gate)
FLIT_ENGINE_SPEEDUP = 5.0


def _setup():
    xgft = m_port_n_tree(8, 3)
    cfg = FlitConfig(warmup_cycles=200, measure_cycles=1500, drain_cycles=500)
    return xgft, make_scheme(xgft, "disjoint:4"), cfg


def test_engine_event_rate(benchmark):
    xgft, scheme, cfg = _setup()
    sim = FlitSimulator(xgft, scheme, cfg)

    result = benchmark(sim.run, UniformRandom(0.6), seed=1)
    assert result.events > 10_000
    benchmark.extra_info["events"] = result.events
    benchmark.extra_info["events_per_sec"] = (
        result.events / benchmark.stats.stats.mean
    )


def test_batched_engine_event_rate(benchmark):
    xgft, scheme, cfg = _setup()
    reference = FlitSimulator(xgft, scheme, cfg)
    sim = BatchedFlitSimulator(xgft, scheme, cfg)
    workload = UniformRandom(0.6)
    # Parity first (also absorbs the one-time native-kernel compile).
    assert sim.run(workload, seed=1) == reference.run(workload, seed=1)
    ref_s = median(repeat(lambda: reference.run(workload, seed=1),
                          number=1, repeat=3))
    batched_s = median(repeat(lambda: sim.run(workload, seed=1),
                              number=1, repeat=5))
    print(f"\nflit engines: reference {ref_s * 1e3:.1f} ms, batched "
          f"{batched_s * 1e3:.1f} ms ({ref_s / batched_s:.1f}x)")
    assert ref_s / batched_s >= FLIT_ENGINE_SPEEDUP, (
        f"batched engine is {ref_s / batched_s:.1f}x the reference "
        f"(gate {FLIT_ENGINE_SPEEDUP}x)")

    result = benchmark(sim.run, workload, seed=1)
    assert result.events > 10_000
    benchmark.extra_info["events"] = result.events
    benchmark.extra_info["events_per_sec"] = (
        result.events / benchmark.stats.stats.mean
    )
