"""Event rate of the flit-level engines, and the batched engine's gate.

Times a fixed-window run on the paper's 8-port 3-tree at moderate load
on the reference heap engine and on the batched engine, which must
return bit-identical results and run at least 5x faster.  Prints both
event rates: the figure that bounds how long Table 1 / Figure 5
regeneration takes.

Run: ``python -m pytest -q -s benchmarks/bench_flit_engine.py``
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


def test_batched_engine_event_rate():
    xgft = m_port_n_tree(8, 3)
    scheme = make_scheme(xgft, "disjoint:4")
    cfg = FlitConfig(warmup_cycles=200, measure_cycles=1500, drain_cycles=500)
    reference = FlitSimulator(xgft, scheme, cfg)
    sim = BatchedFlitSimulator(xgft, scheme, cfg)
    workload = UniformRandom(0.6)
    # Parity first (also absorbs the one-time native-kernel compile).
    result = sim.run(workload, seed=1)
    assert result == reference.run(workload, seed=1)
    assert result.events > 10_000
    ref_s = median(repeat(lambda: reference.run(workload, seed=1),
                          number=1, repeat=3))
    batched_s = median(repeat(lambda: sim.run(workload, seed=1),
                              number=1, repeat=5))
    print(f"\nflit engines, {result.events} events: reference "
          f"{ref_s * 1e3:.1f} ms ({result.events / ref_s:,.0f} events/s), "
          f"batched {batched_s * 1e3:.1f} ms "
          f"({result.events / batched_s:,.0f} events/s), "
          f"{ref_s / batched_s:.1f}x")
    assert ref_s / batched_s >= FLIT_ENGINE_SPEEDUP, (
        f"batched engine is {ref_s / batched_s:.1f}x the reference "
        f"(gate {FLIT_ENGINE_SPEEDUP}x)")
