"""Trace-driven flit runs: exact replay, entry checks, synthesis."""

import re

import pytest

from repro.errors import SimulationError
from repro.flit.batched import ENGINES, flit_engine_class
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator
from repro.flit.traces import TraceEntry, synthesize_trace
from repro.flit.workload import UniformRandom
from repro.obs.recorder import Recorder, use_recorder
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree


@pytest.fixture
def sim4x2():
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=0, measure_cycles=3000, drain_cycles=3000)
    return FlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), cfg)


class TestRunTrace:
    def test_single_entry(self, sim4x2):
        res = sim4x2.run_trace([TraceEntry(10, 0, 7)])
        assert res.messages_measured == 1
        assert res.messages_completed == 1
        assert res.mean_delay > 0

    def test_injections_at_exact_cycles(self, sim4x2):
        # Two messages far apart: both measured, independent delays.
        res = sim4x2.run_trace([TraceEntry(10, 0, 7), TraceEntry(1500, 3, 6)])
        assert res.messages_measured == 2
        assert res.messages_completed == 2

    def test_replay_identical_across_seeds_single_path(self, sim4x2):
        # With a single-path scheme the seed has nothing to randomize.
        trace = [TraceEntry(5, 0, 7), TraceEntry(9, 1, 6), TraceEntry(9, 2, 5)]
        a = sim4x2.run_trace(trace, seed=1)
        b = sim4x2.run_trace(trace, seed=2)
        assert a == b

    def test_requires_workload_or_trace(self, sim4x2):
        with pytest.raises(SimulationError):
            sim4x2.run(None)

    def test_trace_entry_validation(self, sim4x2):
        """The error names the first bad entry, and nothing runs."""
        rec = Recorder()
        trace = [TraceEntry(1, 0, 1), TraceEntry(1, 2, 2), TraceEntry(-1, 0, 1)]
        with use_recorder(rec), pytest.raises(
                SimulationError, match=r"entry 1 TraceEntry\(cycle=1, src=2, dst=2\)"):
            sim4x2.run_trace(trace)
        assert not rec.events and not rec.counters and not rec.timers


class TestEntryChecks:
    """Each entry names a host outside the 4-port 2-tree's 8, its own
    source, or a negative cycle.  Both engines refuse it before running:
    the pair key ``src * n + dst`` of ``(5, 0, 8)`` would wrap onto pair
    (1, 0)'s paths, and a negative destination would drop the message."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("entry", [
        TraceEntry(5, 0, 8), TraceEntry(5, 1, -1), TraceEntry(5, 2, 2),
        TraceEntry(5, -1, 3), TraceEntry(-3, 0, 1),
    ], ids=["dst-wraps", "dst-negative", "self", "src-negative",
            "cycle-negative"])
    def test_bad_entry_raises(self, engine, entry):
        xgft = m_port_n_tree(4, 2)
        cfg = FlitConfig(warmup_cycles=0, measure_cycles=300,
                         drain_cycles=300)
        sim = flit_engine_class(engine)(xgft, make_scheme(xgft, "d-mod-k"),
                                        cfg)
        with pytest.raises(SimulationError,
                           match=re.escape(f"trace entry 1 {entry}:")):
            sim.run_trace([TraceEntry(1, 0, 1), entry])


class TestSynthesize:
    def test_matches_live_statistics(self):
        """A synthesized uniform trace replayed through the engine gives
        statistically equivalent rates to the live workload (the RNG
        streams differ, so agreement is distributional, not per-draw)."""
        xgft = m_port_n_tree(4, 2)
        cfg = FlitConfig(warmup_cycles=500, measure_cycles=12_000,
                         drain_cycles=4000)
        sim = FlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), cfg)
        live = sim.run(UniformRandom(0.3), seed=5)
        trace = synthesize_trace(UniformRandom(0.3), xgft.n_procs,
                                 cfg.message_flits, cfg.end_of_window, seed=5)
        replay = sim.run_trace(trace)
        assert replay.injected_load == pytest.approx(0.3, rel=0.15)
        assert replay.injected_load == pytest.approx(live.injected_load,
                                                     rel=0.15)
        assert replay.throughput == pytest.approx(replay.injected_load,
                                                  rel=0.05)

    def test_same_trace_different_schemes(self):
        """The point of traces: identical arrivals under two schemes."""
        xgft = m_port_n_tree(4, 2)
        cfg = FlitConfig(warmup_cycles=0, measure_cycles=4000,
                         drain_cycles=4000)
        trace = synthesize_trace(UniformRandom(0.5), xgft.n_procs,
                                 cfg.message_flits, 3000, seed=2)
        results = {}
        for spec in ("d-mod-k", "umulti"):
            sim = FlitSimulator(xgft, make_scheme(xgft, spec), cfg)
            results[spec] = sim.run_trace(trace)
        assert (results["d-mod-k"].messages_measured
                == results["umulti"].messages_measured)
