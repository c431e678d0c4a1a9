"""Cross-process telemetry: snapshot/merge round-trips and worker
recorder state merging into the parent through a pooled sweep."""

import json
from dataclasses import asdict

import pytest

from repro.flit.batched import make_flit_simulator
from repro.flit.config import FlitConfig
from repro.flit.workload import UniformRandom
from repro.obs import render_report
from repro.obs.recorder import Recorder, use_recorder
from repro.routing.factory import make_scheme
from repro.runner import sweep
from repro.runner.sweep import run_sweeps
from repro.topology.variants import m_port_n_tree

CFG = FlitConfig(warmup_cycles=100, measure_cycles=500, drain_cycles=500,
                 seed=11)
LOADS = (0.2, 0.6)


@pytest.fixture(scope="module")
def tree():
    return m_port_n_tree(4, 2)


def _nan_eq(a, b):
    """Recursive equality that treats NaN == NaN (JSON round-trips keep
    NaN as a float, and plain == would reject it)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(_nan_eq(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _nan_eq(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    return a == b


def _populated_recorder():
    rec = Recorder()
    rec.count("flit.runs", 3)
    rec.count("flow.samples", 64)
    with rec.timer("outer"):
        with rec.timer("inner"):
            pass
    for v in (0.0, 0.5, 1.5, 3.0, 1024.0):  # floor + spread buckets
        rec.observe("flit.message_delay", v)
    rec.event("convergence_round", scheme="d-mod-k", mean=0.5,
              half_width=float("nan"))
    rec.event("flit_load_point", scheme="d-mod-k", offered_load=0.6,
              mean_delay=float("nan"), saturated=True)
    return rec


class TestSnapshotRoundTrip:
    def test_merge_of_json_snapshot_is_bit_identical(self):
        """The worker transport: snapshot -> JSON -> merge into a fresh
        recorder must lose nothing — histogram buckets, NaN event
        fields, timer totals, every event type."""
        worker = _populated_recorder()
        wire = json.loads(json.dumps(worker.snapshot()))
        parent = Recorder()
        parent.merge(wire)
        assert _nan_eq(parent.snapshot(), worker.snapshot())
        # histogram internals survive exactly, including the floor bucket
        mine = parent.hists["flit.message_delay"]
        theirs = worker.hists["flit.message_delay"]
        assert mine.buckets == theirs.buckets
        assert -1075 in mine.buckets
        assert (mine.count, mine.total, mine.vmin, mine.vmax) == \
            (theirs.count, theirs.total, theirs.vmin, theirs.vmax)

    def test_merging_two_workers_sums_every_dimension(self):
        parent = Recorder()
        parent.merge(_populated_recorder().snapshot())
        parent.merge(_populated_recorder().snapshot())
        assert parent.counters["flit.runs"] == 6
        assert parent.timers["outer"][1] == 2
        assert parent.timers["outer/inner"][1] == 2
        hist = parent.hists["flit.message_delay"]
        assert hist.count == 10
        assert hist.vmin == 0.0 and hist.vmax == 1024.0
        assert all(n == 2 for n in hist.buckets.values())
        assert len(parent.events_of("convergence_round")) == 2
        assert len(parent.events_of("flit_load_point")) == 2

    def test_nan_timer_totals_merge_without_poisoning_calls(self):
        """A NaN total must stay NaN-contained: call counts (ints) keep
        merging exactly even when a wall-clock total is NaN."""
        parent = Recorder()
        parent.merge({"counters": {}, "hists": {}, "events": [],
                      "timers": {"t": {"total_s": float("nan"),
                                       "calls": 3}}})
        parent.merge({"counters": {}, "hists": {}, "events": [],
                      "timers": {"t": {"total_s": 1.5, "calls": 2}}})
        total, calls = parent.timers["t"]
        assert calls == 5
        assert total != total  # NaN, not silently dropped


class TestPoolTaskTelemetry:
    """The worker side of a pooled sweep, called in this process."""

    @pytest.fixture
    def sim(self, tree, monkeypatch):
        sim = make_flit_simulator("batched", tree,
                                  make_scheme(tree, "d-mod-k"), CFG)
        monkeypatch.setattr(sweep, "_GRID", None)  # restored afterwards
        sweep._init_worker({"d": sim}, UniformRandom)
        return sim

    def test_pool_task_ships_worker_snapshot(self, sim):
        result, snapshot = sweep._pool_task("d", 0.2, CFG.seed, True)
        expected = sim.run(UniformRandom(0.2), seed=CFG.seed)
        assert _nan_eq(asdict(result), asdict(expected))
        assert snapshot["counters"]["flit.runs"] == 1
        assert snapshot["timers"]["flit.point"]["calls"] == 1

    def test_pool_task_without_recorder_ships_nothing(self, sim):
        inherited = Recorder()  # what a fork worker inherits
        with use_recorder(inherited):
            result, snapshot = sweep._pool_task("d", 0.2, CFG.seed, False)
        assert snapshot is None
        assert result.offered_load == 0.2
        assert not inherited.counters and not inherited.timers


class TestParallelSweepTelemetry:
    def _sweep(self, tree, **kwargs):
        schemes = {spec: make_scheme(tree, spec)
                   for spec in ("d-mod-k", "shift-1:2")}
        rec = Recorder()
        with use_recorder(rec):
            out = run_sweeps(tree, schemes, CFG, loads=LOADS, **kwargs)
        return out, rec

    def test_parallel_merges_worker_counters_matching_serial(self, tree):
        serial_out, serial_rec = self._sweep(tree)
        par_out, par_rec = self._sweep(tree, n_jobs=4)

        # results bit-identical (NaN-tolerant field compare)
        for key in serial_out:
            for ra, rb in zip(serial_out[key].runs, par_out[key].runs):
                for f in ra.__dataclass_fields__:
                    va, vb = getattr(ra, f), getattr(rb, f)
                    assert va == vb or (va != va and vb != vb)

        # every flit.* counter the simulator recorded serially arrives
        # through the worker snapshots with the same value
        serial_flit = {k: v for k, v in serial_rec.counters.items()
                       if k.startswith("flit.")}
        par_flit = {k: v for k, v in par_rec.counters.items()
                    if k.startswith("flit.")}
        assert serial_flit and serial_flit == par_flit

        # worker-side timers are non-zero and merged into the parent
        total, calls = par_rec.timers["flit.point"]
        assert calls == len(LOADS) * 2 and total > 0

        # histograms merge bucket-exactly (totals are float sums whose
        # association differs, so compare them approximately)
        for name, serial_hist in serial_rec.hists.items():
            par_hist = par_rec.hists[name]
            assert par_hist.buckets == serial_hist.buckets
            assert par_hist.count == serial_hist.count
            assert par_hist.vmin == serial_hist.vmin
            assert par_hist.vmax == serial_hist.vmax
            assert par_hist.total == pytest.approx(serial_hist.total)

    def test_pool_counters_reach_the_report(self, tree):
        _, rec = self._sweep(tree, n_jobs=2)
        assert rec.counters["runner.pool_workers"] == 2
        assert rec.counters["runner.pool_tasks"] == len(LOADS) * 2
        assert "  pool workers=2 tasks=4" in render_report(rec)
