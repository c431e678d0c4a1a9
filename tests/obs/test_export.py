"""Cross-run reports: loading, merging and rendering run logs."""

import math

import pytest

from repro.errors import ReproError
from repro.obs import Recorder
from repro.obs.events import JsonlSink, write_run
from repro.obs.export import (
    aggregate_runs,
    discover_run_logs,
    load_run,
    merged_recorder,
    quantile,
    render_cross_run_report,
)
from repro.obs.manifest import RunManifest


class TestQuantile:
    def test_exact_interpolation(self):
        assert quantile([1, 2, 3, 4], 0.5) == 2.5
        assert quantile([1, 2, 3, 4], 0.0) == 1.0
        assert quantile([1, 2, 3, 4], 1.0) == 4.0

    def test_degenerate_inputs(self):
        assert quantile([7.0], 0.95) == 7.0
        assert math.isnan(quantile([], 0.5))
        assert quantile([1.0, float("nan"), 3.0], 1.0) == 3.0


def _write_log(path, experiment, *, seed=1, wall=2.0):
    rec = Recorder()
    rec.count("flow.samples", 64)
    with rec.timer("flow.sampling"):
        pass
    rec.event("convergence_round", scheme="d-mod-k", seed=None, round=0,
              n_samples=64, mean=3.75, elapsed_s=0.01)
    manifest = RunManifest(experiment, fidelity="fast", seed=seed,
                           wall_time_s=wall)
    with JsonlSink(path) as sink:
        write_run(sink, manifest, rec)


class TestCrossRunReport:
    def test_load_run_partitions_lines(self, tmp_path):
        log = tmp_path / "a.jsonl"
        _write_log(log, "figure4a")
        run = load_run(log)
        assert run.experiment == "figure4a"
        assert run.metrics["counters"]["flow.samples"] == 64
        assert [e["type"] for e in run.events] == ["convergence_round"]

    def test_discover_expands_directories(self, tmp_path):
        _write_log(tmp_path / "b.jsonl", "x")
        _write_log(tmp_path / "a.jsonl", "y")
        found = discover_run_logs([tmp_path])
        assert [p.name for p in found] == ["a.jsonl", "b.jsonl"]

    def test_merged_recorder_sums_counters(self, tmp_path):
        _write_log(tmp_path / "a.jsonl", "x")
        _write_log(tmp_path / "b.jsonl", "x")
        merged = merged_recorder(aggregate_runs([tmp_path]))
        assert merged.counters["flow.samples"] == 128
        assert merged.timers["flow.sampling"][1] == 2

    def test_report_includes_runs_phases_counters_and_waterfall(
            self, tmp_path):
        _write_log(tmp_path / "a.jsonl", "figure4a", seed=1)
        _write_log(tmp_path / "b.jsonl", "figure4a", seed=2)
        out = render_cross_run_report(aggregate_runs([tmp_path]))
        assert "2 run(s)" in out
        assert "a.jsonl" in out and "b.jsonl" in out
        assert "flow.sampling" in out  # phase table
        assert "p95 s" in out
        assert "flow.samples" in out  # counter totals
        # exactly these sections after the title: no waterfall any more
        titles = [section.splitlines()[0] for section in out.split("\n\n")]
        assert titles[1:] == ["runs", "per-phase wall time across runs",
                              "counter totals"]

    def test_report_with_no_runs(self):
        assert "(no run logs found)" in render_cross_run_report([])

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read .*bad.jsonl"),
        ('{"type": "manifest"}\n{"type": "ev', "bad.jsonl:2: not valid JSON"),
        ('{"type": "manifest"}\nnot json\n{}\n', "bad.jsonl:2: not valid"),
        ('[1, 2]\n', "bad.jsonl:1: expected a JSON object"),
    ], ids=["missing", "torn", "malformed", "not-an-object"])
    def test_bad_log_raises_typed_error(self, tmp_path, content, message):
        log = tmp_path / "bad.jsonl"
        if content is not None:
            log.write_text(content)
        with pytest.raises(ReproError, match=message):
            aggregate_runs([log])
