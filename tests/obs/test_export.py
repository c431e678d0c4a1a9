"""Metrics export: Prometheus text format, wide rows, cross-run reports."""

import math

import pytest

from repro.errors import ReproError
from repro.obs import Recorder, use_recorder
from repro.obs.events import JsonlSink, write_run
from repro.obs.export import (
    aggregate_runs,
    discover_run_logs,
    load_run,
    merged_recorder,
    quantile,
    render_cross_run_report,
    to_prometheus,
    to_wide_row,
)
from repro.obs.manifest import RunManifest
from repro.obs.trace import span


class TestPrometheus:
    def test_counter(self):
        rec = Recorder()
        rec.count("runner.cache_hit", 3)
        out = to_prometheus(rec)
        assert "# TYPE repro_runner_cache_hit counter\n" in out
        assert "repro_runner_cache_hit 3\n" in out

    def test_name_sanitization(self):
        rec = Recorder()
        rec.count("flow.samples-odd name", 1)
        out = to_prometheus(rec)
        assert "repro_flow_samples_odd_name 1" in out

    def test_timer_becomes_seconds_and_calls_pair(self):
        rec = Recorder()
        with rec.timer("flow.study"):
            pass
        out = to_prometheus(rec)
        assert "# TYPE repro_flow_study_seconds_total counter" in out
        assert "repro_flow_study_calls_total 1" in out

    def test_labels_attach_to_every_sample(self):
        rec = Recorder()
        rec.count("a", 1)
        with rec.timer("t"):
            pass
        out = to_prometheus(rec, labels={"host": "ci", "run": "7"})
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            assert 'host="ci"' in line and 'run="7"' in line

    def test_custom_prefix(self):
        rec = Recorder()
        rec.count("x", 1)
        assert "xgft_x 1" in to_prometheus(rec, prefix="xgft_")

    def test_label_values_escape_quotes_backslashes_newlines(self):
        # Prometheus exposition format: \ -> \\, " -> \", newline -> \n
        # inside label values; a raw quote would truncate the value and
        # break the scrape parser.
        rec = Recorder()
        rec.count("x", 1)
        out = to_prometheus(rec, labels={
            "scheme": 'disjoint "wide"',
            "path": "C:\\tables",
            "note": "a\nb",
        })
        assert 'scheme="disjoint \\"wide\\""' in out
        assert 'path="C:\\\\tables"' in out
        assert 'note="a\\nb"' in out
        # no label value leaks an unescaped quote or literal newline
        for line in out.splitlines():
            if not line.startswith("#") and "x{" in line:
                assert line.count('"') % 2 == 0

    def test_histogram_buckets_are_cumulative(self):
        rec = Recorder()
        for v in (0.5, 1.5, 3.0, 3.5):
            rec.observe("lat", v)
        out = to_prometheus(rec)
        assert "# TYPE repro_lat histogram" in out
        bucket_counts = []
        for line in out.splitlines():
            if line.startswith("repro_lat_bucket"):
                bucket_counts.append(int(line.rsplit(" ", 1)[1]))
        # cumulative and ending at the total count via +Inf
        assert bucket_counts == sorted(bucket_counts)
        assert bucket_counts[-1] == 4
        assert 'le="+Inf"' in out
        assert "repro_lat_sum 8.5" in out
        assert "repro_lat_count 4" in out

    def test_histogram_le_bounds_are_powers_of_two(self):
        rec = Recorder()
        rec.observe("lat", 3.0)  # bucket covers (2, 4]
        out = to_prometheus(rec)
        assert 'le="4.0"' in out

    def test_zero_value_lands_in_floor_bucket(self):
        rec = Recorder()
        rec.observe("lat", 0.0)
        out = to_prometheus(rec)
        assert 'le="0"' in out

    def test_empty_recorder_renders_empty(self):
        assert to_prometheus(Recorder()) == ""


class TestWideRow:
    def test_all_dimensions_flatten(self):
        rec = Recorder()
        rec.count("flit.runs", 2)
        with rec.timer("eval"):
            pass
        for v in (1.0, 2.0, 4.0):
            rec.observe("lat", v)
        row = to_wide_row(rec)
        assert row["flit.runs"] == 2
        assert row["eval.calls"] == 1 and row["eval.total_s"] >= 0
        assert row["lat.count"] == 3
        assert row["lat.mean"] == pytest.approx(7.0 / 3.0)
        assert row["lat.min"] == 1.0 and row["lat.max"] == 4.0
        assert "lat.p50" in row and "lat.p95" in row and "lat.p99" in row

    def test_prefix_and_scalar_values(self):
        rec = Recorder()
        rec.count("x", 1)
        row = to_wide_row(rec, prefix="run0.")
        assert set(row) == {"run0.x"}
        assert all(isinstance(v, (int, float)) for v in row.values())


class TestQuantile:
    def test_exact_interpolation(self):
        assert quantile([1, 2, 3, 4], 0.5) == 2.5
        assert quantile([1, 2, 3, 4], 0.0) == 1.0
        assert quantile([1, 2, 3, 4], 1.0) == 4.0

    def test_degenerate_inputs(self):
        assert quantile([7.0], 0.95) == 7.0
        assert math.isnan(quantile([], 0.5))
        assert quantile([1.0, float("nan"), 3.0], 1.0) == 3.0


def _write_log(path, experiment, *, seed=1, wall=2.0, with_span=False):
    rec = Recorder()
    rec.count("flow.samples", 64)
    with rec.timer("flow.sampling"):
        pass
    if with_span:
        with use_recorder(rec), span("study", scheme="d-mod-k"):
            pass
    manifest = RunManifest(experiment, fidelity="fast", seed=seed,
                           wall_time_s=wall)
    with JsonlSink(path) as sink:
        write_run(sink, manifest, rec)


class TestCrossRunReport:
    def test_load_run_partitions_lines(self, tmp_path):
        log = tmp_path / "a.jsonl"
        _write_log(log, "figure4a", with_span=True)
        run = load_run(log)
        assert run.experiment == "figure4a"
        assert run.metrics["counters"]["flow.samples"] == 64
        assert any(e.get("type") == "span" for e in run.events)

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
        _write_log(tmp_path / "b.jsonl", "figure4a", seed=2, with_span=True)
        out = render_cross_run_report(aggregate_runs([tmp_path]))
        assert "2 run(s)" in out
        assert "a.jsonl" in out and "b.jsonl" in out
        assert "flow.sampling" in out  # phase table
        assert "p95 s" in out
        assert "flow.samples" in out  # counter totals
        assert "span waterfall (b.jsonl)" in out
        assert "study" in out

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
