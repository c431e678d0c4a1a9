"""Profile-report rendering: sparklines and section assembly."""

from repro.experiments.registry import run_instrumented
from repro.obs import Recorder, render_report, sparkline
from repro.obs.report import _peaks


class TestSparkline:
    def test_monotone_ramp(self):
        assert sparkline([0, 1, 2, 3]) == "▁▃▆█"

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty_and_nan(self):
        assert sparkline([]) == ""
        assert sparkline([float("nan")]) == ""
        assert len(sparkline([1.0, float("nan"), 2.0])) == 2


class TestRenderReport:
    def test_empty_recorder(self):
        assert "(recorder is empty)" in render_report(Recorder())

    def test_sections_present(self):
        rec = Recorder()
        rec.count("flow.samples", 128)
        with rec.timer("experiment.figure4a"):
            pass
        out = render_report(rec, title="my run")
        assert "my run" in out
        assert "timers" in out and "experiment.figure4a" in out
        assert "counters" in out and "flow.samples" in out

    def test_convergence_section(self):
        rec = Recorder()
        studies = [
            ("d-mod-k", None, [(8, 3.9, 0.2), (16, 3.8, 0.08),
                               (32, 3.75, 0.009)]),
            # one label, two routing seeds: two studies, two rows
            ("random(2)", 0, [(8, 4.1, 0.05), (16, 4.0, 0.008)]),
            ("random(2)", 1, [(8, 4.2, 0.009)]),
        ]
        for k, (scheme, seed, rounds) in enumerate(studies):
            for i, (n, mean, rel) in enumerate(rounds):
                rec.event("convergence_round", scheme=scheme, seed=seed,
                          round=i, n_samples=n, mean=mean,
                          half_width=rel * mean, rel_half_width=rel,
                          elapsed_s=0.01 * (k + 1) + 0.001 * i)
        out = render_report(rec)
        section = next(part for part in out.split("\n\n")
                       if part.startswith("convergence"))
        rows = section.splitlines()[1:]
        assert len(rows) == 3
        assert rows[0].split()[0] == "d-mod-k"
        assert "rounds=3 samples=32 mean=3.7500 wall=0.0120s" in rows[0]
        assert rows[1].split()[:2] == ["random(2)", "seed=0"]
        assert "rounds=2 samples=16 mean=4.0000 wall=0.0210s" in rows[1]
        assert rows[2].split()[:2] == ["random(2)", "seed=1"]
        assert "rounds=1 samples=8 mean=4.2000 wall=0.0300s" in rows[2]

    def test_flit_section(self):
        rec = Recorder()
        for t, (inj, dlv, stalls, occ) in enumerate(
            [(100, 90, 0, 5), (110, 100, 3, 9), (95, 105, 1, 4)]
        ):
            rec.event("flit_interval", t=(t + 1) * 50, injected=inj,
                      delivered=dlv, credit_stalls=stalls, occupancy=occ)
        out = render_report(rec)
        assert "flit engine (3 interval(s))" in out
        assert "credit stalls" in out and "total=4" in out
        assert "buffer occupancy" in out and "max=9" in out

    @staticmethod
    def _flit_bars(out: str) -> dict[str, str]:
        section = next(part for part in out.split("\n\n")
                       if part.startswith("flit engine"))
        return {line.split()[0]: line.split()[-2]
                for line in section.splitlines()[1:]}

    def test_long_flit_series_draw_sixty_peaks(self):
        """``table1 --fidelity fast`` records 4,424 intervals: each
        series draws 60 characters, each the peak of its bin, while
        ``max=`` and ``total=`` read every interval."""
        rec = Recorder()
        for t in range(4424):
            rec.event("flit_interval", t=t, injected=100 * (t == 1234),
                      delivered=7, credit_stalls=1, occupancy=t)
        out = render_report(rec)
        bars = self._flit_bars(out)
        assert {len(bar) for bar in bars.values()} == {60}
        assert bars["injected/interval"].count("█") == 1  # the one spike
        assert bars["delivered/interval"] == "▁" * 60
        levels = ["▁▂▃▄▅▆▇█".index(bar) for bar in bars["buffer"]]
        assert levels == sorted(levels) and levels[-1] == 7  # a ramp
        assert "max=100" in out and "total=4424" in out and "max=4423" in out

    def test_short_flit_series_draw_every_interval(self):
        rec = Recorder()
        occupancy = [(7 * t) % 11 for t in range(60)]
        for t, occ in enumerate(occupancy):
            rec.event("flit_interval", t=t, injected=0, delivered=0,
                      credit_stalls=0, occupancy=occ)
        assert self._flit_bars(render_report(rec))["buffer"] == \
            sparkline(occupancy)

    def test_runs_draw_apart(self):
        """Each run's marks restart at its first interval, so two runs
        draw as two characters, each its run's peak, and the header
        names the run count; ``max=`` and ``total=`` read every
        interval."""
        rec = Recorder()
        for run, occupancy in enumerate(([1, 9, 2], [4, 4, 5, 3])):
            for i, occ in enumerate(occupancy):
                rec.event("flit_interval", t=(i + 1) * 50, injected=run,
                          delivered=1, credit_stalls=occ, occupancy=occ)
        out = render_report(rec)
        assert "flit engine (7 interval(s), 2 runs," in out
        bars = self._flit_bars(out)
        assert bars["buffer"] == sparkline([9, 5])
        assert bars["injected/interval"] == sparkline([0, 1])
        assert "max=9" in out and "total=28" in out

    def test_many_runs_draw_whole_runs_per_character(self):
        """``figure5 --fidelity fast`` makes 72 flit runs: each of the 60
        characters is the peak of whole runs."""
        rec = Recorder()
        peaks = [(7 * run) % 11 for run in range(72)]
        for peak in peaks:
            for i in range(40):  # each run peaks in its last interval
                rec.event("flit_interval", t=(i + 1) * 50, injected=0,
                          delivered=0, credit_stalls=0,
                          occupancy=peak * (i == 39))
        out = render_report(rec)
        assert "(2880 interval(s), 72 runs," in out
        bar = self._flit_bars(out)["buffer"]
        assert len(bar) == 60 and bar == sparkline(_peaks(peaks))
        assert "max=10" in out

    def test_figure4a_prints_one_convergence_row_per_study(self):
        """Figure 4(a) averages the random heuristic over five routing
        seeds; each seed's study gets its own row."""
        run = run_instrumented("figure4a", fidelity_name="fast",
                               recorder=Recorder())
        section = next(part for part in render_report(run.recorder)
                       .split("\n\n") if part.startswith("convergence"))
        rows = section.splitlines()[1:]
        assert len(rows) == run.recorder.counters["flow.studies"]
        assert all(" wall=" in row for row in rows)
        assert sum(" seed=" in row for row in rows) == 5 * 8  # 5 seeds, 8 Ks
