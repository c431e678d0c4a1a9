"""Cross-run reports: the ``repro report`` view.

:func:`aggregate_runs` loads a directory of ``--log-json`` JSONL run
logs, :func:`merged_recorder` folds them into one recorder, and
:func:`render_cross_run_report` shows counter totals and per-phase
wall-time distributions (p50/p95/p99 across runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.events import read_jsonl
from repro.obs.recorder import Recorder
from repro.util.tables import format_table


def quantile(values, q: float) -> float:
    """Exact linear-interpolation quantile of a small value list."""
    vals = sorted(float(v) for v in values if v == v)
    if not vals:
        return float("nan")
    if len(vals) == 1:
        return vals[0]
    rank = q * (len(vals) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (rank - lo)


@dataclass
class RunRecord:
    """One parsed ``--log-json`` run log."""

    path: str
    manifest: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    events: list = field(default_factory=list)

    @property
    def experiment(self) -> str:
        return str(self.manifest.get("experiment", "?"))


def load_run(path) -> RunRecord:
    """Parse one JSONL run log (manifest line, events, metrics line)."""
    run = RunRecord(path=str(path))
    for obj in read_jsonl(path):
        kind = obj.get("type")
        if kind == "manifest":
            run.manifest = obj
        elif kind == "metrics":
            run.metrics = obj
        else:
            run.events.append(obj)
    return run


def discover_run_logs(paths) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.jsonl`` logs."""
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(p.glob("*.jsonl")))
        else:
            out.append(p)
    return out


def aggregate_runs(paths) -> list[RunRecord]:
    """Load every run log under ``paths`` (files or directories)."""
    return [load_run(p) for p in discover_run_logs(paths)]


def merged_recorder(runs: list[RunRecord]) -> Recorder:
    """One recorder holding the merged metrics + events of all runs."""
    rec = Recorder()
    for run in runs:
        rec.merge({**run.metrics, "events": run.events})
    return rec


def _phase_rows(runs: list[RunRecord]) -> list[list]:
    """Per-timer wall-time distribution across runs (p50/p95/p99 of the
    per-run totals, plus total seconds and calls)."""
    per_phase: dict[str, list[float]] = {}
    calls: dict[str, int] = {}
    for run in runs:
        for name, t in run.metrics.get("timers", {}).items():
            per_phase.setdefault(name, []).append(float(t["total_s"]))
            calls[name] = calls.get(name, 0) + int(t["calls"])
    rows = []
    for name in sorted(per_phase, key=lambda n: -sum(per_phase[n])):
        samples = per_phase[name]
        rows.append([
            name, len(samples), calls[name], f"{sum(samples):.4f}",
            f"{quantile(samples, 0.5):.4f}",
            f"{quantile(samples, 0.95):.4f}",
            f"{quantile(samples, 0.99):.4f}",
        ])
    return rows


def render_cross_run_report(runs: list[RunRecord], *,
                            title: str = "cross-run report") -> str:
    """The ``repro report`` text view over a set of run logs."""
    if not runs:
        return f"{title}\n\n(no run logs found)"
    sections = [f"{title}  ({len(runs)} run(s))"]

    run_rows = []
    for run in runs:
        m = run.manifest
        wall = m.get("wall_time_s")
        run_rows.append([
            Path(run.path).name, run.experiment,
            str(m.get("fidelity", "-")),
            "-" if m.get("seed") is None else str(m.get("seed")),
            "-" if wall is None else f"{float(wall):.2f}",
            len(run.events),
        ])
    sections.append(format_table(
        ["log", "experiment", "fidelity", "seed", "wall s", "events"],
        run_rows, title="runs"))

    phase_rows = _phase_rows(runs)
    if phase_rows:
        sections.append(format_table(
            ["phase", "runs", "calls", "total s", "p50 s", "p95 s", "p99 s"],
            phase_rows, title="per-phase wall time across runs"))

    merged = merged_recorder(runs)
    if merged.counters:
        rows = [[k, f"{v:g}"] for k, v in sorted(merged.counters.items())]
        sections.append(format_table(["counter", "total"], rows,
                                     title="counter totals"))
    return "\n\n".join(sections)
