"""Human-readable rendering of recorder state (the ``--profile`` view).

Counters and timers become tables (:mod:`repro.util.tables`), each
flow-level study becomes one convergence row (a sparkline of its CI
half-width per round, then its rounds, samples, mean and wall time), and
per-interval flit series become unicode sparklines of at most 60
characters, each the peak of whole runs when several ran.
"""

from __future__ import annotations

from repro.util.tables import format_table

_SPARK_BARS = "▁▂▃▄▅▆▇█"

#: the most characters a flit sparkline takes (see :func:`_peaks`)
_FLIT_WIDTH = 60


def sparkline(values) -> str:
    """One-line bar chart of a numeric sequence.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▆█'
    >>> sparkline([])
    ''
    """
    vals = [float(v) for v in values if v == v]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span == 0.0:
        return _SPARK_BARS[0] * len(vals)
    top = len(_SPARK_BARS) - 1
    return "".join(
        _SPARK_BARS[round((v - lo) / span * top)] for v in vals
    )


def _timer_rows(recorder) -> list[list]:
    rows = []
    for name, (total, calls) in sorted(
        recorder.timers.items(), key=lambda kv: -kv[1][0]
    ):
        rows.append([name, calls, f"{total:.4f}", f"{total / calls * 1e3:.3f}"])
    return rows


def _runner_section(recorder) -> str:
    """Derived view of the ``runner.*`` counters: cache effectiveness
    and the pool's worker and task counts, instead of raw numbers
    scattered through the counter table."""
    c = recorder.counters
    if not any(k.startswith("runner.") for k in c):
        return ""
    lines = ["runner (pool + cache):"]
    probes = c.get("runner.cache_hit", 0) + c.get("runner.cache_miss", 0)
    if probes:
        hit = c.get("runner.cache_hit", 0)
        lines.append(
            f"  cache probes={probes:g} hits={hit:g} "
            f"misses={c.get('runner.cache_miss', 0):g} "
            f"stores={c.get('runner.cache_store', 0):g} "
            f"(hit rate {hit / probes:.1%})")
    dropped = (c.get("runner.cache_invalidated", 0)
               + c.get("runner.cache_corrupt", 0))
    if dropped:
        lines.append(
            f"  cache entries dropped at load: "
            f"{c.get('runner.cache_invalidated', 0):g} stale, "
            f"{c.get('runner.cache_corrupt', 0):g} corrupt")
    total = c.get("runner.points_total", 0)
    if total:
        computed = c.get("runner.points_computed", 0)
        lines.append(
            f"  grid points total={total:g} computed={computed:g} "
            f"replayed={total - computed:g}")
    if "runner.pool_workers" in c:
        lines.append(
            f"  pool workers={c['runner.pool_workers']:g} "
            f"tasks={c.get('runner.pool_tasks', 0):g}")
    return "\n".join(lines) if len(lines) > 1 else ""


def _faults_section(recorder) -> str:
    """Summary of the ``faults.*`` counters (fault-injection volume)."""
    c = recorder.counters
    fabrics = c.get("faults.fabrics_sampled", 0)
    if not fabrics:
        return ""
    return (
        f"faults: {fabrics:g} degraded fabric(s) sampled "
        f"({c.get('faults.cables_failed', 0):g} cable(s), "
        f"{c.get('faults.switches_failed', 0):g} switch(es) failed)"
    )


def _convergence_section(recorder) -> str:
    """One row per study.  A study's rounds are consecutive
    ``convergence_round`` events, the first with ``round == 0``."""
    studies: list[list[dict]] = []
    for ev in recorder.events_of("convergence_round"):
        if not studies or ev.get("round") == 0:
            studies.append([])
        studies[-1].append(ev)
    rows = []
    for evs in studies:
        first, final = evs[0], evs[-1]
        label = str(first.get("scheme", "?"))
        if first.get("seed") is not None:
            label += f" seed={first['seed']}"
        widths = [e.get("rel_half_width", float("nan")) for e in evs]
        rows.append((label, (
            f"{sparkline(widths):<10s} rounds={len(evs)} "
            f"samples={final.get('n_samples')} mean={final.get('mean'):.4f} "
            f"wall={final.get('elapsed_s'):.4f}s")))
    if not rows:
        return ""
    width = max(len(label) for label, _ in rows)
    return "\n".join(
        ["convergence (one row per study; CI half-width per round, "
         "first -> last):"]
        + [f"  {label:<{width}s} {rest}" for label, rest in rows])


def _peaks(values: list, width: int = _FLIT_WIDTH) -> list:
    """At most ``width`` values: the maximum of each of ``width``
    consecutive bins of near-equal size (a shorter series unchanged).

    >>> _peaks([1, 5, 2, 2, 7, 0], width=3)
    [5, 2, 7]
    """
    n = len(values)
    if n <= width:
        return values
    return [max(values[i * n // width:(i + 1) * n // width])
            for i in range(width)]


def _run_starts(intervals: list) -> list[int]:
    """Index of each run's first ``flit_interval`` event.  A run's marks
    rise from its first ``obs_interval``, so a run starts wherever ``t``
    does not exceed the previous event's.

    >>> _run_starts([{"t": 50}, {"t": 100}, {"t": 50}, {"t": 50}])
    [0, 2, 3]
    """
    ts = [e.get("t", 0) for e in intervals]
    return [0] + [i for i in range(1, len(ts)) if ts[i] <= ts[i - 1]]


def _flit_section(recorder) -> str:
    """Per-interval flit series, each drawn in at most ``_FLIT_WIDTH``
    characters; ``max=`` and ``total=`` read the full series.  Over
    several runs each character is the peak of whole runs, so no
    character straddles the end of one run and the start of the next."""
    intervals = recorder.events_of("flit_interval")
    if not intervals:
        return ""
    starts = _run_starts(intervals)
    bounds = list(zip(starts, starts[1:] + [len(intervals)]))
    delivered = [e.get("delivered", 0) for e in intervals]
    injected = [e.get("injected", 0) for e in intervals]
    stalls = [e.get("credit_stalls", 0) for e in intervals]
    occupancy = [e.get("occupancy", 0) for e in intervals]

    def spark(values):
        if len(bounds) > 1:
            values = [max(values[a:b]) for a, b in bounds]
        return sparkline(_peaks(values))

    runs = (f", {len(bounds)} runs, each character the peak of whole runs"
            if len(bounds) > 1 else "")
    return "\n".join([
        f"flit engine ({len(intervals)} interval(s){runs}):",
        f"  injected/interval  {spark(injected)}  max={max(injected)}",
        f"  delivered/interval {spark(delivered)}  max={max(delivered)}",
        f"  credit stalls      {spark(stalls)}  total={sum(stalls)}",
        f"  buffer occupancy   {spark(occupancy)}  max={max(occupancy)}",
    ])


def render_report(recorder, *, title: str = "run telemetry") -> str:
    """Render every populated recorder dimension as one text report."""
    sections = [title]
    if recorder.timers:
        sections.append(format_table(
            ["timer", "calls", "total s", "mean ms"], _timer_rows(recorder),
            title="timers",
        ))
    if recorder.counters:
        rows = [[k, f"{v:g}"] for k, v in sorted(recorder.counters.items())]
        sections.append(format_table(["counter", "value"], rows,
                                     title="counters"))
    for section in (_runner_section(recorder), _faults_section(recorder),
                    _convergence_section(recorder), _flit_section(recorder)):
        if section:
            sections.append(section)
    if len(sections) == 1:
        sections.append("(recorder is empty)")
    return "\n\n".join(sections)
