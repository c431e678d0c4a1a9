"""Churn sweep: MLOAD trajectory under streaming fail/repair events.

The fault sweep studies *static* damage at sampled failure rates; this
experiment studies the *dynamic* axis: generate a seeded fail/repair
event stream (:func:`repro.faults.churn.generate_trace`), apply it one
event at a time to an :class:`~repro.faults.churn.IncrementalDegradedScheme`
per curve, and after every event measure the average maximum permutation
load over a fixed set of seeded permutations.  The output is a
trajectory — MLOAD vs event step — plus the incremental re-routing
costs: links flipped, pairs recomputed (identical across curves, since
the candidate pairs of a link are scheme-independent) and per-curve
re-route latency.

The same fixed permutation set is evaluated at every step, so the
trajectory isolates the fabric's evolution from traffic noise: a point
moves only because the event moved it.

Caching
-------
Replay is cheap (only touched pairs are re-selected); the expensive part
is the per-step MLOAD evaluation.  With a cache
(:class:`~repro.runner.cache.ResultCache`), each (curve, step) MLOAD is
stored under a content hash of everything that determines it — topology,
scheme spec, traffic seed, sample count and the *cumulative fault set*
after the event — so re-running the same trace replays every completed
step and an extended trace (more events, same seed) replays its shared
prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Fidelity, fidelity
from repro.faults.churn import (
    ChurnSpec,
    IncrementalDegradedScheme,
    generate_trace,
)
from repro.flow.loads import link_loads
from repro.obs.recorder import get_recorder
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.traffic.permutations import permutation_matrix, random_permutation
from repro.util.ascii_chart import AsciiChart
from repro.util.rng import as_generator
from repro.util.tables import format_table

#: the sweep's curve specs: the single-path baseline, limited multi-path
#: at K = 4, and the full fan-out upper bound
CURVES = (
    "d-mod-k",
    "disjoint:4",
    "random:4",
    "umulti",
)

#: default event-stream length per fidelity preset
EVENTS_BY_FIDELITY = {"fast": 4, "normal": 16, "full": 32}


@dataclass(frozen=True)
class ChurnPoint:
    """One trajectory point: the fabric state after one event.

    Step 0 is the pristine baseline (no event); ``pairs_recomputed`` and
    ``links_changed`` are 0 there.  ``reroute_ms`` is wall time and so
    excluded from golden comparisons; everything else is deterministic
    for a fixed ``(topology, curves, seed, churn_seed, fidelity)``.
    """

    step: int
    event: str              # event label, "" for the baseline
    fabric: str             # fabric tag after the event
    links_changed: int
    pairs_recomputed: int   # identical across curves (scheme-independent)
    reroute_ms: dict[str, float]
    mloads: dict[str, float]


@dataclass(frozen=True)
class ChurnSweepResult:
    """Per-scheme MLOAD trajectory under one churn trace."""

    topology: str
    curves: tuple[str, ...]
    trace: str              # ChurnTrace.describe() of the replayed stream
    points: tuple[ChurnPoint, ...]
    pairs_total: int        # full-recompile workload per event
    samples_used: int       # permutation evaluations not served from cache

    def rows(self) -> list[list]:
        return [
            [p.step, p.event or "(pristine)", p.fabric, p.links_changed,
             p.pairs_recomputed] + [p.mloads[c] for c in self.curves]
            for p in self.points
        ]

    def render(self) -> str:
        table = format_table(
            ["step", "event", "fabric", "links", "pairs", *self.curves],
            self.rows(),
            title=f"Churn sweep: avg max permutation load per event, "
                  f"{self.topology}",
        )
        chart = AsciiChart(width=60, height=14)
        for c in self.curves:
            chart.add_series(
                c, [p.step for p in self.points],
                [p.mloads[c] for p in self.points],
            )
        return table + "\n\n" + chart.render(
            xlabel="event step", ylabel="load"
        )


def run(
    *,
    fidelity_name: str | Fidelity = "normal",
    topology: XGFT | None = None,
    curves: tuple[str, ...] = CURVES,
    n_events: int | None = None,
    churn_seed: int = 0,
    seed: int = 2012,
    cache=None,
) -> ChurnSweepResult:
    """Run the churn sweep.

    ``n_events`` defaults to the fidelity preset
    (:data:`EVENTS_BY_FIDELITY`); ``churn_seed`` seeds the event stream
    independently of the traffic ``seed``.  ``cache`` replays
    completed per-step MLOAD evaluations (see the module docstring).
    """
    fid = fidelity(fidelity_name)
    xgft = topology if topology is not None else m_port_n_tree(8, 3)
    rec = get_recorder()
    if n_events is None:
        n_events = EVENTS_BY_FIDELITY.get(fid.name, 16)

    trace = generate_trace(xgft, ChurnSpec(n_events=n_events,
                                           seed=churn_seed))
    rng = as_generator(seed)
    matrices = [
        permutation_matrix(random_permutation(xgft.n_procs, rng))
        for _ in range(fid.initial_samples)
    ]
    schemes = {
        c: IncrementalDegradedScheme(make_scheme(xgft, c)) for c in curves
    }
    pairs_total = next(iter(schemes.values())).n_pairs
    samples_used = 0

    def mload(spec_name: str, scheme, step: int) -> float:
        nonlocal samples_used
        key = None
        if cache is not None:
            from repro.runner.cache import cache_key

            key = cache_key({
                "experiment": "churn-sweep",
                "topology": repr(xgft),
                "scheme": spec_name,
                "traffic_seed": seed,
                "n_samples": len(matrices),
                "step": step,
                "cables": list(scheme.fabric.failed_cables),
                "switches": list(scheme.fabric.failed_switches),
            })
            record = cache.get_record(key)
            if record is not None:
                return float(record["mload"])
        loads = link_loads(xgft, scheme, matrices).max(axis=1).tolist()
        samples_used += len(loads)
        value = float(sum(loads) / len(loads))
        if cache is not None:
            cache.put_record(key, {"mload": value})
        return value

    def point(step: int, event_label: str, links: int, pairs: int,
              reroute_ms: dict[str, float]) -> ChurnPoint:
        fabric = next(iter(schemes.values())).fabric
        mloads = {c: mload(c, s, step) for c, s in schemes.items()}
        if rec.enabled:
            rec.event(
                "churn_sweep_point",
                topology=repr(xgft),
                step=step,
                churn_event=event_label,
                fabric=fabric.tag,
                pairs_recomputed=pairs,
                mloads={k: round(v, 9) for k, v in mloads.items()},
            )
        return ChurnPoint(step, event_label, fabric.tag, links, pairs,
                          reroute_ms, mloads)

    points = [point(0, "", 0, 0, {c: 0.0 for c in curves})]
    for i, event in enumerate(trace, start=1):
        stats = {c: s.apply_event(event) for c, s in schemes.items()}
        first = stats[curves[0]]
        points.append(point(
            i, event.label, first.links_changed, first.pairs_recomputed,
            {c: st.seconds * 1e3 for c, st in stats.items()},
        ))

    return ChurnSweepResult(
        topology=repr(xgft),
        curves=tuple(curves),
        trace=trace.describe(),
        points=tuple(points),
        pairs_total=pairs_total,
        samples_used=samples_used,
    )
