"""Trace-driven flit-level workloads.

A *trace* is an explicit list of timed message injections ``(cycle,
src, dst)``, replayed by :meth:`repro.flit.engine.FlitSimulator.run_trace`.
Traces make flit runs exactly repeatable across schemes (identical
arrivals, only routing differs — removing workload noise from A/B
comparisons).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.flit.workload import Workload


@dataclass(frozen=True)
class TraceEntry:
    """One message injection."""

    cycle: int
    src: int
    dst: int


def synthesize_trace(
    workload: Workload,
    n_procs: int,
    message_flits: int,
    horizon: int,
    *,
    seed: int = 0,
) -> list[TraceEntry]:
    """Pre-draw a stochastic workload into a concrete trace.

    Reproduces the engine's own arrival process (Poisson gaps, the
    workload's destination model) so a recorded trace behaves like the
    live workload — but can then be replayed identically under several
    routing schemes.
    """
    rng = random.Random(seed)
    mean_gap = workload.mean_interarrival(message_flits)
    rate = 1.0 / mean_gap
    entries: list[TraceEntry] = []
    for src in range(n_procs):
        # Float arrival clock, floored once per message — the same
        # unbiased arrival process as the live engine (flooring every
        # gap would understate the requested injection rate).
        clock = rng.expovariate(rate)
        t = int(clock) + 1
        while t < horizon:
            dst = workload.pick_destination(src, n_procs, rng)
            if dst >= 0:
                entries.append(TraceEntry(t, src, dst))
            clock += rng.expovariate(rate)
            t = int(clock) + 1
    entries.sort(key=lambda e: (e.cycle, e.src))
    return entries
