"""Table 1: maximum throughput under uniform traffic (flit level).

On the 8-port 3-tree (``XGFT(3; 4,4,8; 1,4,4)``), sweep the offered load
per scheme and report the maximum aggregate throughput achieved, for
``K in {1, 2, 4, 8}``.  Surviving paper numbers at K=8: shift-1 67.65 %,
random 69.75 %, disjoint 70.35 %; expected shape: throughput rises with
K for every heuristic, disjoint leads, random(1) trails d-mod-k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import Fidelity, fidelity
from repro.flit.config import FlitConfig
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.util.tables import format_table

K_VALUES = (1, 2, 4, 8)
HEURISTICS = ("shift-1", "random", "disjoint")
DEFAULT_LOADS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class Table1Result:
    """Max throughput (fraction of capacity) per scheme and K."""

    topology: str
    ks: tuple[int, ...]
    dmodk: float
    cells: dict[str, tuple[float, ...]]  # heuristic -> per-K max throughput

    def rows(self) -> list[list]:
        return [
            [k, self.dmodk] + [self.cells[h][i] for h in HEURISTICS]
            for i, k in enumerate(self.ks)
        ]

    def render(self) -> str:
        return format_table(
            ["Num-Path", "d-mod-k", *HEURISTICS], self.rows(),
            title=f"Table 1: max throughput, uniform traffic, {self.topology}",
            floatfmt=".4f",
        )


def run(
    *,
    fidelity_name: str | Fidelity = "normal",
    topology: XGFT | None = None,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    config: FlitConfig | None = None,
    ks: tuple[int, ...] = K_VALUES,
    random_seeds: tuple[int, ...] = (0, 1),
    seed: int | None = None,
    n_jobs: int = 1,
    cache=None,
    engine: str = "batched",
) -> Table1Result:
    """Regenerate Table 1.

    The random heuristic is averaged over ``random_seeds`` routing seeds
    (the paper uses five; two keep the default run affordable — pass more
    for the full protocol).  ``seed`` overrides the workload RNG seed
    (ignored when an explicit ``config`` already carries one).
    All (scheme x K x load x repeat) cells form one
    :func:`~repro.runner.sweep.run_sweeps` grid: ``n_jobs > 1`` fans it
    out over one process pool and ``cache`` (a
    :class:`~repro.runner.cache.ResultCache`) replays completed points
    from disk; the table is bit-identical either way.  ``engine``
    selects the flit backend: the native ``batched`` kernel by default
    (it runs the reference engine when the kernel cannot run), or the
    bit-identical ``reference`` oracle.
    """
    from repro.runner import sweep

    fid = fidelity(fidelity_name)
    xgft = topology if topology is not None else m_port_n_tree(8, 3)
    cfg = config if config is not None else FlitConfig(
        warmup_cycles=fid.warmup_cycles,
        measure_cycles=fid.measure_cycles,
        drain_cycles=fid.drain_cycles,
        seed=seed if seed is not None else 0,
    )

    def seeds(h: str) -> tuple[int, ...]:
        return random_seeds if h == "random" else (0,)

    def key(h: str, k: int, s: int) -> str:
        # random(K)'s label repeats across routing seeds; its key must not
        return f"{h}:{k}@{s}" if h == "random" else f"{h}:{k}"

    schemes = {"d-mod-k": make_scheme(xgft, "d-mod-k")}
    for k in ks:
        for h in HEURISTICS:
            for s in seeds(h):
                schemes[key(h, k, s)] = make_scheme(xgft, f"{h}:{k}", seed=s)
    sweeps = sweep.run_sweeps(
        xgft, schemes, cfg, loads=loads, repeats=fid.flit_repeats,
        engine=engine, n_jobs=n_jobs, cache=cache)
    return Table1Result(
        topology=repr(xgft),
        ks=ks,
        dmodk=sweeps["d-mod-k"].max_throughput,
        cells={h: tuple(float(np.mean([sweeps[key(h, k, s)].max_throughput
                                       for s in seeds(h)]))
                        for k in ks)
               for h in HEURISTICS},
    )
