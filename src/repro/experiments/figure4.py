"""Figure 4: average maximum link load vs number of paths.

For each panel's topology, sample random permutations under the paper's
adaptive 99 %-CI protocol and report the average maximum link load of
d-mod-k (a flat reference line) and the shift-1 / disjoint / random
heuristics as the per-pair path limit K grows.  Expected shape: every
heuristic decreases gracefully with K and meets the optimum at
``K = max_paths``; on 2-level trees shift-1 == disjoint; on 3-level trees
disjoint < random < shift-1 for most K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import Fidelity, fidelity, heuristic_family, k_grid
from repro.flow.sampling import PermutationStudy
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.util.ascii_chart import AsciiChart
from repro.util.tables import format_table

#: panel name -> (topology, paper's description)
PANELS: dict[str, tuple[XGFT, str]] = {
    "a": (m_port_n_tree(16, 2), "XGFT(2; 8,16; 1,8) = 16-port 2-tree"),
    "b": (m_port_n_tree(16, 3), "XGFT(3; 8,8,16; 1,8,8) = 16-port 3-tree"),
    "c": (m_port_n_tree(24, 2), "XGFT(2; 12,24; 1,12) = 24-port 2-tree"),
    "d": (m_port_n_tree(24, 3), "XGFT(3; 12,12,24; 1,12,12) = 24-port 3-tree"),
}

#: smaller stand-ins with the same structure, used by tests/fast benches
SMALL_PANELS: dict[str, tuple[XGFT, str]] = {
    "a": (m_port_n_tree(8, 2), "XGFT(2; 4,8; 1,4) = 8-port 2-tree"),
    "b": (m_port_n_tree(8, 3), "XGFT(3; 4,4,8; 1,4,4) = 8-port 3-tree"),
}

HEURISTICS = ("shift-1", "disjoint", "random")


@dataclass(frozen=True)
class Figure4Result:
    """One panel's data: per-scheme series of avg max permutation load."""

    panel: str
    topology: str
    ks: tuple[int, ...]
    dmodk: float
    series: dict[str, tuple[float, ...]]
    samples_used: int

    def rows(self) -> list[list]:
        out = []
        for i, k in enumerate(self.ks):
            out.append([k, self.dmodk] + [self.series[h][i] for h in HEURISTICS])
        return out

    def render(self) -> str:
        table = format_table(
            ["K", "d-mod-k", *HEURISTICS], self.rows(),
            title=f"Figure 4({self.panel}): avg max link load, {self.topology}",
        )
        chart = AsciiChart(width=60, height=14)
        chart.add_series("d-mod-k", self.ks, [self.dmodk] * len(self.ks))
        for h in HEURISTICS:
            chart.add_series(h, self.ks, self.series[h])
        return table + "\n\n" + chart.render(
            xlabel="number of paths (K)", ylabel="load"
        )


def run_panel(
    panel: str,
    *,
    fidelity_name: str | Fidelity = "normal",
    topology: XGFT | None = None,
    seed: int = 2012,
    dense_k: bool = False,
    random_seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    engine: str = "reference",
) -> Figure4Result:
    """Regenerate one Figure 4 panel.

    ``topology`` overrides the panel's default (used by tests to run the
    same protocol on small trees); ``random_seeds`` controls how many
    routing seeds the random heuristic is averaged over (paper: five);
    ``engine`` selects the permutation evaluator (``"compiled"`` selects
    each pair's paths once per study, when a round first names it — see
    ``docs/architecture.md``).
    """
    fid = fidelity(fidelity_name)
    if topology is None:
        xgft, description = PANELS[panel]
    else:
        xgft, description = topology, repr(topology)

    study = PermutationStudy(
        xgft,
        initial_samples=fid.initial_samples,
        max_samples=fid.max_samples,
        rel_precision=fid.rel_precision,
        seed=seed,
        engine=engine,
    )
    ks = k_grid(xgft.max_paths, dense=dense_k)

    dmodk_result = study.run(make_scheme(xgft, "d-mod-k"))
    samples = dmodk_result.interval.n_samples
    series: dict[str, list[float]] = {h: [] for h in HEURISTICS}
    for k in ks:
        for h in HEURISTICS:
            schemes = heuristic_family(xgft, h, k, seeds=random_seeds)
            means = []
            for scheme in schemes:
                res = study.run(scheme)
                means.append(res.mean)
                samples += res.interval.n_samples
            series[h].append(float(np.mean(means)))
    return Figure4Result(
        panel=panel,
        topology=description,
        ks=ks,
        dmodk=dmodk_result.mean,
        series={h: tuple(v) for h, v in series.items()},
        samples_used=samples,
    )
