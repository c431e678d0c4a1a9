"""InfiniBand resource experiment: the paper's motivation, quantified.

For each evaluated topology, report the LMC / LID budget each path limit
needs, showing where unlimited multi-path routing becomes unrealizable
(the 24-port 3-tree's 144 paths exceed InfiniBand's 128-path cap) and
also the *effective* path diversity nearby pairs retain under each
heuristic's LID realization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ib.lft import compile_lfts, effective_paths
from repro.ib.resources import ResourceReport, resource_report
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.util.tables import format_table


@dataclass(frozen=True)
class ResourcesResult:
    reports: tuple[ResourceReport, ...]
    diversity_rows: tuple[tuple, ...]

    def render(self) -> str:
        budget = format_table(
            ["topology", "K", "LMC", "LIDs/port", "total LIDs", "feasible"],
            [
                (r.topology, r.k_paths, r.lmc, r.lids_per_port, r.total_lids,
                 "yes" if r.feasible else f"NO ({r.limit_reason})")
                for r in self.reports
            ],
            title="LID budget per path limit",
        )
        diversity = format_table(
            ["scheme", "K", "NCA level", "distinct paths via LFT"],
            list(self.diversity_rows),
            title="Effective path diversity for nearby pairs "
                  "(8-port 3-tree, LID realization)",
        )
        return budget + "\n\n" + diversity


def run(*, ks: tuple[int, ...] = (1, 2, 4, 8, 16, 64, 144)) -> ResourcesResult:
    reports = []
    for m, n in ((8, 3), (16, 3), (24, 3)):
        xgft = m_port_n_tree(m, n)
        for k in ks:
            if k <= xgft.max_paths:
                reports.append(resource_report(xgft, k))

    xgft = m_port_n_tree(8, 3)
    # (0, 5) is an NCA-2 pair; (0, 127) is NCA-3 (top level).
    diversity = []
    for spec in ("shift-1", "disjoint"):
        for k in (2, 4, 8):
            tables = compile_lfts(xgft, make_scheme(xgft, f"{spec}:{k}"))
            diversity.append((spec, k, 2, effective_paths(tables, 0, 5)))
            diversity.append((spec, k, 3, effective_paths(tables, 0, 127)))
    return ResourcesResult(tuple(reports), tuple(diversity))
