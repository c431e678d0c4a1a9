"""Exact oblivious-ratio experiment (LP; small topologies).

Computes ``PERF(scheme)`` exactly for the single-path baselines and the
limited multi-path heuristics across K, exhibiting the ``w_2 / K`` law
on 2-level trees and Theorem 1 as an equality.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.exact_ratio import exact_oblivious_ratio
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.util.tables import format_table


@dataclass(frozen=True)
class ExactRatiosResult:
    topology: str
    rows: tuple[tuple[str, float], ...]

    def by_label(self) -> dict[str, float]:
        return {label: ratio for label, ratio in self.rows}

    def render(self) -> str:
        return format_table(
            ["scheme", "exact PERF"], list(self.rows),
            title=f"Exact oblivious performance ratios (LP), {self.topology}",
            floatfmt=".4f",
        )


def run(
    *,
    topology: XGFT | None = None,
    ks: tuple[int, ...] = (2, 3, 4),
) -> ExactRatiosResult:
    """Tabulate exact ratios on one (small) topology."""
    xgft = topology if topology is not None else m_port_n_tree(8, 2)
    specs = ["d-mod-k", "s-mod-k"]
    for k in ks:
        if k <= xgft.max_paths:
            specs += [f"shift-1:{k}", f"disjoint:{k}"]
    specs.append("umulti")
    rows = []
    for spec in specs:
        scheme = make_scheme(xgft, spec)
        rows.append((scheme.label, exact_oblivious_ratio(xgft, scheme).ratio))
    return ExactRatiosResult(repr(xgft), tuple(rows))
