"""Analytical-results experiment: run every theorem validator.

Regenerates executable evidence for Section 4.1's claims: Lemma 1's
lower bound, Theorem 1 (UMULTI is optimal for arbitrary traffic) and
Theorem 2 (d-mod-k degrades by the ``prod(w)`` factor on the adversarial
pattern).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.theorems import (
    TheoremReport,
    check_lemma1,
    check_theorem1,
    check_theorem2,
)
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.traffic.adversarial import suggest_theorem2_topology
from repro.traffic.permutations import permutation_matrix, random_permutation
from repro.traffic.synthetic import all_to_all, shift_pattern


@dataclass(frozen=True)
class TheoremsResult:
    reports: tuple[TheoremReport, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.reports)

    def render(self) -> str:
        lines = ["Analytical results validation"]
        lines += [str(r) for r in self.reports]
        lines.append("ALL HOLD" if self.all_hold else "SOME FAILED")
        return "\n".join(lines)


def run(*, seed: int = 7, samples: int = 5) -> TheoremsResult:
    """Validate the paper's lemma and theorems on several topologies and
    traffic matrices."""
    reports: list[TheoremReport] = []
    topologies = [m_port_n_tree(8, 2), m_port_n_tree(8, 3)]
    for xgft in topologies:
        traffics = [all_to_all(xgft.n_procs), shift_pattern(xgft.n_procs, 1)]
        for i in range(samples):
            perm = random_permutation(xgft.n_procs, seed + i)
            traffics.append(permutation_matrix(perm))
        for tm in traffics:
            reports.append(check_theorem1(xgft, tm))
            for spec in ("d-mod-k", "disjoint:2"):
                reports.append(check_lemma1(xgft, make_scheme(xgft, spec), tm))
    for h, w in ((2, 4), (3, 2), (3, 3)):
        reports.append(check_theorem2(suggest_theorem2_topology(h, w)))
    return TheoremsResult(tuple(reports))
