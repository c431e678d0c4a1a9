"""Oblivious performance-ratio landscape (Section 4.1, quantified).

The paper proves ``PERF(UMULTI) = 1`` and exhibits topologies where
``PERF(d-mod-k) >= prod(w)``; prior work [Yuan et al., ToN'09] showed
single-path routing is far from optimal on m-port n-trees.  This
experiment measures empirical *lower bounds* on each scheme's oblivious
ratio — via the adversarial permutation, the structured patterns and
random permutation search — showing how the limited multi-path
heuristics shrink the worst case as K grows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.ratio import empirical_oblivious_ratio
from repro.errors import TrafficError
from repro.flow.metrics import performance_ratio
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.traffic.adversarial import adversarial_permutation
from repro.traffic.permutations import permutation_matrix
from repro.util.tables import format_table

SCHEME_SPECS = ("d-mod-k", "shift-1:{k}", "random:{k}", "disjoint:{k}", "umulti")


@dataclass(frozen=True)
class RatiosResult:
    topology: str
    rows: tuple[tuple, ...]  # (scheme label, ratio lower bound, witness)

    def render(self) -> str:
        return format_table(
            ["scheme", "PERF lower bound", "witness"], list(self.rows),
            title=f"Empirical oblivious-ratio lower bounds, {self.topology}",
            floatfmt=".3f",
        )


def run(
    *,
    topology: XGFT | None = None,
    ks: tuple[int, ...] = (2, 4),
    permutation_samples: int = 60,
    seed: int = 11,
    engine: str = "reference",
) -> RatiosResult:
    """Tabulate ratio lower bounds per scheme on one topology."""
    xgft = topology if topology is not None else m_port_n_tree(8, 2)
    try:
        adv = permutation_matrix(adversarial_permutation(xgft))
    except TrafficError:
        adv = None

    specs: list[str] = ["d-mod-k"]
    for k in ks:
        specs += [f"shift-1:{k}", f"random:{k}", f"disjoint:{k}"]
    specs.append("umulti")

    rows = []
    for spec in specs:
        scheme = make_scheme(xgft, spec, seed=seed)
        est = empirical_oblivious_ratio(
            xgft, scheme, permutation_samples=permutation_samples, seed=seed,
            engine=engine,
        )
        best, witness = est.ratio, est.witness
        if adv is not None:
            adv_ratio = performance_ratio(xgft, scheme, adv)
            if adv_ratio > best:
                best, witness = adv_ratio, "adversarial permutation"
        rows.append((scheme.label, best, witness))
    return RatiosResult(repr(xgft), tuple(rows))
