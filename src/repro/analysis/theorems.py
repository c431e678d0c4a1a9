"""Executable validators for the paper's analytical results.

Each check runs the actual simulators against the statement of a lemma or
theorem and reports the measured quantities; tests assert the reports, and
``python -m repro theorems`` regenerates them for EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flow.loads import link_loads
from repro.flow.metrics import max_link_load, ml_lower_bound
from repro.routing.base import RoutingScheme
from repro.routing.heuristics import UMulti
from repro.routing.modk import DModK
from repro.topology.xgft import XGFT
from repro.traffic.adversarial import theorem2_bound, theorem2_pattern
from repro.traffic.matrix import TrafficMatrix


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one theorem validation run."""

    name: str
    holds: bool
    measured: float
    bound: float
    detail: str

    def __str__(self) -> str:
        status = "OK " if self.holds else "FAIL"
        return f"[{status}] {self.name}: measured={self.measured:.6g} " \
               f"bound={self.bound:.6g} ({self.detail})"


def check_lemma1(xgft: XGFT, scheme: RoutingScheme, tm: TrafficMatrix) -> TheoremReport:
    """Lemma 1: no routing can beat ``ML(TM)`` — verify
    ``MLOAD(scheme, TM) >= ML(TM)`` (up to float tolerance)."""
    mload = max_link_load(link_loads(xgft, scheme, tm))
    bound = ml_lower_bound(xgft, tm)
    holds = mload >= bound - 1e-9
    return TheoremReport(
        "Lemma 1 (ML lower bound)", holds, mload, bound,
        f"scheme={scheme.label}",
    )


def check_theorem1(xgft: XGFT, tm: TrafficMatrix) -> TheoremReport:
    """Theorem 1: UMULTI achieves the lower bound exactly —
    ``MLOAD(UMULTI, TM) == ML(TM)`` for every traffic matrix."""
    mload = max_link_load(link_loads(xgft, UMulti(xgft), tm))
    bound = ml_lower_bound(xgft, tm)
    holds = abs(mload - bound) <= 1e-9 * max(1.0, bound)
    return TheoremReport(
        "Theorem 1 (UMULTI optimal)", holds, mload, bound, f"tm={tm!r}",
    )


def check_theorem2(xgft: XGFT) -> TheoremReport:
    """Theorem 2: on the adversarial pattern, d-mod-k's performance ratio
    reaches the predicted ``M(h-1) / max(1, M(h-1)/W(h))`` factor."""
    tm = theorem2_pattern(xgft)
    mload = max_link_load(link_loads(xgft, DModK(xgft), tm))
    opt = ml_lower_bound(xgft, tm)
    ratio = mload / opt if opt else float("inf")
    bound = theorem2_bound(xgft)
    holds = ratio >= bound - 1e-9
    return TheoremReport(
        "Theorem 2 (d-mod-k pathology)", holds, ratio, bound,
        f"MLOAD={mload:g} OLOAD={opt:g} on {xgft!r}",
    )
