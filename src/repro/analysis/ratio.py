"""Empirical oblivious-ratio estimation.

The oblivious performance ratio ``PERF(r)`` maximizes ``PERF(r, TM)``
over *all* traffic matrices — not computable exactly in general, but a
useful lower bound comes from searching a family of hard instances:
random permutations, the structured patterns, and the Theorem 2
construction when feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrafficError
from repro.flow.metrics import optimal_load, performance_ratio
from repro.flow.simulator import FlowSimulator
from repro.routing.base import RoutingScheme
from repro.topology.xgft import XGFT
from repro.traffic.adversarial import theorem2_pattern
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.permutations import permutation_matrix, random_permutation
from repro.traffic.synthetic import bit_complement, shift_pattern
from repro.util.rng import as_generator


@dataclass(frozen=True)
class RatioEstimate:
    """A lower bound on the oblivious performance ratio and its witness."""

    ratio: float
    witness: str


def worst_case_permutation(
    xgft: XGFT,
    scheme: RoutingScheme,
    *,
    samples: int = 200,
    seed=None,
    engine: str = "reference",
) -> tuple[float, np.ndarray]:
    """The worst performance ratio among ``samples`` random permutations;
    returns ``(ratio, permutation)``.

    Both engines draw the identical permutation stream for a fixed
    ``seed`` and evaluate all MLOADs in one batched call.
    """
    rng = as_generator(seed)
    n = xgft.n_procs
    sim = FlowSimulator(xgft, engine=engine)
    perms = [random_permutation(n, rng) for _ in range(samples)]
    if not perms:
        return 0.0, np.arange(n)
    mloads = sim.permutation_mloads(scheme, np.stack(perms))
    ratios = np.empty(len(perms))
    for i, perm in enumerate(perms):
        opt = optimal_load(xgft, permutation_matrix(perm))
        ratios[i] = mloads[i] / opt if opt > 0 else 1.0
    best = int(np.argmax(ratios))
    return float(ratios[best]), perms[best]


def empirical_oblivious_ratio(
    xgft: XGFT,
    scheme: RoutingScheme,
    *,
    permutation_samples: int = 100,
    seed=None,
    engine: str = "reference",
) -> RatioEstimate:
    """Search hard traffic instances for the largest performance ratio.

    This is a *lower bound* on ``PERF(scheme)``; for UMULTI it returns
    1.0 exactly (Theorem 1).  ``engine`` selects the evaluator for the
    random-permutation sweep (the handful of structured candidates stay
    on the closed-form path either way).
    """
    candidates: list[tuple[str, TrafficMatrix]] = []
    n = xgft.n_procs
    for stride in {1, xgft.M(max(xgft.h - 1, 1)), n // 2 or 1}:
        candidates.append((f"shift({stride})", shift_pattern(n, stride)))
    if n & (n - 1) == 0 and n > 1:
        candidates.append(("bit_complement", bit_complement(n)))
    try:
        candidates.append(("theorem2", theorem2_pattern(xgft)))
    except TrafficError:
        pass  # construction infeasible on this topology

    best = RatioEstimate(1.0, "identity")
    for name, tm in candidates:
        ratio = performance_ratio(xgft, scheme, tm)
        if ratio > best.ratio:
            best = RatioEstimate(ratio, name)

    perm_ratio, _ = worst_case_permutation(
        xgft, scheme, samples=permutation_samples, seed=seed, engine=engine
    )
    if perm_ratio > best.ratio:
        best = RatioEstimate(perm_ratio, "random permutation")
    return best
