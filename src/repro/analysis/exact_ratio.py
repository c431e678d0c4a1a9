"""Exact oblivious performance ratios via linear programming.

The oblivious ratio ``PERF(r) = max_TM MLOAD(r, TM) / OLOAD(TM)``
(Section 3.2, after Applegate & Cohen) looks like a search over an
infinite set, but on XGFTs it is exactly computable:

* routing is oblivious, so each directed link's load is *linear* in the
  traffic matrix: ``load_l(TM) = sum_{s,d} tm_{s,d} * phi_l(s,d)`` where
  ``phi_l`` is the fraction of the pair's traffic the scheme puts on
  ``l``;
* ``OLOAD(TM) = ML(TM)`` (Lemma 1 + Theorem 1) is a maximum of *linear*
  subtree-boundary expressions, so ``OLOAD(TM) <= 1`` is a finite set of
  linear constraints.

Hence ``PERF(r) = max_l  LP{ maximize phi_l . tm  :  tm >= 0,
boundary constraints }`` — one small LP per link (scipy's HiGGS solves
each in milliseconds on the topologies where this is tractable).

This turns Theorem 1 into an *exact* statement checked over all traffic
matrices: ``exact_oblivious_ratio(xgft, UMulti(xgft)) == 1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.flow.loads import link_loads
from repro.routing.base import RoutingScheme
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix


@dataclass(frozen=True)
class ExactRatioResult:
    """The exact oblivious ratio with its witnesses.

    ``worst_link`` is a maximizing link id and ``witness`` a traffic
    matrix achieving the ratio (scaled so ``OLOAD = 1``).
    """

    ratio: float
    worst_link: int
    witness: TrafficMatrix


def _pair_fractions(xgft: XGFT, scheme: RoutingScheme) -> tuple[np.ndarray, ...]:
    """phi as a dense (n_pairs, n_links) matrix plus the pair index
    arrays: one batched evaluation of unit traffic on each pair alone,
    one row per pair."""
    n = xgft.n_procs
    pairs_s, pairs_d = np.divmod(np.arange(n * n, dtype=np.int64), n)
    keep = pairs_s != pairs_d
    pairs_s, pairs_d = pairs_s[keep], pairs_d[keep]
    unit = (TrafficMatrix(n, [s], [d]) for s, d in zip(pairs_s, pairs_d))
    return link_loads(xgft, scheme, unit), pairs_s, pairs_d


def _boundary_constraints(
    xgft: XGFT, pairs_s: np.ndarray, pairs_d: np.ndarray
) -> np.ndarray:
    """Rows of A for ``ML(TM) <= 1``: for every subtree, egress and
    ingress volume each at most ``TL(k) = W(k+1)``; normalized so the
    right-hand side is 1."""
    rows = []
    for k in range(xgft.h):
        tl = xgft.W(k + 1)
        for st in range(xgft.n_subtrees(k)):
            in_st_s = (pairs_s // xgft.M(k)) == st
            in_st_d = (pairs_d // xgft.M(k)) == st
            rows.append((in_st_s & ~in_st_d).astype(float) / tl)
            rows.append((in_st_d & ~in_st_s).astype(float) / tl)
    return np.array(rows)


def exact_oblivious_ratio(
    xgft: XGFT,
    scheme: RoutingScheme,
    *,
    max_pairs: int = 2000,
) -> ExactRatioResult:
    """Compute ``PERF(scheme)`` exactly (small topologies).

    Raises :class:`ReproError` when the pair count exceeds ``max_pairs``
    (the LP family would get slow); use the empirical estimators in
    :mod:`repro.analysis.ratio` at scale.
    """
    from scipy.optimize import linprog  # lazy: scipy is test/analysis only

    n = xgft.n_procs
    if n * (n - 1) > max_pairs:
        raise ReproError(
            f"{n * (n - 1)} SD pairs exceed max_pairs={max_pairs}; exact "
            f"ratios are for small topologies"
        )
    phi, pairs_s, pairs_d = _pair_fractions(xgft, scheme)
    a_ub = _boundary_constraints(xgft, pairs_s, pairs_d)
    b_ub = np.ones(len(a_ub))

    best = ExactRatioResult(0.0, -1, TrafficMatrix.empty(n))
    # Symmetry: many links are equivalent; deduplicate identical phi
    # columns to cut the LP count.
    unique_cols: dict[bytes, int] = {}
    for link in range(xgft.n_links):
        key = phi[:, link].tobytes()
        if key not in unique_cols:
            unique_cols[key] = link
    for link in unique_cols.values():
        c = phi[:, link]
        if not c.any():
            continue
        res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None),
                      method="highs")
        if not res.success:  # pragma: no cover - defensive
            raise ReproError(f"LP failed for link {link}: {res.message}")
        value = -res.fun
        if value > best.ratio:
            witness = TrafficMatrix(n, pairs_s, pairs_d, res.x)
            best = ExactRatioResult(float(value), link, witness)
    return best
