"""Flow-level routing metrics (Section 3.2 of the paper).

* ``MLOAD(r, TM)`` — maximum directed-link load under routing ``r``.
* ``ML(TM)`` — Lemma 1's lower bound on any routing's maximum load:
  for every sub-XGFT ``st_k``, the traffic crossing its boundary must
  share its ``TL(k) = W(k+1)`` one-directional links.
* ``OLOAD(TM)`` — the optimal load.  By Theorem 1, UMULTI achieves
  ``ML(TM)`` exactly (every link is a boundary link of exactly one
  subtree and UMULTI spreads boundary traffic evenly), so
  ``OLOAD(TM) == ML(TM)`` on XGFTs and we compute it in closed form.
* ``PERF(r, TM) = MLOAD / OLOAD >= 1`` — the performance ratio.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import RoutingScheme
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix


def max_link_load(loads: np.ndarray) -> float:
    """``MLOAD``: the largest entry of a 1-D link-load vector (0 if empty)."""
    if np.ndim(loads) != 1:
        raise ValueError(f"expected 1-D link loads, got shape {np.shape(loads)}")
    return float(loads.max()) if len(loads) else 0.0


def ml_lower_bound(xgft: XGFT, tm: TrafficMatrix) -> float:
    """Lemma 1's bound ``ML(TM) = max_k max_{st_k} MT(TM, st_k) / W(k+1)``.

    ``MT`` is the larger of the subtree's egress and ingress volume.
    Height-0 subtrees are single processing nodes, so the bound includes
    the terminal-link constraint ``max(row, col) / w_1``.
    """
    s, d, amount = tm.network_pairs()
    if len(s) == 0:
        return 0.0
    best = 0.0
    for k in range(xgft.h):  # subtree heights 0 .. h-1
        mk = xgft.M(k)
        n_subtrees = xgft.n_subtrees(k)
        ss = s // mk
        dd = d // mk
        cross = ss != dd
        if not cross.any():
            continue
        out = np.bincount(ss[cross], weights=amount[cross], minlength=n_subtrees)
        inn = np.bincount(dd[cross], weights=amount[cross], minlength=n_subtrees)
        mt = max(out.max(), inn.max())
        best = max(best, mt / xgft.W(k + 1))
    return float(best)


def optimal_load(xgft: XGFT, tm: TrafficMatrix) -> float:
    """``OLOAD(TM)``: the minimum achievable maximum link load.

    Exactly ``ML(TM)`` on XGFTs (Lemma 1 gives >=, Theorem 1's UMULTI
    achieves it).
    """
    return ml_lower_bound(xgft, tm)


def permutation_optimal_load(xgft: XGFT) -> float:
    """``OLOAD`` of unit-traffic permutation traffic, computed once.

    For a (non-identity) permutation every node sends and receives at
    most one unit, so the height-``k`` term of Lemma 1 is at most
    ``M(k) / W(k+1)`` and the terminal term is exactly ``1 / w_1``.  The
    witness realizing every bound simultaneously is the cyclic shift by
    ``M(h-1)``: it moves each node's top digit, so every subtree at
    every height ``k < h`` exports all of its ``M(k)`` units.  On the
    paper's topologies (``M(k) <= W(k+1) / w_1``, e.g. every m-port
    n-tree) the terminal term dominates and *every* non-identity
    permutation attains the same OLOAD — which is why permutation
    studies hoist this value out of the per-sample loop.

    >>> from repro.topology import m_port_n_tree
    >>> permutation_optimal_load(m_port_n_tree(8, 3))
    1.0
    """
    from repro.traffic.synthetic import shift_pattern  # local: avoid cycle

    if xgft.h == 0 or xgft.n_procs < 2:
        return 0.0
    stride = xgft.M(xgft.h - 1)
    return optimal_load(xgft, shift_pattern(xgft.n_procs, stride))


def load_imbalance(loads: np.ndarray) -> float:
    """Coefficient of variation of the *used* links' loads.

    0 means perfectly even use of every loaded link; large values mean a
    few links carry most of the traffic.  Complements MLOAD: two
    routings with equal maximum load can still differ in how evenly the
    rest of the network is used (the disjoint-vs-shift-1 story below the
    maximum).
    """
    used = loads[loads > 0]
    if len(used) == 0:
        return 0.0
    mean = used.mean()
    return float(used.std() / mean) if mean > 0 else 0.0


def gini_coefficient(loads: np.ndarray) -> float:
    """Gini coefficient of the link-load distribution (all links).

    0 = perfectly equal loads, ->1 = all traffic on one link.  Uses the
    standard mean-absolute-difference form, computed via the sorted
    cumulative sum.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if len(loads) == 0 or loads.sum() == 0:
        return 0.0
    sorted_loads = np.sort(loads)
    n = len(sorted_loads)
    cum = np.cumsum(sorted_loads)
    # G = (n + 1 - 2 * sum(cum) / cum[-1]) / n
    return float((n + 1 - 2 * cum.sum() / cum[-1]) / n)


def performance_ratio(
    xgft: XGFT,
    scheme: RoutingScheme,
    tm: TrafficMatrix,
    *,
    loads: np.ndarray | None = None,
) -> float:
    """``PERF(r, TM) = MLOAD(r, TM) / OLOAD(TM)``.

    Returns 1.0 for an empty traffic matrix (any routing is trivially
    optimal).  Pass precomputed ``loads`` to avoid re-routing.
    """
    from repro.flow.loads import link_loads  # local import: avoid cycle

    if loads is None:
        loads = link_loads(xgft, scheme, tm)
    opt = optimal_load(xgft, tm)
    if opt == 0.0:
        return 1.0
    return max_link_load(loads) / opt
