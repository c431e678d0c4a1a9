"""Classic synthetic traffic patterns.

These patterns are standard in the interconnection-network literature
(Dally & Towles; the paper's references use shift all-to-all [Zahavi] and
uniform traffic).  They exercise the routing heuristics under structured
(non-random) load and drive the traffic-pattern ablation
(:mod:`repro.experiments.ablations`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrafficError
from repro.traffic.matrix import TrafficMatrix


def _require_positive(n_procs: int) -> None:
    if n_procs < 1:
        raise TrafficError(f"n_procs must be >= 1, got {n_procs}")


def all_to_all(n_procs: int, *, total_per_node: float = 1.0) -> TrafficMatrix:
    """Every node sends equally to every other node; each source emits
    ``total_per_node`` units in total."""
    _require_positive(n_procs)
    if n_procs == 1:
        return TrafficMatrix.empty(1)
    s, d = np.nonzero(~np.eye(n_procs, dtype=bool))
    amount = total_per_node / (n_procs - 1)
    return TrafficMatrix(n_procs, s, d, np.full(len(s), amount))


def uniform_expected(n_procs: int, *, load: float = 1.0) -> TrafficMatrix:
    """Expected traffic matrix of uniform random traffic at offered load
    ``load`` (flits/cycle/node): the flow-level counterpart of the flit
    simulator's uniform workload, including self-destinations (each node
    picks any node uniformly, itself included)."""
    _require_positive(n_procs)
    s, d = np.nonzero(np.ones((n_procs, n_procs), dtype=bool))
    return TrafficMatrix(n_procs, s, d, np.full(len(s), load / n_procs))


def shift_pattern(n_procs: int, stride: int, *, amount: float = 1.0) -> TrafficMatrix:
    """Cyclic shift: node ``i`` sends to ``(i + stride) mod n``.

    The building block of shift all-to-all schedules [Zahavi et al.];
    stresses a single NCA level determined by ``stride``.
    """
    _require_positive(n_procs)
    src = np.arange(n_procs)
    return TrafficMatrix(n_procs, src, (src + stride) % n_procs,
                         np.full(n_procs, amount))


def _require_power_of_two(n_procs: int) -> int:
    bits = int(n_procs).bit_length() - 1
    if n_procs <= 0 or (1 << bits) != n_procs:
        raise TrafficError(f"pattern requires a power-of-two node count, got {n_procs}")
    return bits


def bit_reversal(n_procs: int, *, amount: float = 1.0) -> TrafficMatrix:
    """Node ``i`` sends to the bit-reversal of ``i`` (power-of-two N)."""
    bits = _require_power_of_two(n_procs)
    src = np.arange(n_procs)
    dst = np.zeros(n_procs, dtype=np.int64)
    for b in range(bits):
        dst |= ((src >> b) & 1) << (bits - 1 - b)
    return TrafficMatrix(n_procs, src, dst, np.full(n_procs, amount))


def bit_complement(n_procs: int, *, amount: float = 1.0) -> TrafficMatrix:
    """Node ``i`` sends to ``~i`` (power-of-two N): every flow crosses
    the topmost level — the bisection stress test."""
    _require_power_of_two(n_procs)
    src = np.arange(n_procs)
    return TrafficMatrix(n_procs, src, n_procs - 1 - src, np.full(n_procs, amount))


def transpose_pattern(n_procs: int, *, amount: float = 1.0) -> TrafficMatrix:
    """Matrix-transpose: with ``n = q*q`` nodes viewed as a q x q grid,
    node ``(r, c)`` sends to node ``(c, r)``."""
    _require_positive(n_procs)
    q = int(round(n_procs**0.5))
    if q * q != n_procs:
        raise TrafficError(f"transpose requires a square node count, got {n_procs}")
    src = np.arange(n_procs)
    r, c = src // q, src % q
    return TrafficMatrix(n_procs, src, c * q + r, np.full(n_procs, amount))


def hotspot(
    n_procs: int,
    hot_nodes,
    *,
    hot_fraction: float = 0.5,
    total_per_node: float = 1.0,
) -> TrafficMatrix:
    """Uniform background plus a concentrated fraction to hot nodes.

    Each source sends ``hot_fraction`` of its ``total_per_node`` traffic
    split across ``hot_nodes`` and the rest uniformly to all other nodes.
    """
    _require_positive(n_procs)
    hot_nodes = np.unique(np.asarray(hot_nodes, dtype=np.int64))
    if len(hot_nodes) == 0:
        raise TrafficError("need at least one hot node")
    if hot_nodes.min() < 0 or hot_nodes.max() >= n_procs:
        raise TrafficError("hot nodes out of range")
    if not 0.0 <= hot_fraction <= 1.0:
        raise TrafficError(f"hot_fraction must be in [0, 1], got {hot_fraction}")

    background = all_to_all(n_procs,
                            total_per_node=total_per_node * (1.0 - hot_fraction))
    src = np.repeat(np.arange(n_procs), len(hot_nodes))
    dst = np.tile(hot_nodes, n_procs)
    keep = src != dst
    amount = total_per_node * hot_fraction / len(hot_nodes)
    hot = TrafficMatrix(n_procs, src[keep], dst[keep],
                        np.full(keep.sum(), amount))
    return background + hot
