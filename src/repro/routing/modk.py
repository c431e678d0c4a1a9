"""Destination-mod-k and source-mod-k single-path routing.

d-mod-k (Section 3.3): climbing from level ``j`` toward the NCA, take up
port ``p_j = (d // W(j)) mod w_{j+1}``.  s-mod-k uses the source id
instead.  Both are universal single-path schemes on XGFTs and d-mod-k is
the base of the paper's shift-1 and disjoint heuristics.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import RoutingScheme
from repro.routing.enumeration import path_codec
from repro.topology.xgft import XGFT


def modk_path_index(xgft: XGFT, key, k: int):
    """ALLPATHS index of the mod-k path for pairs with NCA level ``k``.

    ``key`` is the destination id for d-mod-k or the source id for
    s-mod-k; vectorized over arrays.  The port at level ``j`` is
    ``(key // W(j)) mod w_{j+1}`` and the path index weights it by the
    stride ``R_j = W(k)/W(j+1)``.
    """
    codec = path_codec(xgft, k)
    key = np.asarray(key)
    t = np.zeros(key.shape, dtype=np.int64)
    for j in range(k):
        port = (key // xgft.W(j)) % xgft.w[j]
        t += port * codec.strides[j]
    return t


def shifted_paths(xgft: XGFT, t0: np.ndarray, offsets: np.ndarray,
                  k: int) -> np.ndarray:
    """Row ``i`` holds ``(t0[i] + offsets) mod X``, ``X = W(k)``: the
    paths at ``offsets`` from each pair's base path.  The sum is reduced
    in place, so the ``(n, len(offsets))`` result is the only array of
    that size built."""
    out = np.asarray(t0, dtype=np.int64)[:, None] + np.asarray(
        offsets, dtype=np.int64)
    out %= xgft.W(k)
    return out


def shifted_order(xgft: XGFT, t0: np.ndarray, k: int) -> np.ndarray:
    """Full path order ``(t0 + j) mod X`` for ``j = 0..X-1`` — the shift
    sequence starting at each pair's base path.  Shared by the mod-k
    schemes and shift-1, whose fault fallback walks to the next shifted
    copy of the base path."""
    return shifted_paths(xgft, t0, np.arange(xgft.W(k)), k)


class DModK(RoutingScheme):
    """Destination-mod-k single-path routing [5, 10, 15 in the paper]."""

    name = "d-mod-k"

    def paths_per_pair(self, k: int) -> int:
        return 1

    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        return modk_path_index(self.xgft, np.asarray(d), k)[:, None]

    def path_order_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        return shifted_order(self.xgft,
                             modk_path_index(self.xgft, np.asarray(d), k), k)


class SModK(RoutingScheme):
    """Source-mod-k single-path routing (performance is known to be
    nearly identical to d-mod-k; provided as a baseline)."""

    name = "s-mod-k"

    def paths_per_pair(self, k: int) -> int:
        return 1

    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        return modk_path_index(self.xgft, np.asarray(s), k)[:, None]

    def path_order_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        return shifted_order(self.xgft,
                             modk_path_index(self.xgft, np.asarray(s), k), k)
