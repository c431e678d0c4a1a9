"""Shortest-path enumeration on XGFTs (the paper's ALLPATHS ordering).

Between two processing nodes whose nearest common ancestors (NCA) sit at
level ``k`` there are ``X = W(k)`` shortest paths (Property 1), one per
top-level switch of the NCA subtree.  The paper numbers them leftmost to
rightmost: *Path i* climbs to the ``i``-th leftmost top-level switch of
the subtree and descends.

A path is therefore identified by a single integer index ``t`` in
``[0, X)``.  The up-port choices ``p_0, ..., p_{k-1}`` (``p_j`` is the up
port taken when leaving level ``j``) map to ``t`` by::

    t = sum_j p_j * R_j,    R_j = W(k) / W(j+1)

i.e. the *lowest-level* choice ``p_0`` is the most significant digit.
This matches the paper's Figure 3 worked example: in
``XGFT(3; 4,4,4; 1,4,2)`` the d-mod-k path for SD pair (0, 63) has port
choices ``(0, 3, 1)`` and index ``0*8 + 3*2 + 1 = 7`` — "Path 7".

:class:`PathCodec` encapsulates the codec for a fixed NCA level plus the
paper's *disjoint ordering* of path indices (Section 4.2.3), which is the
basis of the disjoint heuristic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import RoutingError
from repro.topology.xgft import XGFT


class PathCodec:
    """Codec between path indices and up-port digit vectors for SD pairs
    whose NCA sits at level ``k`` of ``xgft``.

    Attributes
    ----------
    num_paths:
        ``X = W(k)``, the number of shortest paths.
    strides:
        ``R_j = W(k) // W(j+1)`` for ``j = 0..k-1`` — place value of the
        level-``j`` port choice in the path index.
    """

    def __init__(self, xgft: XGFT, k: int):
        if not 0 <= k <= xgft.h:
            raise RoutingError(f"NCA level {k} out of range [0, {xgft.h}]")
        self.xgft = xgft
        self.k = k
        self.num_paths = xgft.W(k)
        self.strides = tuple(xgft.W(k) // xgft.W(j + 1) for j in range(k))

    def ports_to_index(self, ports) -> int:
        """Path index of the up-port choice vector ``(p_0..p_{k-1})``."""
        ports = tuple(int(p) for p in ports)
        if len(ports) != self.k:
            raise RoutingError(f"expected {self.k} port choices, got {len(ports)}")
        t = 0
        for j, p in enumerate(ports):
            if not 0 <= p < self.xgft.w[j]:
                raise RoutingError(f"port {p} out of range for level {j}")
            t += p * self.strides[j]
        return t

    def index_to_ports(self, t: int) -> tuple[int, ...]:
        """Up-port choices of path index ``t`` (inverse of
        :meth:`ports_to_index`)."""
        t = int(t)
        if not 0 <= t < self.num_paths:
            raise RoutingError(f"path index {t} out of range [0, {self.num_paths})")
        ports = []
        for j in range(self.k - 1, -1, -1):  # least significant digit first
            radix = self.xgft.w[j]
            ports.append(t % radix)
            t //= radix
        return tuple(reversed(ports))

    def port_array(self, t: np.ndarray, j: int) -> np.ndarray:
        """Vectorized level-``j`` up-port digit of path indices ``t``."""
        if not 0 <= j < self.k:
            raise RoutingError(f"level {j} out of range [0, {self.k})")
        return (t // self.strides[j]) % self.xgft.w[j]


@lru_cache(maxsize=512)
def path_codec(xgft: XGFT, k: int) -> PathCodec:
    """Shared :class:`PathCodec` for ``(xgft, k)``.

    The codec is immutable and cheap, but the flow evaluator and the
    table compilers used to rebuild one per call on their hot paths;
    ``XGFT`` hashes by ``(h, m, w)``, so equal topologies share cached
    codecs even across separately constructed instances.
    """
    return PathCodec(xgft, k)


@lru_cache(maxsize=None)
def _disjoint_order_cached(h: int, m: tuple, w: tuple, k: int) -> tuple[int, ...]:
    xgft = XGFT(h, m, w)
    X = xgft.W(k)

    def level_sequence(j: int) -> list[int]:
        if j == 0:
            return [0]
        stride = X // xgft.W(j)  # S_j = prod_{i=j+1..k} w_i
        prev = level_sequence(j - 1)
        out: list[int] = []
        for t in range(xgft.w[j - 1]):  # w_j choices at level j
            shift = (t * stride) % X
            out.extend((p + shift) % X for p in prev)
        return out

    return tuple(level_sequence(k))


def disjoint_order(xgft: XGFT, k: int) -> tuple[int, ...]:
    """The paper's disjoint path ordering ``D_k(0)`` for NCA level ``k``.

    ``D_1(i)`` lists the ``w_1`` paths forking at the processing node
    (stride ``S_1 = X / w_1``); ``D_j(i)`` concatenates ``D_{j-1}`` blocks
    shifted by multiples of ``S_j = X / W(j)``.  Because the shifts are
    additive, ``D_k(i) = (i + D_k(0)) mod X`` — so only the base order is
    materialized (and cached per ``(topology, k)``).

    The result is a permutation of ``[0, X)`` whose length-``W(j)``
    prefixes are the paper's level-``j`` disjoint sets.

    >>> from repro.topology import XGFT
    >>> disjoint_order(XGFT(3, (4, 4, 4), (1, 4, 2)), 3)
    (0, 2, 4, 6, 1, 3, 5, 7)
    """
    if not 0 <= k <= xgft.h:
        raise RoutingError(f"NCA level {k} out of range [0, {xgft.h}]")
    return _disjoint_order_cached(xgft.h, xgft.m, xgft.w, k)
