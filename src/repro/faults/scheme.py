"""Fault-aware routing: any scheme, degraded gracefully.

:class:`DegradedScheme` wraps a pristine
:class:`~repro.routing.base.RoutingScheme` and a
:class:`~repro.faults.degraded.DegradedFabric` and re-routes around the
damage using the wrapped scheme's *own* preference order
(:meth:`~repro.routing.base.RoutingScheme.path_order_matrix`): each pair
keeps the first ``min(K, alive)`` surviving paths in that order, with
its traffic fractions renormalized to ``1/alive`` when fewer than ``K``
survive.  A pair whose every shortest path died raises
:class:`~repro.errors.DisconnectedPairError`.

The batch contract stays fixed-width so the vectorized evaluators and
the route compiler keep working unchanged: rows short of ``K`` live
paths are padded with a duplicate of their first live path at weight 0
(:meth:`~repro.routing.base.RoutingScheme.path_weight_matrix` carries
the per-pair weights).  Padding is invisible to load accumulation
(weight 0) and is filtered out wherever concrete path *lists* are
materialized (route sets, LFTs); a flit route table keeps each row's
live count instead, since the padding ends the row.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro import native
from repro.errors import DisconnectedPairError, FaultError, RoutingError
from repro.faults.degraded import DegradedFabric
from repro.obs.recorder import get_recorder
from repro.routing.base import RouteSet, RoutingScheme
from repro.routing.compiled import LazyPlan
from repro.routing.vectorized import level_pairs, path_index_error

# Return codes of select_surviving, as the SELECT_* enum in select.c.
_RC_BAD_PATH = 1
_RC_BAD_SHAPE = 2
_RC_BAD_NODE = 4
_RC_DISCONNECTED = 5


def select_surviving(
    s: np.ndarray, d: np.ndarray, order: np.ndarray, alive: np.ndarray,
    p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Padded ``(idx, weights)`` selection from a preference order.

    Each row keeps the first ``min(p, alive)`` surviving entries of its
    ``order`` row, weights renormalized to ``1/alive``; rows short of
    ``p`` are padded with their first surviving path at weight 0.  This
    is THE re-route rule: :class:`DegradedScheme` fills its tables with
    it, both when a query names a row and when
    :class:`~repro.faults.churn.IncrementalDegradedScheme` re-selects
    the rows an event touched.  Purely row-local, so recomputing a
    subset of rows gives the same floats as recomputing all of them.
    This numpy form, from an ``(n, X)`` ``alive`` matrix, is the oracle
    and the no-compiler path of :func:`select_level`.

    Raises :class:`~repro.errors.DisconnectedPairError` (before any
    output is materialized) if some row has no surviving path.
    """
    counts = alive.sum(axis=1)
    if not counts.all():
        bad = int(np.flatnonzero(counts == 0)[0])
        raise DisconnectedPairError(int(s[bad]), int(d[bad]))
    n = len(order)
    take = np.minimum(counts, p)
    rank = np.cumsum(alive, axis=1)
    sel = alive & (rank <= p)
    rows, cols = np.nonzero(sel)
    pos = rank[rows, cols] - 1
    first = order[np.arange(n), np.argmax(alive, axis=1)]
    idx = np.repeat(first[:, None], p, axis=1)
    idx[rows, pos] = order[rows, cols]
    weights = np.zeros((n, p))
    weights[rows, pos] = 1.0 / take[rows]
    return idx, weights


def select_level(fabric: DegradedFabric, k: int, s: np.ndarray,
                 d: np.ndarray, order: np.ndarray, p: int,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_surviving` of the level-``k`` pairs ``(s, d)`` with
    preference ``order`` on ``fabric`` as it is now: one native call over
    the fabric's liveness tables when the library loads, timed as
    ``faults.kernel``, else
    :meth:`~repro.faults.degraded.DegradedFabric.path_alive_matrix` and
    :func:`select_surviving`, timed as ``faults.fallback.no_kernel``.
    Both give the same arrays and raise the same errors: an order entry
    outside ``[0, W(k))`` anywhere in the batch raises
    :class:`~repro.errors.RoutingError`, else the first row with no
    surviving path :class:`~repro.errors.DisconnectedPairError`."""
    kernel = native.available()
    with get_recorder().timer(
            "faults.kernel" if kernel else "faults.fallback.no_kernel"):
        if kernel:
            return _select_native(s, d, order, fabric.level_liveness(k), p)
        alive = fabric.path_alive_matrix(s, d, order, k)
        return select_surviving(s, d, order, alive, p)


def _select_native(s: np.ndarray, d: np.ndarray, order: np.ndarray,
                   liveness: tuple[np.ndarray, np.ndarray], p: int,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """:func:`select_level`'s native path: one ``select_surviving`` call
    that tests each path against the level's ``(up_ok, down_ok)``
    liveness tables (:meth:`~repro.faults.degraded.DegradedFabric.level_liveness`)
    as it walks the order, with no ``(n, X)`` alive matrix."""
    up_ok, down_ok = liveness
    s, d, order = (np.ascontiguousarray(a, dtype=np.int64)
                   for a in (s, d, order))
    # the C loop trusts these shapes and reads the tables as bytes
    if (order.ndim != 2 or s.shape != d.shape or s.shape != order.shape[:1]
            or up_ok.shape != down_ok.shape
            or up_ok.shape[1:] != order.shape[1:]
            or any(ok.dtype != np.bool_ or not ok.flags.c_contiguous
                   for ok in liveness)):
        raise ValueError("select_surviving needs an (n, X) order, n nodes "
                         "and two contiguous (n_procs, X) bool tables")
    n, x = order.shape
    idx = np.empty((n, p), dtype=np.int64)
    weights = np.empty((n, p))
    bad = ctypes.c_int64()
    rc = native.lib().select_surviving(
        len(up_ok), n, s.ctypes.data, d.ctypes.data, x, p, order.ctypes.data,
        up_ok.ctypes.data, down_ok.ctypes.data, idx.ctypes.data,
        weights.ctypes.data, ctypes.byref(bad))
    if rc == _RC_BAD_PATH:
        raise path_index_error(bad.value, x)
    if rc == _RC_BAD_NODE:
        raise RoutingError(f"node id {bad.value} out of range [0, {len(up_ok)})")
    if rc == _RC_DISCONNECTED:
        raise DisconnectedPairError(int(s[bad.value]), int(d[bad.value]))
    if rc == _RC_BAD_SHAPE:
        raise ValueError(f"select_surviving needs 1 <= p <= X, got p={p}, X={x}")
    return idx, weights


class DegradedScheme(LazyPlan):
    """A routing scheme filtered through a degraded fabric.

    On a pristine fabric this is a transparent proxy (bit-identical
    routes and loads); the paper's pristine results are the
    ``rate == 0`` end of every fault sweep.

    On a damaged fabric it serves queries as a
    :class:`~repro.routing.compiled.LazyPlan`: a pair is selected the
    first time a query names it, served from its level's table after
    that, and dropped with every other row when the fabric's ``version``
    moves.  Rows are selected by
    :func:`select_level`: natively when the library loads, else with
    numpy, bit for bit alike.  A bad query raises
    :class:`~repro.errors.FaultError`.
    """

    error = FaultError

    def __init__(self, base: RoutingScheme, degraded: DegradedFabric):
        if isinstance(base, DegradedScheme):
            raise FaultError("refusing to stack degraded wrappers; rebuild "
                             "one wrapper from the combined fault set")
        if isinstance(base, LazyPlan) or not hasattr(base,
                                                     "path_order_matrix"):
            raise FaultError(
                f"{type(base).__name__} keeps no path preference order of "
                f"its own; wrap the underlying scheme, not a compiled plan"
            )
        if base.xgft != degraded.xgft:
            raise FaultError(
                "scheme and degraded fabric were built for different topologies"
            )
        super().__init__(base.xgft)
        self.base = base
        self.degraded = degraded
        self.name = base.name
        self._version = degraded.version

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.base!r}, {self.degraded!r})"

    @property
    def label(self) -> str:
        return f"{self.base.label}@{self.degraded.tag}"

    def paths_per_pair(self, k: int) -> int:
        return self.base.paths_per_pair(k)

    def fractions(self, k: int) -> np.ndarray:
        """The *nominal* (pristine) fractions; per-pair truth comes from
        :meth:`path_weight_matrix`."""
        return self.base.fractions(k)

    # ------------------------------------------------------------------
    def _select(self, k: int, rows) -> tuple[np.ndarray, np.ndarray]:
        """Padded ``(idx, weights)`` of level ``k``'s ``rows`` on the
        fabric as it is now."""
        src, dst = level_pairs(self.xgft).pairs[k]
        s, d = src[rows], dst[rows]
        order = np.asarray(self.base.path_order_matrix(s, d, k),
                           dtype=np.int64)
        return select_level(self.degraded, k, s, d, order,
                            self.paths_per_pair(k))

    def _drop_stale(self) -> None:
        """Empty every table if the fabric moved since they were filled."""
        if self._version != self.degraded.version:
            self._tables.clear()
            self._version = self.degraded.version

    # -- RoutingScheme surface -----------------------------------------
    def path_selection(self, s: np.ndarray, d: np.ndarray, k: int):
        if self.degraded.is_pristine:
            return self.base.path_index_matrix(s, d, k), None
        return super().path_selection(s, d, k)

    def path_order_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        return self.base.path_order_matrix(s, d, k)

    def route(self, s: int, d: int) -> RouteSet:
        """One pair's surviving routes (padding filtered out)."""
        if self.degraded.is_pristine:
            return self.base.route(s, d)
        s_arr, d_arr = np.array([s]), np.array([d])
        k = int(level_pairs(self.xgft).level[self._keys(s_arr, d_arr)][0])
        if k == 0:
            return RouteSet(s, d, 0, (), ())
        table, rows = self._lookup(s_arr, d_arr, k)
        idx, weights = table[0][rows[0]], table[1][rows[0]]
        live = weights > 0.0
        return RouteSet(
            s, d, k,
            tuple(int(t) for t in idx[live]),
            tuple(float(f) for f in weights[live]),
        )
