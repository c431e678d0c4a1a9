"""Routing abstractions.

A *routing scheme* assigns every source-destination (SD) pair a set of
shortest paths ``MP_{s,d}`` and traffic fractions ``f_{s,d}`` summing to 1
(Section 3.2 of the paper).  Single-path routing is the special case
``|MP| = 1``; unlimited multi-path (UMULTI) uses all ``X`` paths.

Two query granularities are supported:

* :meth:`RoutingScheme.route` — one SD pair, returns a :class:`RouteSet`;
* :meth:`RoutingScheme.path_index_matrix` — a *batch* of pairs sharing a
  common NCA level ``k``, returns a dense ``(n_pairs, P)`` matrix of path
  indices plus fractions (:meth:`RoutingScheme.path_selection` returns
  both at once).  The flow-level simulator groups pairs by NCA level and
  uses this vectorized form exclusively.

Both must agree; the scalar form is implemented on top of the batch form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.routing.path import Path, build_path
from repro.topology.xgft import XGFT


@dataclass(frozen=True)
class RouteSet:
    """The paths assigned to one SD pair and their traffic fractions.

    ``indices`` are ALLPATHS path indices (see
    :mod:`repro.routing.enumeration`); ``fractions`` are the fraction of
    the pair's traffic each path carries (sums to 1).
    """

    src: int
    dst: int
    nca_level: int
    indices: tuple[int, ...]
    fractions: tuple[float, ...]

    def __post_init__(self):
        if len(self.indices) != len(self.fractions):
            raise RoutingError("indices and fractions must have equal length")
        if self.indices and abs(sum(self.fractions) - 1.0) > 1e-9:
            raise RoutingError(f"fractions sum to {sum(self.fractions)}, expected 1")
        if len(set(self.indices)) != len(self.indices):
            raise RoutingError(f"duplicate path indices in route set: {self.indices}")

    @property
    def num_paths(self) -> int:
        return len(self.indices)

    def paths(self, xgft: XGFT) -> list[Path]:
        """Materialize the concrete :class:`Path` objects."""
        return [build_path(xgft, self.src, self.dst, t) for t in self.indices]


class RoutingScheme(ABC):
    """Base class for traffic-oblivious routing schemes on an XGFT.

    Subclasses must be *pure functions* of the SD pair (and the
    construction-time seed, for randomized schemes): repeated queries for
    the same pair return the same routes.
    """

    #: short identifier used by the factory and in reports
    name: str = "abstract"

    def __init__(self, xgft: XGFT):
        self.xgft = xgft

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.xgft!r})"

    @property
    def label(self) -> str:
        """Display label, e.g. ``disjoint(4)`` — overridden by K-limited
        schemes to include the path limit."""
        return self.name

    @abstractmethod
    def paths_per_pair(self, k: int) -> int:
        """Number of paths this scheme assigns to a pair with NCA level
        ``k`` (``k >= 1``)."""

    @abstractmethod
    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        """Path indices for a batch of SD pairs, all with NCA level ``k``.

        Parameters
        ----------
        s, d:
            1-D arrays of processing-node ids; every pair must satisfy
            ``nca_level(s_i, d_i) == k`` and ``k >= 1`` (callers filter
            out self-pairs, which carry no network traffic).

        Returns
        -------
        An ``(len(s), paths_per_pair(k))`` int64 array of distinct path
        indices per row, each in ``[0, W(k))``.
        """

    def fractions(self, k: int) -> np.ndarray:
        """Traffic fractions per path for NCA level ``k`` (uniform by
        default, matching the paper's heuristics)."""
        p = self.paths_per_pair(k)
        return np.full(p, 1.0 / p)

    def path_weight_matrix(self, s: np.ndarray, d: np.ndarray, k: int):
        """Per-*pair* traffic fractions aligned with
        :meth:`path_index_matrix`, or ``None`` when the per-level
        :meth:`fractions` apply to every pair (the default).

        Fault-aware schemes return an ``(len(s), P)`` float64 matrix
        whose rows sum to 1; entries may be 0 (the matching path-index
        entry is dead-weight padding and carries no traffic).
        Evaluators must consult this before :meth:`fractions`.
        """
        return None

    def path_selection(self, s: np.ndarray, d: np.ndarray, k: int):
        """:meth:`path_index_matrix` and :meth:`path_weight_matrix` of one
        batch as ``(idx, frac)``, in one query.  The default makes the
        two calls; schemes that serve both from one table lookup (the
        fault-aware wrapper, compiled plans) override it.  The flow
        evaluator and the route and LFT compilers read selections
        through it."""
        return (self.path_index_matrix(s, d, k),
                self.path_weight_matrix(s, d, k))

    def path_order_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        """Full preference order over *all* ``X = W(k)`` path indices for
        a batch of level-``k`` pairs — each row a permutation of
        ``[0, X)`` whose length-``P`` prefix is :meth:`path_index_matrix`.

        This is the scheme's re-route policy: when faults kill some of a
        pair's preferred paths, the degraded wrapper walks this order and
        takes the first surviving ones.  The default extends the selected
        prefix with the remaining indices in ascending ALLPATHS order;
        subclasses with a natural total order (shift sequences, disjoint
        orderings, hash scores) override it.
        """
        s = np.asarray(s, dtype=np.int64)
        d = np.asarray(d, dtype=np.int64)
        x = self.xgft.W(k)
        idx = np.asarray(self.path_index_matrix(s, d, k), dtype=np.int64)
        n, p = idx.shape
        if p == x:
            return idx
        out = np.empty((n, x), dtype=np.int64)
        out[:, :p] = idx
        remaining = np.ones((n, x), dtype=bool)
        remaining[np.arange(n)[:, None], idx] = False
        out[:, p:] = np.nonzero(remaining)[1].reshape(n, x - p)
        return out

    def route(self, s: int, d: int) -> RouteSet:
        """Route one SD pair.  ``s == d`` yields the empty route set."""
        n = self.xgft.n_procs
        if not 0 <= s < n or not 0 <= d < n:
            raise RoutingError(f"processing nodes must be in [0, {n}), got {s}, {d}")
        k = self.xgft.nca_level(s, d)
        if k == 0:
            return RouteSet(s, d, 0, (), ())
        idx = self.path_index_matrix(np.array([s]), np.array([d]), k)[0]
        frac = self.fractions(k)
        return RouteSet(s, d, int(k), tuple(int(t) for t in idx), tuple(float(f) for f in frac))

    def all_route_sets(self) -> dict[tuple[int, int], RouteSet]:
        """Route every ordered SD pair (s != d).  Intended for the flit
        simulator and InfiniBand table compilation on small topologies."""
        out = {}
        for s in range(self.xgft.n_procs):
            for d in range(self.xgft.n_procs):
                if s != d:
                    out[(s, d)] = self.route(s, d)
        return out


class LimitedMultipathScheme(RoutingScheme):
    """Base for schemes with a per-pair path limit ``K`` (the paper's
    *limited multi-path routing*).  ``K`` may exceed a pair's path count
    ``X``, in which case all ``X`` paths are used."""

    def __init__(self, xgft: XGFT, k_paths: int):
        super().__init__(xgft)
        if k_paths < 1:
            raise RoutingError(f"path limit K must be >= 1, got {k_paths}")
        self.k_paths = int(k_paths)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.xgft!r}, K={self.k_paths})"

    @property
    def label(self) -> str:
        return f"{self.name}({self.k_paths})"

    def paths_per_pair(self, k: int) -> int:
        return min(self.k_paths, self.xgft.W(k))
