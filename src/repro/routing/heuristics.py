"""The paper's limited multi-path heuristics: shift-1, disjoint, random.

All three accept a per-pair path limit ``K``, use ``min(K, X)`` paths with
uniform fractions, and coincide with UMULTI once ``K >= X = W(k)``.
shift-1 and disjoint are built on the d-mod-k path (Section 4.2); random
uses pure randomization and serves as the benchmark heuristic.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.errors import RoutingError
from repro.obs.recorder import get_recorder
from repro.routing.base import LimitedMultipathScheme
from repro.routing.enumeration import disjoint_order
from repro.routing.modk import modk_path_index, shifted_order
from repro.routing.vectorized import path_index_error
from repro.util.hashing import hash_combine, hash_mod, hash_uniform

# Return codes of select_paths, as the SELECT_* enum in select.c.
_RC_BAD_PATH = 1
_RC_BAD_SHAPE = 2
_RC_NO_MEMORY = 3


class Shift1(LimitedMultipathScheme):
    """Shift-1 heuristic (Section 4.2.2).

    Uses the ``K`` consecutive ALLPATHS entries starting at the d-mod-k
    path: indices ``(t0 + j) mod X`` for ``j < min(K, X)`` — logically
    ``K`` shifted copies of d-mod-k, each carrying ``1/K`` of the
    traffic.  Spreads load at the top level only: consecutive indices
    differ in the lowest-stride digits, so the chosen paths share their
    lower-level links.
    """

    name = "shift-1"

    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        x = self.xgft.W(k)
        t0 = modk_path_index(self.xgft, np.asarray(d), k)
        offsets = np.arange(self.paths_per_pair(k), dtype=np.int64)
        return (t0[:, None] + offsets[None, :]) % x

    def path_order_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        return shifted_order(self.xgft,
                             modk_path_index(self.xgft, np.asarray(d), k), k)


class Disjoint(LimitedMultipathScheme):
    """Disjoint heuristic (Section 4.2.3).

    Takes the first ``min(K, X)`` entries of the disjoint ordering
    ``D_k(t0)`` (see :func:`repro.routing.enumeration.disjoint_order`),
    which forks paths at the lowest levels first — making the chosen
    paths maximally link-disjoint while every one of them keeps the
    d-mod-k structure.  The paper's best heuristic.
    """

    name = "disjoint"

    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        x = self.xgft.W(k)
        t0 = modk_path_index(self.xgft, np.asarray(d), k)
        base = np.asarray(disjoint_order(self.xgft, k)[: self.paths_per_pair(k)],
                          dtype=np.int64)
        return (t0[:, None] + base[None, :]) % x

    def path_order_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        x = self.xgft.W(k)
        t0 = modk_path_index(self.xgft, np.asarray(d), k)
        base = np.asarray(disjoint_order(self.xgft, k), dtype=np.int64)
        return (t0[:, None] + base[None, :]) % x


class RandomMultipath(LimitedMultipathScheme):
    """Random heuristic (Section 4.2.1).

    Selects ``min(K, X)`` *distinct* paths uniformly at random per SD
    pair.  The selection is a pure function of ``(seed, s, d)`` via
    counter-based hashing, so routes are stable across queries — the
    paper's "average of five random seeds" is realized by constructing
    five instances with different seeds.  The seed is a uint64 hash
    input: one outside ``[0, 2**64)`` raises
    :class:`~repro.errors.RoutingError`.

    Implementation: each pair scores all ``X`` path indices with a hash
    (``hash_uniform(hash_combine(seed, s * n_procs + d), j)``) and keeps
    the ``P`` smallest scores, i.e. a Fisher-Yates-equivalent uniform
    sample without replacement; ``P == 1`` uses ``hash_mod`` instead.
    Paths order by ``(score, index)``: of two equal scores the lower
    index comes first.  (The numpy path leaves such a tie to
    ``argsort``/``argpartition``; a tie takes two equal 53-bit hashes
    in one pair's row.)  One level query is one call of the native
    ``select_paths`` (``select.c``, built by :mod:`repro.native`), which
    hashes and selects each pair's row with no ``(n, X)`` score matrix;
    when the library cannot be built or loaded, numpy scores the matrix
    and selects with ``argpartition``/``argsort``.  The two agree bit for
    bit.  With the recorder on, each query is timed as
    ``routing.kernel`` or ``routing.fallback.no_kernel``.
    """

    name = "random"

    def __init__(self, xgft, k_paths: int, seed: int = 0):
        super().__init__(xgft, k_paths)
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise RoutingError(
                f"routing seed {seed} out of range [0, 2**64)")
        self.seed = seed

    def __repr__(self) -> str:
        return f"RandomMultipath({self.xgft!r}, K={self.k_paths}, seed={self.seed})"

    def _pair_key(self, s: np.ndarray, d: np.ndarray) -> np.ndarray:
        return hash_combine(np.uint64(self.seed),
                            s * np.int64(self.xgft.n_procs) + d)

    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        s = np.asarray(s, dtype=np.int64)
        d = np.asarray(d, dtype=np.int64)
        x = self.xgft.W(k)
        p = self.paths_per_pair(k)
        if p == 1:
            return hash_mod(x, self._pair_key(s, d))[:, None]
        return self._ranked(s, d, x, p)

    def path_order_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        """All path indices ordered by hash score, except that the
        selected prefix (which for ``P == 1`` is the ``hash_mod`` pick,
        not the score minimum) always comes first: the length-``P``
        prefix is the same *set* :meth:`path_index_matrix` keeps, and
        under faults the next-best scores step in."""
        s = np.asarray(s, dtype=np.int64)
        d = np.asarray(d, dtype=np.int64)
        x = self.xgft.W(k)
        first = None
        if self.paths_per_pair(k) == 1 and x > 1:
            first = hash_mod(x, self._pair_key(s, d))
        return self._ranked(s, d, x, x, first)

    def _ranked(self, s: np.ndarray, d: np.ndarray, x: int, p: int,
                first: np.ndarray | None = None) -> np.ndarray:
        """Each pair's ``p`` lowest-scoring path indices in ascending
        index order (``p < x``), or all ``x`` in ``(score, index)`` order
        with ``first[i]`` moved to the front of row ``i`` (``p == x``):
        natively when the library loads, timed as ``routing.kernel``,
        else with numpy, timed as ``routing.fallback.no_kernel``."""
        kernel = native.available()
        with get_recorder().timer(
                "routing.kernel" if kernel else "routing.fallback.no_kernel"):
            if kernel:
                return _select_native(self.seed, self.xgft.n_procs, s, d,
                                      x, p, first)
            return _select_numpy(self._pair_key(s, d), x, p, first)


def _select_numpy(pair_key: np.ndarray, x: int, p: int,
                  first: np.ndarray | None) -> np.ndarray:
    """:meth:`RandomMultipath._ranked` from an ``(n, x)`` score matrix:
    the no-compiler path and the native path's oracle."""
    scores = hash_uniform(pair_key[:, None], np.arange(x, dtype=np.int64)[None, :])
    if first is not None:
        # a score below every hash_uniform value pins the pick first
        scores[np.arange(len(first)), first] = -1.0
    if p == x:
        return np.argsort(scores, axis=1).astype(np.int64)
    part = np.argpartition(scores, p, axis=1)[:, :p]
    return np.sort(part, axis=1).astype(np.int64)


def _select_native(seed: int, n_procs: int, s: np.ndarray, d: np.ndarray,
                   x: int, p: int, first: np.ndarray | None) -> np.ndarray:
    """:meth:`RandomMultipath._ranked` as one ``select_paths`` call."""
    s, d = (np.ascontiguousarray(a, dtype=np.int64)
            for a in np.broadcast_arrays(s, d))
    out = np.empty((s.size, p), dtype=np.int64)
    if first is not None:
        first = np.ascontiguousarray(first, dtype=np.int64)
        if first.shape != s.shape:
            raise ValueError("select_paths needs one pinned path per pair")
    rc = native.lib().select_paths(
        seed, n_procs, s.size, s.ctypes.data, d.ctypes.data, x, p,
        None if first is None else first.ctypes.data, out.ctypes.data)
    if rc == _RC_BAD_PATH:
        raise path_index_error(first[(first < 0) | (first >= x)][0], x)
    if rc == _RC_BAD_SHAPE:
        raise ValueError(f"select_paths needs 1 <= p <= x, got p={p}, x={x}")
    if rc == _RC_NO_MEMORY:
        raise MemoryError("select_paths could not allocate its scratch")
    return out


class RandomSingle(RandomMultipath):
    """Random single-path routing [Greenberg & Leiserson]: one uniformly
    random shortest path per SD pair (= random heuristic with K=1)."""

    name = "random-single"

    def __init__(self, xgft, seed: int = 0):
        super().__init__(xgft, 1, seed=seed)

    @property
    def label(self) -> str:
        return self.name


class UMulti(LimitedMultipathScheme):
    """Unlimited multi-path routing (UMULTI, Section 4.1).

    Spreads each pair's traffic uniformly over *all* ``X = W(k)``
    shortest paths.  Theorem 1: its oblivious performance ratio is 1 —
    optimal for every traffic matrix.
    """

    name = "umulti"

    def __init__(self, xgft):
        super().__init__(xgft, xgft.max_paths)

    def __repr__(self) -> str:
        return f"UMulti({self.xgft!r})"

    @property
    def label(self) -> str:
        return self.name

    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        x = self.xgft.W(k)
        n = len(np.asarray(s))
        return np.broadcast_to(np.arange(x, dtype=np.int64), (n, x)).copy()

    def path_order_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        return self.path_index_matrix(s, d, k)
