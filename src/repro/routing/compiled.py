"""Routing plans: a scheme's path selection, kept per pair.

A :class:`~repro.routing.base.RoutingScheme` is, by contract, a pure
function of the SD pair, yet the flow evaluator asks it again for every
batch of traffic matrices.  A :class:`LazyPlan` keeps what was selected:
per NCA level one table with a row per ordered pair, in the topology's
:func:`~repro.routing.vectorized.level_pairs` order, holding the pair's
``P`` path indices and, where the selection carries them, its per-pair
fractions.  A row is selected the first time a query names its pair and
served from the table after that, so a study that names a few pairs
selects only those.  The tables are ``np.empty``, so rows no query
names cost address space, not RSS; a level's filled-row mask is dropped
once every row is filled.  Selection is row-local, so a row holds the
same values whichever batch filled it.

Two kinds of plan fill these tables:

* :class:`CompiledScheme`, what :func:`compile_scheme` returns for a
  pristine scheme, fills rows from the scheme's own ``path_selection``;
* :class:`~repro.faults.scheme.DegradedScheme` fills them with each
  pair's surviving paths and empties them when its fabric's ``version``
  moves; :class:`~repro.faults.churn.IncrementalDegradedScheme` fills
  every row up front and keeps them current.

A plan reads as a scheme, so the one flow evaluator
(:func:`repro.flow.loads.link_loads`), the flit route compiler
(:func:`repro.routing.vectorized.compile_routes`, which keeps each
level's path ids and live counts as the plan serves them) and the
InfiniBand LFT compiler take it in place of the scheme and give
bit-identical results.
"""

from __future__ import annotations

from abc import abstractmethod

import numpy as np

from repro.errors import RoutingError
from repro.routing.base import RoutingScheme
from repro.routing.vectorized import level_pairs
from repro.topology.xgft import XGFT


class LazyPlan(RoutingScheme):
    """A path selection served from per-NCA-level tables whose rows are
    filled the first time a query names their pair.

    Subclasses select rows (:meth:`_select`) and say when the tables
    went stale (:meth:`_drop_stale`).  Every query checks its batch
    first: node ids in ``[0, n_procs)`` and every pair at NCA level
    ``k``, else :attr:`error`.
    """

    #: what a query with a bad node id or NCA level raises
    error: type[Exception] = RoutingError

    def __init__(self, xgft: XGFT):
        super().__init__(xgft)
        # NCA level -> [idx, weights, filled]: the (pairs, P) selection,
        # its (pairs, P) per-pair fractions (None while the selection
        # carries none) and the mask of the rows filled so far, None
        # once every row is.
        self._tables: dict[int, list] = {}

    @abstractmethod
    def _select(self, k: int, rows) -> tuple[np.ndarray, np.ndarray | None]:
        """``(idx, weights)`` of level ``k``'s ``rows``, in row order."""

    def _drop_stale(self) -> None:
        """Empty the tables if what filled them has moved since."""

    @property
    def n_pairs(self) -> int:
        """Ordered pairs with a network route, ``n_procs * (n_procs - 1)``:
        the rows the tables cover."""
        return sum(len(s) for s, _ in level_pairs(self.xgft).pairs.values())

    @property
    def nbytes(self) -> int:
        """Bytes of the tables allocated so far."""
        return sum(a.nbytes for table in self._tables.values()
                   for a in table if a is not None)

    def _keys(self, s, d) -> np.ndarray:
        """Pair keys ``s * n_procs + d`` of a batch, after checking that
        every node id is in ``[0, n_procs)``."""
        n = self.xgft.n_procs
        s = np.asarray(s, dtype=np.int64)
        d = np.asarray(d, dtype=np.int64)
        if s.size and (min(s.min(), d.min()) < 0
                       or max(s.max(), d.max()) >= n):
            raise self.error(f"batch contains node ids outside [0, {n})")
        return s * n + d

    def _lookup(self, s, d, k: int) -> tuple[list, np.ndarray]:
        """Level ``k``'s table and the batch's rows in it, once the rows
        not yet filled are selected."""
        keys = self._keys(s, d)
        pairs = level_pairs(self.xgft)
        wrong = np.flatnonzero(pairs.level[keys] != k)
        if wrong.size:
            s0, d0 = divmod(int(keys[wrong[0]]), self.xgft.n_procs)
            raise self.error(f"pair ({s0}, {d0}) does not have NCA level {k}")
        if k not in pairs.pairs:
            raise self.error(f"no pair has NCA level {k} on {self.xgft!r}")
        rows = pairs.row[keys]
        self._drop_stale()
        table = self._tables.get(k)
        if table is None:
            n_rows = len(pairs.pairs[k][0])
            # np.empty: rows no query names cost address space, not RSS
            table = self._tables[k] = [
                np.empty((n_rows, self.paths_per_pair(k)), dtype=np.int64),
                None, np.zeros(n_rows, dtype=bool)]
        filled = table[2]
        if filled is not None:
            missing = ~filled[rows]
            if missing.any():
                todo = np.zeros_like(filled)
                todo[rows[missing]] = True  # each row once, in row order
                todo = np.flatnonzero(todo)
                idx, weights = self._select(k, todo)
                table[0][todo] = idx
                if weights is not None:
                    if table[1] is None:
                        table[1] = np.empty(table[0].shape)
                    table[1][todo] = weights
                filled[todo] = True
                if filled.all():
                    table[2] = None
        return table, rows

    # -- RoutingScheme query surface ----------------------------------
    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        return self.path_selection(s, d, k)[0]

    def path_weight_matrix(self, s: np.ndarray, d: np.ndarray, k: int):
        return self.path_selection(s, d, k)[1]

    def path_selection(self, s: np.ndarray, d: np.ndarray, k: int):
        """Both of the above from one table lookup."""
        table, rows = self._lookup(s, d, k)
        return table[0][rows], None if table[1] is None else table[1][rows]


class CompiledScheme(LazyPlan):
    """A pristine scheme's path selection, kept per pair: rows come from
    the scheme's own ``path_selection``, the rest of the scheme surface
    (``label``, ``name``, ``paths_per_pair``, ``fractions``) from the
    scheme itself."""

    def __init__(self, base: RoutingScheme):
        super().__init__(base.xgft)
        self.base = base
        self.name = base.name

    def __repr__(self) -> str:
        return f"CompiledScheme({self.base!r})"

    @property
    def label(self) -> str:
        return self.base.label

    def paths_per_pair(self, k: int) -> int:
        return self.base.paths_per_pair(k)

    def fractions(self, k: int) -> np.ndarray:
        return self.base.fractions(k)

    def _select(self, k: int, rows) -> tuple[np.ndarray, np.ndarray | None]:
        src, dst = level_pairs(self.xgft).pairs[k]
        return self.base.path_selection(src[rows], dst[rows], k)


def compile_scheme(xgft: XGFT, scheme: RoutingScheme) -> LazyPlan:
    """``scheme`` as a plan on ``xgft``: a :class:`CompiledScheme` over a
    pristine scheme, or ``scheme`` itself when it already is a plan (a
    fault-aware scheme, or an earlier result).  Selects nothing: each
    pair is selected the first time a query names it.
    """
    if scheme.xgft != xgft:
        raise RoutingError("scheme was built for a different topology")
    if isinstance(scheme, LazyPlan):
        return scheme
    return CompiledScheme(scheme)
