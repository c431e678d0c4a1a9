"""Batched flow-level evaluation over compiled routing plans.

The reference evaluator (:func:`repro.flow.loads.link_loads`) recomputes
the routing decision per batch of matrices.  :class:`BatchFlowEngine`
consumes a :class:`~repro.routing.compiled.CompiledScheme` instead:
evaluating a traffic matrix is one CSR row-gather plus one
``np.bincount``, and a *batch* of B permutations is evaluated in a
single stacked bincount keyed by ``batch_index * n_links + link_id``,
returning a ``(B,)`` MLOAD vector.  This is the permutation-study hot
path: the adaptive protocol draws whole rounds (64, 128, ... samples)
which the engine folds into a handful of NumPy calls.
"""

from __future__ import annotations

import numpy as np

from repro.obs.recorder import get_recorder
from repro.routing.compiled import CompiledScheme
from repro.traffic.matrix import TrafficMatrix

#: soft cap on the scratch ``(chunk, n_links)`` load matrix (floats)
_BATCH_BUDGET = 1 << 23


def _duplicate_columns(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equivalence classes of identical columns of a 2-D int table.

    Returns ``(keep, inverse)``: the first column of each class and, for
    every column, its class index.  A full lexicographic unique over
    ``n_pairs``-long columns would dominate engine setup, so candidate
    classes come from a small row sample and only candidates are
    verified exactly.
    """
    n_rows, width = table.shape
    sample = table[:: max(1, n_rows // 64)]
    _, cand = np.unique(sample.T, axis=0, return_inverse=True)
    cand = cand.ravel()
    keep: list[int] = []
    inverse = np.empty(width, dtype=np.int64)
    buckets: dict[int, list[int]] = {}
    for col in range(width):
        for rep in buckets.get(int(cand[col]), ()):
            if np.array_equal(table[:, col], table[:, rep]):
                inverse[col] = inverse[rep]
                break
        else:
            buckets.setdefault(int(cand[col]), []).append(col)
            inverse[col] = len(keep)
            keep.append(col)
    return np.asarray(keep, dtype=np.int64), inverse


class BatchFlowEngine:
    """Evaluates traffic against one compiled routing plan.

    >>> from repro.topology import m_port_n_tree
    >>> from repro.routing import make_scheme
    >>> from repro.routing.compiled import compile_scheme
    >>> import numpy as np
    >>> xgft = m_port_n_tree(4, 2)
    >>> eng = BatchFlowEngine(compile_scheme(xgft, make_scheme(xgft, "umulti")))
    >>> perms = np.stack([np.roll(np.arange(8), r) for r in (1, 2)])
    >>> eng.permutation_mloads(perms)
    array([1., 1.])
    """

    def __init__(self, plan: CompiledScheme):
        self.plan = plan
        self.xgft = plan.xgft
        self._n = plan.xgft.n_procs
        self._n_links = plan.xgft.n_links
        self._indptr = plan.indptr
        self._row_counts = np.diff(plan.indptr)
        self._link_ids = plan.link_ids
        self._link_weights = plan.link_weights
        # Dense per-level tables for the permutation batch path: every
        # row of a level has the same width, so a batch evaluation is
        # plain 2-D fancy indexing — no variable-length CSR gather.
        # Entries sharing a weight are folded into one *unweighted*
        # bincount times a scalar (uniform fractions -> one group).
        n2 = self._n * self._n
        self._levels = []
        self._level_of_key = np.full(n2, -1, dtype=np.int8)
        for lv in plan.levels.values():
            row_of_key = np.zeros(n2, dtype=np.int64)
            row_of_key[lv.keys] = np.arange(lv.n_pairs, dtype=np.int64)
            self._level_of_key[lv.keys] = len(self._levels)
            links_flat = lv.links.reshape(lv.n_pairs, lv.width)
            if lv.pair_weights is not None:
                # Masked (degraded) plan: weights differ per pair, so no
                # column structure to exploit — one weighted bincount.
                self._levels.append(
                    (row_of_key, links_flat, None, lv.pair_link_weights())
                )
                continue
            # Merge (path, hop) columns that name the same link for
            # *every* pair — e.g. all paths share the terminal links when
            # w_1 = 1, and UMULTI's full fan-out shares each level-l link
            # among W(k)/W(l+1) paths.  Their weights add.
            keep, inverse = _duplicate_columns(links_flat)
            links_flat = np.ascontiguousarray(links_flat[:, keep])
            col_weights = np.bincount(inverse, weights=lv.link_weights)
            width = links_flat.shape[1]
            groups = []
            for w in np.unique(col_weights):
                cols = np.flatnonzero(col_weights == w)
                groups.append((float(w), None if len(cols) == width
                               else cols))
            self._levels.append((row_of_key, links_flat, groups, None))

    @property
    def label(self) -> str:
        return self.plan.label

    def _gather(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat incidence indices for the CSR rows ``keys`` (in order),
        plus each row's entry count.  Self-pairs are empty rows and so
        vanish here — no masking needed."""
        starts = self._indptr[keys]
        counts = self._row_counts[keys]
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        idx = (np.arange(total, dtype=np.int64)
               + np.repeat(starts - (ends - counts), counts))
        return idx, counts

    # -- single traffic matrix ----------------------------------------
    def link_loads(self, tm: TrafficMatrix) -> np.ndarray:
        """Directed-link load vector for ``tm`` — parity with the
        reference :func:`repro.flow.loads.link_loads` to 1e-9."""
        if tm.n_procs != self._n:
            raise ValueError(
                f"traffic matrix is over {tm.n_procs} nodes but plan was "
                f"compiled for {self._n}"
            )
        keys = tm.src * self._n + tm.dst
        idx, counts = self._gather(keys)
        weights = self._link_weights[idx] * np.repeat(tm.amount, counts)
        return np.bincount(self._link_ids[idx], weights=weights,
                           minlength=self._n_links).astype(np.float64)

    # -- permutation batches ------------------------------------------
    def _batch_loads(self, perms: np.ndarray) -> np.ndarray:
        """(B, n_links) load matrix for unit-traffic permutations."""
        b, n = perms.shape
        keys = (np.arange(n, dtype=np.int64)[None, :] * n + perms).ravel()
        bases = (np.repeat(np.arange(b, dtype=np.int64), n) * self._n_links)
        lvl = self._level_of_key[keys]
        total = b * self._n_links
        loads = np.zeros(total)
        for i, (row_of_key, links_flat, groups, pair_w) in enumerate(self._levels):
            sel = lvl == i
            if not sel.any():
                continue
            rows = row_of_key[keys[sel]]
            combined = links_flat[rows] + bases[sel][:, None]
            if groups is None:  # masked plan: per-pair weights
                loads += np.bincount(combined.ravel(),
                                     weights=pair_w[rows].ravel(),
                                     minlength=total)
                continue
            for weight, cols in groups:
                flat = (combined if cols is None else combined[:, cols]).ravel()
                loads += weight * np.bincount(flat, minlength=total)
        return loads.reshape(b, self._n_links)

    def permutation_mloads(self, perms: np.ndarray) -> np.ndarray:
        """MLOAD of each unit-traffic permutation in ``perms``.

        ``perms`` is a ``(B, n_procs)`` int array (each row a permutation
        of ``0..n-1``; fixed points allowed, they carry no traffic).
        Evaluated in chunks sized so the scratch load matrix stays within
        a fixed budget.
        """
        perms = np.atleast_2d(np.asarray(perms, dtype=np.int64))
        b = perms.shape[0]
        if perms.shape[1] != self._n:
            raise ValueError(
                f"permutations are over {perms.shape[1]} nodes but plan was "
                f"compiled for {self._n}"
            )
        out = np.empty(b, dtype=np.float64)
        if self._n_links == 0 or b == 0:
            out[:] = 0.0
            return out
        rec = get_recorder()
        chunk = max(1, _BATCH_BUDGET // self._n_links)
        with rec.timer("flow.batch_eval"):
            for i in range(0, b, chunk):
                out[i:i + chunk] = self._batch_loads(perms[i:i + chunk]).max(axis=1)
        if rec.enabled:
            rec.count("flow.batch_permutations", b)
            rec.count("flow.batch_eval_calls")
        return out
