"""Compiled routing plans: route construction split from traffic evaluation.

A :class:`~repro.routing.base.RoutingScheme` is, by contract, a pure
function of the SD pair — yet the flow evaluator used to re-run
``path_index_matrix`` and the closed-form link-id arithmetic for every
traffic matrix.  :func:`compile_scheme` performs that work exactly once,
materializing per NCA level

* the dense ``(n_pairs, P)`` path-index matrix for every ordered pair at
  that level, and
* the per-pair link incidence: the ``(n_pairs, P, 2k)`` directed-link-id
  tensor plus the per-entry traffic weights ``f_p`` (the path fractions,
  each repeated over its ``2k`` links),

and flattens the lot into one CSR-style incidence over pair keys
``s * n_procs + d``: ``indptr`` (length ``n_procs**2 + 1``), ``link_ids``
and ``link_weights``.  Self-pairs are empty rows, so evaluators need no
fixed-point masking.  Evaluating a traffic matrix is then a single
gather + ``np.bincount`` (see :class:`repro.flow.engine.BatchFlowEngine`),
and the same per-level link blocks back the flit route tables
(:meth:`CompiledScheme.route_table`) and the InfiniBand LFT compiler
(which only needs :meth:`CompiledScheme.path_index_matrix`).

A compiled plan carries only NumPy arrays and the topology's ``(h, m, w)``
tuples, so it pickles cheaply and ships to pool workers as-is.

Memory scales as ``O(n_procs**2 * K * h)`` — fine for the benchmark and
test topologies (hundreds of nodes) and for the paper's 512-node panels;
on the 3456-node panels with large ``K`` prefer the reference engine or
budget a few GB.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import RoutingError
from repro.obs.recorder import get_recorder
from repro.routing.base import RoutingScheme
from repro.routing.vectorized import RouteTable, path_link_matrix
from repro.topology.xgft import XGFT


@dataclass(frozen=True)
class LinkPairIndex:
    """Transposed incidence: directed link id -> ordered-pair keys.

    The inverse of the pair->link CSR a compiled plan stores: for every
    directed link, the sorted unique keys ``s * n_procs + d`` of the
    pairs whose indexed paths traverse it.  This is the delta structure
    incremental re-routing reads — when a link flips dead/alive, only
    the pairs in its row can change their selection
    (:mod:`repro.faults.churn`).
    """

    n_links: int
    indptr: np.ndarray     # (n_links + 1,) int64
    pair_keys: np.ndarray  # (nnz,) int64, sorted within each link's slice

    @property
    def nnz(self) -> int:
        return int(self.pair_keys.size)

    def pairs_of(self, link_id: int) -> np.ndarray:
        """Pair keys incident on one directed link (sorted)."""
        return self.pair_keys[self.indptr[link_id]:self.indptr[link_id + 1]]

    def pairs(self, link_ids) -> np.ndarray:
        """Sorted unique pair keys incident on *any* of ``link_ids``."""
        link_ids = np.atleast_1d(np.asarray(link_ids, dtype=np.int64))
        if link_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        chunks = [self.pairs_of(int(l)) for l in link_ids]
        return np.unique(np.concatenate(chunks))


def _transpose_incidence(
    n_links: int, n_procs: int, entry_links: np.ndarray,
    entry_keys: np.ndarray,
) -> LinkPairIndex:
    """Build a :class:`LinkPairIndex` from flat (link, pair-key) entries.

    Duplicate (link, pair) incidences — several paths of one pair
    sharing a link — collapse to a single entry.
    """
    span = n_procs * n_procs
    combo = np.sort(entry_links.astype(np.int64) * span
                    + entry_keys.astype(np.int64))
    combo = combo[np.diff(combo, prepend=-1) > 0]  # entries are >= 0
    links, keys = np.divmod(combo, span)
    indptr = np.zeros(n_links + 1, dtype=np.int64)
    np.cumsum(np.bincount(links, minlength=n_links), out=indptr[1:])
    return LinkPairIndex(n_links, indptr, keys)


#: per-topology memo for :func:`candidate_link_index` (a handful of
#: topologies per process; the index itself is O(total candidate links))
_CANDIDATE_INDEX_CACHE: dict[XGFT, LinkPairIndex] = {}


def candidate_link_index(xgft: XGFT) -> LinkPairIndex:
    """Link -> pairs over every *candidate* path of every pair.

    Scheme-independent: a pair with NCA level ``k`` has ``W(k)``
    candidate shortest paths (ALLPATHS), and any scheme's
    ``path_order_matrix`` is a permutation of them — so this index is a
    sound over-approximation of "pairs whose selection can change when
    this link flips", for both failures (a selected path dies) and
    repairs (a preferred path resurrects).  Memoized per topology.
    """
    cached = _CANDIDATE_INDEX_CACHE.get(xgft)
    if cached is not None:
        return cached
    n = xgft.n_procs
    keys_all = np.arange(n * n, dtype=np.int64)
    s_all, d_all = np.divmod(keys_all, n)
    k_arr = xgft.nca_level(s_all, d_all)
    entry_links = [np.empty(0, dtype=np.int64)]
    entry_keys = [np.empty(0, dtype=np.int64)]
    for k in range(1, xgft.h + 1):
        mask = k_arr == k
        if not mask.any():
            continue
        s, d, keys = s_all[mask], d_all[mask], keys_all[mask]
        x = xgft.W(k)
        idx = np.broadcast_to(np.arange(x, dtype=np.int64), (len(s), x))
        links = path_link_matrix(xgft, s, d, idx, k)
        entry_links.append(links.reshape(-1))
        entry_keys.append(np.repeat(keys, x * 2 * k))
    index = _transpose_incidence(xgft.n_links, n, np.concatenate(entry_links),
                                 np.concatenate(entry_keys))
    _CANDIDATE_INDEX_CACHE[xgft] = index
    return index


@dataclass(frozen=True)
class CompiledLevel:
    """All ordered SD pairs whose NCA sits at one level, fully routed.

    Rows are sorted by pair key ``s * n_procs + d``; every row has the
    same width (``P`` paths of ``2k`` links each), so lookups are a
    ``searchsorted`` and gathers are plain fancy indexing.
    """

    k: int
    src: np.ndarray          # (n_pairs,) int64
    dst: np.ndarray          # (n_pairs,) int64
    keys: np.ndarray         # (n_pairs,) int64, sorted: src * n_procs + dst
    path_index: np.ndarray   # (n_pairs, P) int64
    links: np.ndarray        # (n_pairs, P, 2k) int64 directed link ids
    fractions: np.ndarray    # (P,) float64, sums to 1 (nominal when masked)
    link_weights: np.ndarray  # (P * 2k,) float64: fractions repeated per link
    #: per-pair fractions (n_pairs, P) for masked (fault-aware) plans —
    #: rows sum to 1 with zeros on dead-path padding; None when the
    #: shared ``fractions`` vector applies to every pair.
    pair_weights: np.ndarray | None = None

    @property
    def n_pairs(self) -> int:
        return len(self.keys)

    @property
    def width(self) -> int:
        """Incidence entries per pair (``P * 2k``)."""
        return self.link_weights.size

    @property
    def masked(self) -> bool:
        """True when the plan carries per-pair (degraded) weights."""
        return self.pair_weights is not None

    def pair_link_weights(self) -> np.ndarray:
        """``(n_pairs, P * 2k)`` per-entry weights (materialized view)."""
        if self.pair_weights is None:
            return np.broadcast_to(self.link_weights, (self.n_pairs, self.width))
        return np.repeat(self.pair_weights, 2 * self.k, axis=1)


class CompiledScheme:
    """A routing scheme materialized against its topology.

    Duck-types the read-only :class:`~repro.routing.base.RoutingScheme`
    query surface (``path_index_matrix`` / ``fractions`` /
    ``paths_per_pair`` / ``label`` / ``xgft``), serving every query from
    the precomputed tables — so it can stand in for the scheme anywhere
    routes are *read* (the reference evaluator, the LFT compiler) while
    the batch engine consumes the CSR incidence directly.
    """

    def __init__(
        self,
        xgft: XGFT,
        label: str,
        scheme_name: str,
        levels: dict[int, CompiledLevel],
        indptr: np.ndarray,
        link_ids: np.ndarray,
        link_weights: np.ndarray,
    ):
        self.xgft = xgft
        self.label = label
        self.scheme_name = scheme_name
        self.levels = levels
        self.indptr = indptr
        self.link_ids = link_ids
        self.link_weights = link_weights
        self._link_index: LinkPairIndex | None = None

    def __repr__(self) -> str:
        return (f"CompiledScheme({self.label!r}, {self.xgft!r}, "
                f"pairs={self.n_pairs}, nnz={self.nnz})")

    # -- size accounting ----------------------------------------------
    @property
    def n_pairs(self) -> int:
        """Ordered SD pairs with a route (``n_procs * (n_procs - 1)``)."""
        return sum(lv.n_pairs for lv in self.levels.values())

    @property
    def nnz(self) -> int:
        """Total (pair, link) incidence entries."""
        return int(self.link_ids.size)

    @property
    def nbytes(self) -> int:
        total = self.indptr.nbytes + self.link_ids.nbytes + self.link_weights.nbytes
        for lv in self.levels.values():
            total += lv.path_index.nbytes + lv.links.nbytes + lv.keys.nbytes
            total += lv.src.nbytes + lv.dst.nbytes
            if lv.pair_weights is not None:
                total += lv.pair_weights.nbytes
        return total

    @property
    def masked(self) -> bool:
        """True when any level carries per-pair (degraded) weights."""
        return any(lv.masked for lv in self.levels.values())

    # -- RoutingScheme query surface ----------------------------------
    def paths_per_pair(self, k: int) -> int:
        return self._level(k).path_index.shape[1]

    def fractions(self, k: int) -> np.ndarray:
        return self._level(k).fractions.copy()

    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        """Dense path indices for a batch of level-``k`` pairs, served by
        table lookup (no scheme recomputation)."""
        return self._level(k).path_index[self._rows(k, s, d)]

    def path_weight_matrix(self, s: np.ndarray, d: np.ndarray, k: int):
        """Per-pair fractions for masked (degraded) plans; ``None`` for
        pristine plans, matching the scheme contract."""
        lv = self._level(k)
        if lv.pair_weights is None:
            return None
        return lv.pair_weights[self._rows(k, s, d)]

    def link_index(self) -> LinkPairIndex:
        """The plan's pair->link CSR transposed into link -> pair keys.

        Covers the *selected* paths only (what the plan actually
        routes); for the full candidate set a re-router needs under
        repairs, see :func:`candidate_link_index`.  Built lazily once
        and memoized on the plan.
        """
        if self._link_index is None:
            positions = np.arange(self.nnz, dtype=np.int64)
            entry_keys = np.searchsorted(self.indptr, positions,
                                         side="right") - 1
            self._link_index = _transpose_incidence(
                self.xgft.n_links, self.xgft.n_procs, self.link_ids,
                entry_keys)
        return self._link_index

    # -- lookups -------------------------------------------------------
    def _level(self, k: int) -> CompiledLevel:
        try:
            return self.levels[k]
        except KeyError:
            raise RoutingError(
                f"no pairs with NCA level {k} in compiled plan for {self.xgft!r}"
            ) from None

    def _rows(self, k: int, s, d) -> np.ndarray:
        lv = self._level(k)
        keys = (np.asarray(s, dtype=np.int64) * self.xgft.n_procs
                + np.asarray(d, dtype=np.int64))
        rows = np.searchsorted(lv.keys, keys)
        ok = (rows < lv.n_pairs) & (lv.keys[np.minimum(rows, lv.n_pairs - 1)] == keys)
        if not np.all(ok):
            bad = keys[~np.asarray(ok).reshape(-1)][:1]
            n = self.xgft.n_procs
            raise RoutingError(
                f"pair ({int(bad[0]) // n}, {int(bad[0]) % n}) does not have "
                f"NCA level {k}"
            )
        return rows

    # -- derived tables ------------------------------------------------
    def route_table(self, pairs: np.ndarray | None = None) -> RouteTable:
        """The flit simulator's route table, read off the stored
        incidence (same contract as
        :func:`repro.routing.vectorized.compile_routes`)."""

        def block(lv: CompiledLevel, rows=slice(None)) -> tuple:
            # Masked plans pad short rows with weight-0 duplicates; the
            # flit simulator picks uniformly from a pair's paths, so
            # padding must not reach it.
            links = lv.links[rows]
            keep = (np.ones(links.shape[:2], dtype=bool)
                    if lv.pair_weights is None
                    else lv.pair_weights[rows] > 0.0)
            return lv.keys[rows], keep, links

        n = self.xgft.n_procs
        if pairs is None:
            return RouteTable.from_blocks(
                n * n, [block(lv) for lv in self.levels.values()])
        pairs = np.asarray(pairs, dtype=np.int64)
        s_all, d_all = pairs[:, 0], pairs[:, 1]
        if np.any(s_all == d_all):
            raise ValueError("self-pairs have no network route")
        k_arr = self.xgft.nca_level(s_all, d_all)
        blocks = []
        for k in np.unique(k_arr).tolist():
            mask = k_arr == k
            blocks.append(block(self._level(k),
                                self._rows(k, s_all[mask], d_all[mask])))
        return RouteTable.from_blocks(n * n, blocks)


def compile_scheme(xgft: XGFT, scheme: RoutingScheme) -> CompiledScheme:
    """Compile ``scheme`` against ``xgft`` into a :class:`CompiledScheme`.

    Runs the scheme's vectorized path selection and the closed-form
    link-id arithmetic once for every ordered pair, grouped by NCA level.
    Under an enabled recorder the compile is timed (``routing.compile``)
    and summarized in a ``compile_stats`` event.
    """
    if isinstance(scheme, CompiledScheme):
        if scheme.xgft != xgft:
            raise RoutingError("compiled plan was built for a different topology")
        return scheme
    if scheme.xgft != xgft:
        raise RoutingError("scheme was built for a different topology")
    rec = get_recorder()
    t0 = perf_counter()
    with rec.timer("routing.compile"):
        n = xgft.n_procs
        keys_all = np.arange(n * n, dtype=np.int64)
        s_all = keys_all // n
        d_all = keys_all % n
        k_arr = xgft.nca_level(s_all, d_all)
        counts = np.zeros(n * n, dtype=np.int64)
        levels: dict[int, CompiledLevel] = {}
        for k in range(1, xgft.h + 1):
            mask = k_arr == k
            if not mask.any():
                continue
            s, d, keys = s_all[mask], d_all[mask], keys_all[mask]
            idx = np.asarray(scheme.path_index_matrix(s, d, k), dtype=np.int64)
            links = path_link_matrix(xgft, s, d, idx, k)
            frac = np.asarray(scheme.fractions(k), dtype=np.float64)
            link_w = np.repeat(frac, 2 * k)
            pair_w = scheme.path_weight_matrix(s, d, k)
            if pair_w is not None:
                pair_w = np.ascontiguousarray(pair_w, dtype=np.float64)
            levels[k] = CompiledLevel(k, s, d, keys, idx, links, frac, link_w,
                                      pair_w)
            counts[keys] = link_w.size
        indptr = np.zeros(n * n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        nnz = int(indptr[-1])
        link_ids = np.empty(nnz, dtype=np.int64)
        link_weights = np.empty(nnz, dtype=np.float64)
        for lv in levels.values():
            width = lv.width
            target = indptr[lv.keys][:, None] + np.arange(width, dtype=np.int64)
            link_ids[target] = lv.links.reshape(lv.n_pairs, width)
            link_weights[target] = lv.pair_link_weights()
        plan = CompiledScheme(
            xgft, scheme.label, scheme.name, levels, indptr, link_ids, link_weights
        )
    if rec.enabled:
        rec.count("routing.schemes_compiled")
        rec.event(
            "compile_stats",
            scheme=scheme.label,
            topology=repr(xgft),
            n_pairs=plan.n_pairs,
            nnz=plan.nnz,
            levels=sorted(levels),
            nbytes=plan.nbytes,
            masked=plan.masked,
            seconds=perf_counter() - t0,
        )
    return plan
