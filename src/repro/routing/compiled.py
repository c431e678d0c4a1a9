"""Compiled routing plans: a scheme's path selection, run once.

A :class:`~repro.routing.base.RoutingScheme` is, by contract, a pure
function of the SD pair, yet the flow evaluator asks it again for every
batch of traffic matrices.  :func:`compile_scheme` runs that selection
exactly once for every ordered pair and keeps, per NCA level,

* the dense ``(n_pairs, P)`` path-index matrix, and
* for fault-aware (masked) schemes, the ``(n_pairs, P)`` per-pair
  fractions.

The plan reads as a scheme: it serves the read-only query surface from
those tables, so the one flow evaluator
(:func:`repro.flow.loads.link_loads`), the flit route compiler
(:func:`repro.routing.vectorized.compile_routes`) and the InfiniBand LFT
compiler take it in place of the scheme and give bit-identical results.
Link ids are not stored; the readers derive them in closed form.  What
the plan saves is the selection itself, which for a
:class:`~repro.faults.scheme.DegradedScheme` checks the liveness of
every candidate path.

A compiled plan carries only NumPy arrays and the topology's ``(h, m,
w)`` tuples, so it pickles cheaply.  Memory is ``O(n_procs**2 * K)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.errors import RoutingError
from repro.obs.recorder import get_recorder
from repro.routing.base import RoutingScheme
from repro.routing.vectorized import level_pairs
from repro.topology.xgft import XGFT


@dataclass(frozen=True)
class CompiledLevel:
    """The selected paths of every ordered SD pair whose NCA sits at one
    level, one row per pair in pair-key order."""

    k: int
    path_index: np.ndarray   # (n_pairs, P) int64
    fractions: np.ndarray    # (P,) float64, sums to 1 (nominal when masked)
    #: per-pair fractions (n_pairs, P) for masked (fault-aware) plans —
    #: rows sum to 1 with zeros on dead-path padding; None when the
    #: shared ``fractions`` vector applies to every pair.
    pair_weights: np.ndarray | None = None

    @property
    def n_pairs(self) -> int:
        return len(self.path_index)


class CompiledScheme:
    """A routing scheme's path selection, materialized against its
    topology.

    Duck-types the read-only :class:`~repro.routing.base.RoutingScheme`
    query surface (``path_index_matrix`` / ``path_weight_matrix`` /
    ``path_selection`` / ``fractions`` / ``paths_per_pair`` / ``label`` /
    ``xgft``), serving every query from the stored tables, so it stands
    in for the scheme anywhere routes are *read*: the flow evaluator, the
    flit route compiler and the LFT compiler.  A query is two gathers
    over pair keys ``s * n_procs + d``: ``level_of_key`` (the pair's NCA
    level, 0 for self-pairs) and ``row_of_key`` (its row within that
    level), the topology's shared
    :func:`~repro.routing.vectorized.level_pairs` map.
    """

    def __init__(
        self,
        xgft: XGFT,
        label: str,
        scheme_name: str,
        levels: dict[int, CompiledLevel],
        level_of_key: np.ndarray,
        row_of_key: np.ndarray,
    ):
        self.xgft = xgft
        self.label = label
        self.scheme_name = scheme_name
        self.levels = levels
        self.level_of_key = level_of_key
        self.row_of_key = row_of_key

    def __repr__(self) -> str:
        return (f"CompiledScheme({self.label!r}, {self.xgft!r}, "
                f"pairs={self.n_pairs}, path_entries={self.path_entries})")

    # -- size accounting ----------------------------------------------
    @property
    def n_pairs(self) -> int:
        """Ordered SD pairs with a route (``n_procs * (n_procs - 1)``)."""
        return sum(lv.n_pairs for lv in self.levels.values())

    @property
    def path_entries(self) -> int:
        """Stored (pair, path) selections, padding included."""
        return sum(lv.path_index.size for lv in self.levels.values())

    @property
    def nbytes(self) -> int:
        total = self.level_of_key.nbytes + self.row_of_key.nbytes
        for lv in self.levels.values():
            total += lv.path_index.nbytes
            if lv.pair_weights is not None:
                total += lv.pair_weights.nbytes
        return total

    @property
    def masked(self) -> bool:
        """True when any level carries per-pair (degraded) weights."""
        return any(lv.pair_weights is not None for lv in self.levels.values())

    # -- RoutingScheme query surface ----------------------------------
    def paths_per_pair(self, k: int) -> int:
        return self._level(k).path_index.shape[1]

    def fractions(self, k: int) -> np.ndarray:
        return self._level(k).fractions.copy()

    def path_index_matrix(self, s: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
        """Dense path indices for a batch of level-``k`` pairs, served by
        table lookup (no scheme recomputation)."""
        return self.path_selection(s, d, k)[0]

    def path_weight_matrix(self, s: np.ndarray, d: np.ndarray, k: int):
        """Per-pair fractions for masked (degraded) plans; ``None`` for
        pristine plans, matching the scheme contract."""
        return self.path_selection(s, d, k)[1]

    def path_selection(self, s: np.ndarray, d: np.ndarray, k: int):
        """Both of the above from one row lookup."""
        lv = self._level(k)
        rows = self._rows(k, s, d)
        return (lv.path_index[rows],
                None if lv.pair_weights is None else lv.pair_weights[rows])

    # -- lookups -------------------------------------------------------
    def _level(self, k: int) -> CompiledLevel:
        try:
            return self.levels[k]
        except KeyError:
            raise RoutingError(
                f"no pairs with NCA level {k} in compiled plan for {self.xgft!r}"
            ) from None

    def _rows(self, k: int, s, d) -> np.ndarray:
        n = self.xgft.n_procs
        keys = np.asarray(s, dtype=np.int64) * n + np.asarray(d, dtype=np.int64)
        ok = self.level_of_key[keys] == k
        if not ok.all():
            bad = int(keys[~ok][0])
            raise RoutingError(
                f"pair ({bad // n}, {bad % n}) does not have NCA level {k}")
        return self.row_of_key[keys]


def compile_scheme(xgft: XGFT, scheme: RoutingScheme) -> CompiledScheme:
    """Compile ``scheme`` against ``xgft`` into a :class:`CompiledScheme`.

    Runs the scheme's vectorized path selection once for every ordered
    pair, grouped by NCA level.  Under an enabled recorder the compile is
    timed (``routing.compile``) and summarized in a ``compile_stats``
    event.
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
        keys = level_pairs(xgft)
        levels: dict[int, CompiledLevel] = {}
        for k, (s, d) in keys.pairs.items():
            idx, pair_w = scheme.path_selection(s, d, k)
            idx = np.asarray(idx, dtype=np.int64)
            if pair_w is not None:
                pair_w = np.ascontiguousarray(pair_w, dtype=np.float64)
            levels[k] = CompiledLevel(
                k, idx, np.asarray(scheme.fractions(k), dtype=np.float64),
                pair_w)
        plan = CompiledScheme(xgft, scheme.label, scheme.name, levels,
                              keys.level, keys.row)
    if rec.enabled:
        rec.count("routing.schemes_compiled")
        rec.event(
            "compile_stats",
            scheme=scheme.label,
            topology=repr(xgft),
            n_pairs=plan.n_pairs,
            path_entries=plan.path_entries,
            levels=sorted(levels),
            nbytes=plan.nbytes,
            masked=plan.masked,
            seconds=perf_counter() - t0,
        )
    return plan
