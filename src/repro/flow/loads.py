"""Vectorized per-link load accumulation: the one flow evaluator.

For every SD pair and every path the routing scheme assigns it, the pair's
traffic times the path's fraction is added to each directed link on the
path.  Link ids are closed-form (see DESIGN.md Section 6): a per-pair
part (two cached per-node tables) plus a per-path part.  So a whole
batch of traffic matrices is one scheme query per tree level and one
scatter-add per query, with no per-pair or per-matrix Python loops.  The
scatter-add is the native ``scatter_loads`` (``loads.c``, built by
:mod:`repro.native`), which reads each pair's nodes, amount and path
fractions and adds each weight straight into the load vector; when the
library cannot be built or loaded it is the numpy staging instead: an
``(n, P, 2k)`` link-id tensor, an equally large weight tensor and one
weighted ``np.bincount``.  Both add the same floats to each link in the same
order, so they agree bit for bit.  With the recorder on, each evaluation
is timed as ``flow.kernel`` or ``flow.fallback.no_kernel``.  A compiled
plan (:func:`repro.routing.compiled.compile_scheme`) is read like any
scheme, so both flow engines evaluate here.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterable

import numpy as np

from repro import native
from repro.errors import RoutingError
from repro.obs.recorder import get_recorder
from repro.routing.base import RoutingScheme
from repro.routing.vectorized import (
    pair_part_tables,
    path_index_error,
    path_link_matrix,
    path_link_table,
)
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.permutations import permutation_pairs

#: cap on the widest array one chunk of matrices builds, in entries: its
#: pairs times ``W(h) * 2h`` (without the native library the numpy
#: staging is that wide)
CHUNK_ENTRIES = 1 << 22

# Return codes of scatter_loads, as the SCATTER_* enum in loads.c.
_RC_BAD_PATH = 1
_RC_BAD_LINK = 2
_RC_BAD_NODE = 3


def _level_groups(xgft: XGFT, scheme: RoutingScheme, s_all: np.ndarray,
                  d_all: np.ndarray):
    """Per NCA level with pairs, in level order: ``(k, rows, idx,
    frac)``, the level's rows, their ``(n, P)`` path indices and the
    fraction of a pair's traffic each of those paths carries: one
    ``(P,)`` vector shared by every pair, or ``(n, P)`` per pair."""
    k_arr = xgft.nca_level(s_all, d_all)
    for k in range(1, xgft.h + 1):
        rows = np.flatnonzero(k_arr == k)
        if rows.size:
            # Fault-aware schemes carry per-pair fractions (renormalized
            # around failed paths, 0 on padding entries); pristine schemes
            # share one per-level fraction vector.
            idx, frac = scheme.path_selection(s_all[rows], d_all[rows], k)
            if frac is None:
                frac = scheme.fractions(k)
            yield k, rows, idx, frac


def _scatter(loads: np.ndarray, xgft: XGFT, k: int, s, d, offset, idx,
             amount, frac) -> None:
    """Add ``amount[i] * frac[i, j]`` (``frac[j]`` if shared) to each
    link of level-``k`` path ``idx[i, j]`` from ``s[i]`` to ``d[i]``, ids
    offset by ``offset[i]``, in ``(i, j, link)`` order, natively."""
    idx, s, d, offset = (np.ascontiguousarray(a, dtype=np.int64)
                         for a in (idx, s, d, offset))
    amount, frac = (np.ascontiguousarray(a, dtype=np.float64)
                    for a in (amount, frac))
    up, down = pair_part_tables(xgft, k)
    table = path_link_table(xgft, k)
    # the C loop trusts these shapes and writes into ``loads`` in place
    if (idx.ndim != 2 or frac.shape not in (idx.shape[1:], idx.shape)
            or {a.shape for a in (s, d, offset, amount)} != {idx.shape[:1]}
            or loads.dtype != np.float64 or not loads.flags.c_contiguous):
        raise ValueError("scatter_loads needs an (n, P) index matrix, (P,) "
                         "or (n, P) fractions, n nodes, offsets and amounts "
                         "and a contiguous float64 load vector")
    stride = idx.shape[1] if frac.ndim == 2 else 0  # 0: shared fractions
    bad = ctypes.c_int64()
    rc = native.lib().scatter_loads(
        *idx.shape, k, s.ctypes.data, d.ctypes.data, offset.ctypes.data,
        up.ctypes.data, down.ctypes.data, len(up), table.ctypes.data,
        len(table), idx.ctypes.data, amount.ctypes.data, frac.ctypes.data,
        stride, loads.ctypes.data, loads.size, ctypes.byref(bad))
    if rc == _RC_BAD_PATH:
        raise path_index_error(bad.value, len(table))
    if rc == _RC_BAD_LINK:
        raise RoutingError(f"link id {bad.value} out of range [0, {loads.size})")
    if rc == _RC_BAD_NODE:
        raise RoutingError(f"node id {bad.value} out of range [0, {len(up)})")


def _chunk_loads(xgft: XGFT, scheme: RoutingScheme, pairs: list,
                 out: np.ndarray, kernel: bool) -> None:
    """Fill the zeroed ``(len(pairs), n_links)`` ``out`` with the loads
    of each list of network pairs.  Pairs are grouped by NCA level with
    each list's in its own order and list ``b``'s link ids offset by
    ``b * n_links``.  A link lies in one (level, direction) column, so it
    receives its contributions in the same order as when its list is
    evaluated alone, on either path."""
    n_links = xgft.n_links
    s_all, d_all, amount = map(np.concatenate, zip(*pairs))
    offset = np.repeat(np.arange(len(pairs)) * n_links,
                       [len(s) for s, _, _ in pairs])
    groups = _level_groups(xgft, scheme, s_all, d_all)
    if kernel:
        for k, rows, idx, frac in groups:
            _scatter(out.reshape(-1), xgft, k, s_all[rows], d_all[rows],
                     offset[rows], idx, amount[rows], frac)
        return
    groups = list(groups)
    size = sum(idx.size * 2 * k for k, _, idx, _ in groups)
    ids, weights = np.empty(size, dtype=np.int64), np.empty(size)
    start = 0
    for k, rows, idx, frac in groups:
        stop, shape = start + idx.size * 2 * k, (*idx.shape, 2 * k)
        path_link_matrix(xgft, s_all[rows], d_all[rows], idx, k,
                         offset=offset[rows], out=ids[start:stop].reshape(shape))
        weights[start:stop].reshape(shape)[...] = (
            amount[rows][:, None] * frac)[:, :, None]
        start = stop
    out.reshape(-1)[:] = np.bincount(ids, weights=weights, minlength=out.size)


def _loads(xgft: XGFT, scheme: RoutingScheme, pairs: list,
           kernel: bool) -> np.ndarray:
    """``(len(pairs), n_links)`` loads of each ``(src, dst, amount)``
    list of network pairs, on the native path if ``kernel``.  Lists are
    evaluated in chunks of whole lists that stay within
    :data:`CHUNK_ENTRIES` unless one list alone exceeds it."""
    sizes = [len(s) * xgft.max_paths * 2 * xgft.h for s, _, _ in pairs]
    loads = np.zeros((len(pairs), xgft.n_links))
    start = 0
    while start < len(pairs):
        stop, entries = start + 1, sizes[start]
        while stop < len(pairs) and entries + sizes[stop] <= CHUNK_ENTRIES:
            entries += sizes[stop]
            stop += 1
        _chunk_loads(xgft, scheme, pairs[start:stop], loads[start:stop],
                     kernel)
        start = stop
    return loads


def _evaluate(xgft: XGFT, scheme: RoutingScheme, pairs: list) -> np.ndarray:
    """:func:`_loads` on the native path when the library loads, timed as
    ``flow.kernel``, else on the numpy path, timed as
    ``flow.fallback.no_kernel``."""
    kernel = native.available()
    with get_recorder().timer(
            "flow.kernel" if kernel else "flow.fallback.no_kernel"):
        return _loads(xgft, scheme, pairs, kernel)


def kernels_ran(timers: dict) -> str | None:
    """What the evaluations timed in ``timers`` (a recorder's ``name ->
    (seconds, calls)``) executed: ``"native"``, ``"numpy: <why>"``, or
    both joined by ``"; "``; None when none was timed."""
    return native.kernels_ran(timers, "flow", "numpy", {"no_kernel": None})


def link_loads(
    xgft: XGFT, scheme: RoutingScheme,
    tm: TrafficMatrix | Iterable[TrafficMatrix],
) -> np.ndarray:
    """Directed-link loads produced by routing traffic with ``scheme``.

    One traffic matrix gives a vector of length ``xgft.n_links``; a
    sequence (any iterable) of ``B`` matrices gives a ``(B, n_links)``
    matrix whose row ``b`` equals the one-matrix call on ``tm[b]`` bit
    for bit.  Self-pairs carry no network traffic and are ignored.
    Matrices are evaluated in chunks of whole matrices that stay within
    :data:`CHUNK_ENTRIES` unless one matrix alone exceeds it.  A path
    index outside ``[0, W(k))`` raises
    :class:`~repro.errors.RoutingError`.
    """
    matrices = [tm] if isinstance(tm, TrafficMatrix) else list(tm)
    for m in matrices:
        if m.n_procs != xgft.n_procs:
            raise ValueError(
                f"traffic matrix is over {m.n_procs} nodes but topology has "
                f"{xgft.n_procs}"
            )
    loads = _evaluate(xgft, scheme, [m.network_pairs() for m in matrices])
    return loads[0] if isinstance(tm, TrafficMatrix) else loads


def permutation_mloads(
    xgft: XGFT, scheme: RoutingScheme, perms: np.ndarray,
) -> np.ndarray:
    """MLOAD of each unit-traffic permutation in ``perms``.

    ``perms`` is a ``(B, n_procs)`` int array (one permutation also
    works); fixed points carry no traffic.  Each row's pairs go to the
    evaluator as they are
    (:func:`~repro.traffic.permutations.permutation_pairs`), with no
    traffic matrix built; the batch is one evaluation, timed as
    ``flow.batch_eval``.
    """
    perms = np.atleast_2d(np.asarray(perms, dtype=np.int64))
    if perms.shape[1] != xgft.n_procs:
        raise ValueError(
            f"permutations are over {perms.shape[1]} nodes but topology has "
            f"{xgft.n_procs}"
        )
    rec = get_recorder()
    with rec.timer("flow.batch_eval"):
        loads = _evaluate(xgft, scheme, permutation_pairs(perms))
    if rec.enabled:
        rec.count("flow.batch_permutations", len(perms))
        rec.count("flow.batch_eval_calls")
    return loads.max(axis=1, initial=0.0)
