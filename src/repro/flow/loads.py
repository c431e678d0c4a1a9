"""Vectorized per-link load accumulation: the one flow evaluator.

For every SD pair and every path the routing scheme assigns it, the pair's
traffic times the path's fraction is added to each directed link on the
path.  Link ids are closed-form (see DESIGN.md Section 6), so a whole
batch of traffic matrices is one scheme query per tree level and one
weighted ``np.bincount`` — no per-pair or per-matrix Python loops.  A
compiled plan (:func:`repro.routing.compiled.compile_scheme`) is read
like any scheme, so both flow engines evaluate here.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.obs.recorder import get_recorder
from repro.routing.base import RoutingScheme
from repro.routing.vectorized import path_link_matrix
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.permutations import permutation_matrix

#: cap on the widest array one chunk of matrices builds, in entries: its
#: pairs times ``W(h) * 2h`` (a degraded scheme's candidate-link matrix
#: and the random heuristic's score matrix are that wide)
CHUNK_ENTRIES = 1 << 22


def _chunk_loads(xgft: XGFT, scheme: RoutingScheme, pairs: list) -> np.ndarray:
    """``(len(pairs), n_links)`` loads of each matrix's network pairs,
    grouped by NCA level with each matrix's in its own order and matrix
    ``b``'s link ids offset by ``b * n_links``.  A link lies in one
    (level, direction) column, so it receives its contributions in the
    same order as when its matrix is evaluated alone."""
    n_links = xgft.n_links
    s_all, d_all, amount = map(np.concatenate, zip(*pairs))
    offset = np.repeat(np.arange(len(pairs)) * n_links,
                       [len(s) for s, _, _ in pairs])
    k_arr = xgft.nca_level(s_all, d_all)
    groups = []
    for k in range(1, xgft.h + 1):
        rows = np.flatnonzero(k_arr == k)
        if rows.size:
            s, d = s_all[rows], d_all[rows]
            idx = scheme.path_index_matrix(s, d, k)  # (n, P)
            # Fault-aware schemes carry per-pair fractions (renormalized
            # around failed paths, 0 on padding entries); pristine schemes
            # share one per-level fraction vector.
            frac = scheme.path_weight_matrix(s, d, k)
            if frac is None:
                frac = scheme.fractions(k)[None, :]
            groups.append((k, rows, idx, amount[rows][:, None] * frac))
    size = sum(idx.size * 2 * k for k, _, idx, _ in groups)
    ids, weights = np.empty(size, dtype=np.int64), np.empty(size)
    start = 0
    for k, rows, idx, weight in groups:
        stop, shape = start + idx.size * 2 * k, (*idx.shape, 2 * k)
        path_link_matrix(xgft, s_all[rows], d_all[rows], idx, k,
                         offset=offset[rows], out=ids[start:stop].reshape(shape))
        weights[start:stop].reshape(shape)[...] = weight[:, :, None]
        start = stop
    loads = np.bincount(ids, weights=weights, minlength=len(pairs) * n_links)
    return loads.reshape(len(pairs), n_links)


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
    :data:`CHUNK_ENTRIES` unless one matrix alone exceeds it.
    """
    matrices = [tm] if isinstance(tm, TrafficMatrix) else list(tm)
    for m in matrices:
        if m.n_procs != xgft.n_procs:
            raise ValueError(
                f"traffic matrix is over {m.n_procs} nodes but topology has "
                f"{xgft.n_procs}"
            )
    pairs = [m.network_pairs() for m in matrices]
    sizes = [len(s) * xgft.max_paths * 2 * xgft.h for s, _, _ in pairs]
    loads = np.empty((len(pairs), xgft.n_links))
    start = 0
    while start < len(pairs):
        stop, entries = start + 1, sizes[start]
        while stop < len(pairs) and entries + sizes[stop] <= CHUNK_ENTRIES:
            entries += sizes[stop]
            stop += 1
        loads[start:stop] = _chunk_loads(xgft, scheme, pairs[start:stop])
        start = stop
    return loads[0] if isinstance(tm, TrafficMatrix) else loads


def permutation_mloads(
    xgft: XGFT, scheme: RoutingScheme, perms: np.ndarray,
) -> np.ndarray:
    """MLOAD of each unit-traffic permutation in ``perms``.

    ``perms`` is a ``(B, n_procs)`` int array (one permutation also
    works); fixed points carry no traffic.  The batch is one
    :func:`link_loads` call, timed as ``flow.batch_eval``.
    """
    perms = np.atleast_2d(np.asarray(perms, dtype=np.int64))
    if perms.shape[1] != xgft.n_procs:
        raise ValueError(
            f"permutations are over {perms.shape[1]} nodes but topology has "
            f"{xgft.n_procs}"
        )
    rec = get_recorder()
    with rec.timer("flow.batch_eval"):
        loads = link_loads(xgft, scheme, map(permutation_matrix, perms))
    if rec.enabled:
        rec.count("flow.batch_permutations", len(perms))
        rec.count("flow.batch_eval_calls")
    return loads.max(axis=1, initial=0.0)
