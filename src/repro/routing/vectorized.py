"""Batch path-to-link computation and the flit route table.

Converts matrices of path indices into matrices of directed link ids with
one gather and one add, mirroring the closed forms used by
:func:`repro.routing.path.build_path` (which remains the readable scalar
reference; tests assert both agree): a link id is a per-pair part (two
per-node tables, :func:`pair_part_tables`) plus a per-path part
(:func:`path_link_table`).  The flow evaluator's native scatter-add, the
fault liveness tables and the flit kernel read the tables directly.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from repro.errors import RoutingError
from repro.routing.base import RoutingScheme
from repro.routing.enumeration import path_codec
from repro.topology.xgft import XGFT


class LevelPairs(NamedTuple):
    """Pair keys ``s * n_procs + d`` grouped by NCA level (read-only)."""

    #: ``(n_procs**2,)`` int8: each key's NCA level, 0 for self-pairs
    level: np.ndarray
    #: ``(n_procs**2,)`` int64: each key's row within its level, in key
    #: order (0 for self-pairs)
    row: np.ndarray
    #: NCA level with pairs -> the ``(src, dst)`` int64 arrays of its rows
    pairs: Mapping[int, tuple[np.ndarray, np.ndarray]]


@lru_cache(maxsize=8)
def level_pairs(xgft: XGFT) -> LevelPairs:
    """The :class:`LevelPairs` map of ``xgft``, built once per topology.

    >>> from repro.topology import m_port_n_tree
    >>> lp = level_pairs(m_port_n_tree(4, 2))   # 8 hosts, pairs of 2
    >>> key = 1 * 8 + 6                          # the pair (1, 6)
    >>> k, row = int(lp.level[key]), int(lp.row[key])
    >>> k, [int(a[row]) for a in lp.pairs[k]]
    (2, [1, 6])
    """
    n = xgft.n_procs
    src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
    level = xgft.nca_level(src, dst).astype(np.int8)
    row = np.zeros(n * n, dtype=np.int64)
    pairs = {}
    for k in range(1, xgft.h + 1):
        keys = np.flatnonzero(level == k)
        if keys.size:
            row[keys] = np.arange(keys.size)
            pairs[k] = (src[keys], dst[keys])
    for table in (level, row, *chain.from_iterable(pairs.values())):
        table.setflags(write=False)
    return LevelPairs(level, row, MappingProxyType(pairs))


@lru_cache(maxsize=512)
def path_link_table(xgft: XGFT, k: int) -> np.ndarray:
    """Read-only ``(W(k), 2k)`` path part of each level-``k`` path's link
    ids: with up ports ``p_l`` and ``low_l = sum_{j<l} p_j W(j)``, its
    level-``l`` up link gets ``low_l w_l + p_l`` and its down link
    ``m_l low_{l+1}``; the rest of each id is :func:`pair_link_part`."""
    codec = path_codec(xgft, k)
    t = np.arange(codec.num_paths, dtype=np.int64)
    table = np.empty((t.size, 2 * k), dtype=np.int64)
    low = np.zeros_like(t)
    for l in range(k):
        port = codec.port_array(t, l)
        table[:, l] = low * xgft.w[l] + port
        low = low + port * xgft.W(l)
        table[:, 2 * k - 1 - l] = xgft.m[l] * low  # down-links run top-down
    table.setflags(write=False)
    return table


@lru_cache(maxsize=512)
def pair_part_tables(xgft: XGFT, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(n_procs, k)`` ``(up, down)`` tables of the pair part
    of level-``k`` link ids: a path from ``s`` to ``d`` has pair part
    ``up[s]`` on its ``k`` up links and ``down[d]`` on its ``k`` down
    links, in traversal order (see :func:`pair_link_part`)."""
    x = np.arange(xgft.n_procs, dtype=np.int64)
    up, down = np.empty((2, x.size, k), dtype=np.int64)
    for l in range(k):
        up[:, l] = xgft.up_link_id(l, xgft.W(l) * (x // xgft.M(l)), 0)
        down[:, k - 1 - l] = xgft.down_link_id(
            l, xgft.W(l + 1) * (x // xgft.M(l + 1)),
            (x // xgft.M(l)) % xgft.m[l])
    for table in (up, down):
        table.setflags(write=False)
    return up, down


def pair_link_part(xgft: XGFT, s: np.ndarray, d: np.ndarray, k: int,
                   offset=0) -> np.ndarray:
    """``(n, 2k)`` int64 pair part of the link ids of every level-``k``
    path from ``s[i]`` to ``d[i]``, plus ``offset`` (a scalar or length
    n): path ``t``'s ids are this row plus ``path_link_table(xgft, k)[t]``.
    """
    up, down = pair_part_tables(xgft, k)
    pair = np.concatenate((up[s], down[d]), axis=1)
    return pair + np.reshape(offset, (-1, 1))


def path_index_error(t: int, num_paths: int) -> RoutingError:
    """The error for a path index outside ``[0, num_paths)``."""
    return RoutingError(f"path index {t} out of range [0, {num_paths})")


def check_path_indices(idx, num_paths: int) -> np.ndarray:
    """``idx`` as an array, after raising :func:`path_index_error` for
    its first entry outside ``[0, num_paths)``."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= num_paths):
        raise path_index_error(
            idx[(idx < 0) | (idx >= num_paths)][0], num_paths)
    return idx


def path_link_matrix(
    xgft: XGFT, s: np.ndarray, d: np.ndarray, idx: np.ndarray, k: int,
    *, offset=0, out: np.ndarray | None = None,
) -> np.ndarray:
    """Link ids of every path in ``idx``.

    Parameters
    ----------
    s, d:
        1-D arrays (length n) of processing-node ids with NCA level ``k``.
    idx:
        ``(n, P)`` path-index matrix; an index outside ``[0, W(k))``
        raises :class:`~repro.errors.RoutingError`.
    offset, out:
        Added to every id of a pair (a scalar or length n); an optional
        C-contiguous ``(n, P, 2k)`` int64 array to fill.

    Returns
    -------
    ``(n, P, 2k)`` int64 array: for each pair and path, the ``k`` up-link
    ids followed by the ``k`` down-link ids, in traversal order.
    """
    table = path_link_table(xgft, k)
    idx = check_path_indices(idx, len(table))
    pair = pair_link_part(xgft, s, d, k, offset)
    # mode "raise" would fill ``out`` through a buffer; "wrap" does not,
    # and every index is in range
    out = np.take(table, idx, axis=0, out=out, mode="wrap")
    out += pair[:, None, :]
    return out


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR pointer array: ``[0, cumsum(counts)...]``."""
    ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


class RouteBlock(NamedTuple):
    """The rows of one :class:`RouteTable` block: each row picks its
    paths from one CSR path table, and a path's link ids are its entries
    there plus, when the block has a pair part, the row's source's and
    destination's entries in ``up`` and ``down``."""

    #: ``(rows, P)`` int64: each row's path ids, in the scheme's order
    idx: np.ndarray
    #: ``(rows,)`` int64: each row's live paths, the first ``live[r]``
    #: entries of its ``idx`` row; None when every row uses all ``P``
    live: np.ndarray | None
    #: ``(paths + 1,)`` int64: path ``t`` owns
    #: ``links[path_ptr[t]:path_ptr[t + 1]]``
    path_ptr: np.ndarray
    #: int64 link ids (the path part, with a pair part), traversal order
    links: np.ndarray
    #: ``(n_procs, k)`` int64 pair part of a path's first ``k`` links, by
    #: source, and of its last ``k`` links, by destination; both None
    #: when the path table holds whole link ids
    up: np.ndarray | None
    down: np.ndarray | None


class RouteTable(Mapping):
    """Every pair's paths, kept as path ids over shared path tables.

    Pair key ``q = src * n_procs + dst`` is row ``row[q]`` of block
    ``level[q]`` of :attr:`blocks`; ``level[q] == 0`` means the pair has
    no route.  A table :func:`compile_routes` builds has one block per
    NCA level ``k``: its rows are :func:`level_pairs`'s level-``k`` pairs,
    its path ids the scheme's selection, its path table
    :func:`path_link_table` (``path_ptr = 2k * arange(W(k) + 1)``) and its
    pair part :func:`pair_part_tables`, so the table holds nothing per
    path link.  :meth:`from_mapping` makes one block of explicit paths.

    The batched flit engine's kernel reads the blocks directly and
    writes each packet's links as it picks the packet's path.  Read as a
    :class:`~collections.abc.Mapping` (the reference engine's view),
    ``table[key]`` builds the pair's list of link-id tuples, and the
    keys are the pairs with a route.

    >>> table = RouteTable.from_mapping({1: [(0,), (1, 2)]}, n_keys=4)
    >>> dict(table)
    {1: [(0,), (1, 2)]}
    >>> block = table.blocks[1]
    >>> block.idx.tolist(), block.path_ptr.tolist(), block.links.tolist()
    ([[0, 1]], [0, 1, 3], [0, 1, 2])
    """

    def __init__(self, level: np.ndarray, row: np.ndarray,
                 blocks: Mapping[int, RouteBlock]):
        self.level = level
        self.row = row
        self.blocks = blocks

    def __repr__(self) -> str:
        return f"RouteTable(pairs={len(self)}, blocks={sorted(self.blocks)})"

    @classmethod
    def from_mapping(cls, routes: Mapping[int, Sequence[Sequence[int]]],
                     n_keys: int) -> "RouteTable":
        """One block of ``{key: [path, ...]}``, paths of any length.  Its
        path table is the paths themselves, in key order, and it has no
        pair part.

        A key outside ``[0, n_keys)`` raises :class:`KeyError`; a key
        with an empty path list is the same as an absent key.
        """
        items = sorted(routes.items())
        keys = np.array([key for key, _ in items], dtype=np.int64)
        bad = (keys < 0) | (keys >= n_keys)
        if bad.any():
            raise KeyError(keys[bad.argmax()].item())
        counts = np.array([len(paths) for _, paths in items], dtype=np.int64)
        keys, counts = keys[counts > 0], counts[counts > 0]
        first = _offsets(counts)[:-1]
        # padding repeats a row's first path, as fault-aware rows do
        cols = np.arange(counts.max(initial=1))
        idx = first[:, None] + np.where(cols < counts[:, None], cols, 0)
        paths = [path for _, pair_paths in items for path in pair_paths]
        path_ptr = _offsets(np.fromiter(map(len, paths), dtype=np.int64,
                                        count=len(paths)))
        links = np.fromiter(chain.from_iterable(paths), dtype=np.int64,
                            count=int(path_ptr[-1]))
        level = np.zeros(n_keys, dtype=np.int8)
        level[keys] = 1
        row = np.zeros(n_keys, dtype=np.int64)
        row[keys] = np.arange(keys.size)
        block = RouteBlock(idx, counts, path_ptr, links, None, None)
        return cls(level, row, {1: block} if keys.size else {})

    # -- Mapping view ----------------------------------------------------
    def __getitem__(self, key) -> list[tuple[int, ...]]:
        if not 0 <= key < self.level.size or not self.level[key]:
            raise KeyError(key)
        block = self.blocks[int(self.level[key])]
        r = self.row[key]
        ids = block.idx[r, :None if block.live is None else block.live[r]]
        ptr = block.path_ptr
        paths = [block.links[ptr[t]:ptr[t + 1]] for t in ids.tolist()]
        if block.up is not None:  # (n_procs, k)
            s, d = divmod(key, len(block.up))
            pair = np.concatenate((block.up[s], block.down[d]))
            paths = [path + pair for path in paths]
        return [tuple(path.tolist()) for path in paths]

    def __iter__(self):
        return iter(np.flatnonzero(self.level).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.level))


def compile_routes(xgft: XGFT, scheme: RoutingScheme) -> RouteTable:
    """The flit :class:`RouteTable` of ``scheme`` on ``xgft``.

    Per NCA level ``k`` it keeps the ``(n_k, P)`` selection
    ``scheme.path_selection`` returns over :func:`level_pairs`'s pairs,
    as is, after checking every index against ``W(k)``.  A fault-aware
    scheme pads a row short of ``P`` live paths with weight-0 entries at
    its end; the row's live count leaves them out.  The path and pair
    parts are the cached :func:`path_link_table` and
    :func:`pair_part_tables`, so the table adds nothing per pair beyond
    the selection.
    """
    pairs = level_pairs(xgft)
    blocks = {}
    for k, (s, d) in pairs.pairs.items():
        idx, weights = scheme.path_selection(s, d, k)
        idx = check_path_indices(idx, xgft.W(k))
        live = None
        if weights is not None:
            kept = np.asarray(weights) > 0.0
            live = kept.sum(axis=1)
            # select_surviving pads at the end of a row, so the kept
            # paths are each row's first live[r]
            if not (kept == (np.arange(kept.shape[1]) < live[:, None])).all():
                raise RoutingError(
                    f"{scheme.label}: weight-0 padding does not end every "
                    f"level-{k} row")
        path = path_link_table(xgft, k)
        blocks[k] = RouteBlock(idx, live, 2 * k * np.arange(len(path) + 1),
                               path.reshape(-1), *pair_part_tables(xgft, k))
    return RouteTable(pairs.level, pairs.row, blocks)
