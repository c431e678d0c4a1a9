"""Batch path-to-link computation and the flit route table.

Converts matrices of path indices into matrices of directed link ids with
one gather and one add, mirroring the closed forms used by
:func:`repro.routing.path.build_path` (which remains the readable scalar
reference; tests assert both agree): a link id is a per-pair part (two
per-node tables, :func:`pair_part_tables`) plus a per-path part
(:func:`path_link_table`).  The flow evaluator's native scatter-add and
the fault liveness tables read the tables directly.
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


class RouteTable(Mapping):
    """Every pair's paths as one CSR over pair keys ``src * n + dst``.

    Three int64 arrays:

    * ``pair_ptr`` (``n_keys + 1``): pair key ``q`` owns path ids
      ``pair_ptr[q]:pair_ptr[q + 1]``, in the scheme's path order;
    * ``path_ptr`` (``n_paths + 1``): path id ``p`` owns link offsets
      ``path_ptr[p]:path_ptr[p + 1]``;
    * ``links``: directed link (channel) ids in traversal order.

    The batched flit engine's kernel reads the three arrays directly.
    Read as a :class:`~collections.abc.Mapping` — the reference
    engine's view — ``table[key]`` is the pair's list of link-id tuples,
    and the keys are the pairs that have at least one path.

    >>> table = RouteTable.from_mapping({1: [(0,), (1, 2)]}, n_keys=4)
    >>> table.pair_ptr.tolist(), table.path_ptr.tolist(), table.links.tolist()
    ([0, 0, 2, 2, 2], [0, 1, 3], [0, 1, 2])
    >>> dict(table)
    {1: [(0,), (1, 2)]}
    """

    def __init__(self, pair_ptr: np.ndarray, path_ptr: np.ndarray,
                 links: np.ndarray):
        self.pair_ptr = pair_ptr
        self.path_ptr = path_ptr
        self.links = links

    def __repr__(self) -> str:
        return (f"RouteTable(pairs={len(self)}, paths={self.n_paths}, "
                f"links={self.links.size})")

    @property
    def n_paths(self) -> int:
        return self.path_ptr.size - 1

    @classmethod
    def from_blocks(cls, n_keys: int, blocks: list[tuple]) -> "RouteTable":
        """Scatter fixed-shape path blocks into one table.

        Each block is ``(keys, keep, links)``: ``n`` distinct pair keys,
        an ``(n, P)`` boolean mask of the paths to keep, and the
        ``(n, P, L)`` link ids of all ``P`` paths.  Blocks are written at
        their pairs' offsets, so their order does not matter and nothing
        is sorted.
        """
        counts = np.zeros(n_keys, dtype=np.int64)
        width = np.zeros(n_keys, dtype=np.int64)
        for keys, keep, links in blocks:
            counts[keys] = keep.sum(axis=1)
            width[keys] = links.shape[2]
        pair_ptr = _offsets(counts)
        path_ptr = _offsets(np.repeat(width, counts))
        out = np.empty(int(path_ptr[-1]), dtype=np.int64)
        for keys, keep, links in blocks:
            # a kept path's rank is the number of kept paths before it
            ids = (pair_ptr[keys][:, None] + np.cumsum(keep, axis=1) - 1)[keep]
            out[path_ptr[ids][:, None] + np.arange(links.shape[2])] = links[keep]
        return cls(pair_ptr, path_ptr, out)

    @classmethod
    def from_mapping(cls, routes: Mapping[int, Sequence[Sequence[int]]],
                     n_keys: int) -> "RouteTable":
        """Convert ``{key: [path, ...]}`` with paths of any length.

        A key outside ``[0, n_keys)`` raises :class:`KeyError`; a key
        with an empty path list is the same as an absent key.
        """
        items = sorted(routes.items())
        keys = np.array([key for key, _ in items], dtype=np.int64)
        bad = (keys < 0) | (keys >= n_keys)
        if bad.any():
            raise KeyError(keys[bad.argmax()].item())
        counts = np.zeros(n_keys, dtype=np.int64)
        counts[keys] = [len(paths) for _, paths in items]
        paths = [path for _, pair_paths in items for path in pair_paths]
        path_ptr = _offsets(np.fromiter(map(len, paths), dtype=np.int64,
                                        count=len(paths)))
        links = np.fromiter(chain.from_iterable(paths), dtype=np.int64,
                            count=int(path_ptr[-1]))
        return cls(_offsets(counts), path_ptr, links)

    # -- Mapping view ----------------------------------------------------
    def __getitem__(self, key) -> list[tuple[int, ...]]:
        if not 0 <= key < self.pair_ptr.size - 1:
            raise KeyError(key)
        lo, hi = self.pair_ptr[key:key + 2].tolist()
        if lo == hi:
            raise KeyError(key)
        ptr = self.path_ptr[lo:hi + 1].tolist()
        base = ptr[0]
        flat = self.links[base:ptr[-1]].tolist()
        return [tuple(flat[a - base:b - base]) for a, b in zip(ptr, ptr[1:])]

    def __iter__(self):
        return iter(np.flatnonzero(np.diff(self.pair_ptr)).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(np.diff(self.pair_ptr)))


def compile_routes(
    xgft: XGFT, scheme: RoutingScheme, pairs: np.ndarray | None = None
) -> RouteTable:
    """Materialize path link sequences for SD pairs.

    Parameters
    ----------
    pairs:
        Optional ``(n, 2)`` array of (src, dst) pairs; defaults to every
        ordered pair with ``src != dst``.

    Returns
    -------
    A :class:`RouteTable` over pair keys ``src * n_procs + dst`` holding
    each pair's paths in the scheme's path order (fractions are
    ``scheme.fractions(k)``).
    """
    n = xgft.n_procs
    if pairs is None:
        grid_s, grid_d = np.divmod(np.arange(n * n, dtype=np.int64), n)
        keep = grid_s != grid_d
        s_all, d_all = grid_s[keep], grid_d[keep]
    else:
        pairs = np.asarray(pairs, dtype=np.int64)
        s_all, d_all = pairs[:, 0], pairs[:, 1]
        if np.any(s_all == d_all):
            raise ValueError("self-pairs have no network route")

    blocks = []
    k_arr = xgft.nca_level(s_all, d_all)
    for k in range(1, xgft.h + 1):
        mask = k_arr == k
        if not mask.any():
            continue
        s, d = s_all[mask], d_all[mask]
        idx, pair_w = scheme.path_selection(s, d, k)
        # Fault-aware schemes pad short rows with weight-0 duplicates;
        # concrete path lists must not contain them.
        keep = (np.ones(idx.shape, dtype=bool) if pair_w is None
                else np.asarray(pair_w) > 0.0)
        blocks.append((s * n + d, keep, path_link_matrix(xgft, s, d, idx, k)))
    return RouteTable.from_blocks(n * n, blocks)
