"""Permutation traffic.

The paper's flow-level experiments use *permutation traffic*: "each
processing node sends messages to another processing node (possibly
itself)" — i.e. a uniformly random permutation, fixed points allowed, one
unit of traffic per pair.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import TrafficError
from repro.traffic.matrix import TrafficMatrix
from repro.util.rng import as_generator


def random_permutation(n_procs: int, seed=None) -> np.ndarray:
    """A uniformly random permutation of ``0..n_procs-1`` (fixed points
    allowed, matching the paper's model)."""
    rng = as_generator(seed)
    return rng.permutation(n_procs)


def derangement(n_procs: int, seed=None, *, max_tries: int = 1000) -> np.ndarray:
    """A uniformly random permutation without fixed points (every node
    sends to a *different* node), via rejection sampling.

    The acceptance probability tends to ``1/e``, so this terminates
    quickly; ``max_tries`` guards pathological inputs.
    """
    if n_procs == 1:
        raise TrafficError("no derangement exists for a single node")
    rng = as_generator(seed)
    for _ in range(max_tries):
        perm = rng.permutation(n_procs)
        if not np.any(perm == np.arange(n_procs)):
            return perm
    raise TrafficError("failed to sample a derangement")  # pragma: no cover


def permutation_matrix(perm: np.ndarray, amount: float = 1.0) -> TrafficMatrix:
    """Traffic matrix of a permutation: node ``i`` sends ``amount`` units
    to ``perm[i]``."""
    perm = np.asarray(perm, dtype=np.int64)
    n = len(perm)
    if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(n)):
        raise TrafficError("input is not a permutation")
    return TrafficMatrix(n, np.arange(n), perm, np.full(n, amount))


def permutation_pairs(perms: np.ndarray) -> list[tuple]:
    """The network pairs of each row of a ``(B, n)`` batch of
    permutations, without building traffic matrices.

    Row ``b`` gives ``(src, dst, amount)``: node ``i`` sends one unit to
    ``perms[b, i]``, fixed points dropped, in source order — exactly
    ``permutation_matrix(perms[b]).network_pairs()``.  A row that is not
    a permutation of ``0..n-1`` raises :class:`TrafficError`.

    >>> [tuple(a.tolist()) for a in permutation_pairs(np.array([[1, 0, 2]]))[0]]
    [(0, 1), (1, 0), (1.0, 1.0)]
    """
    perms = np.asarray(perms, dtype=np.int64)
    src = np.arange(perms.shape[-1])
    if perms.ndim != 2 or not np.array_equal(np.sort(perms, axis=1),
                                             np.broadcast_to(src, perms.shape)):
        raise TrafficError("input is not a permutation")
    moved = perms != src
    ones = np.ones(perms.shape[1])
    return [(src[m], row[m], ones[:count])
            for row, m, count in zip(perms, moved, moved.sum(axis=1).tolist())]


def sample_permutations(n_procs: int, count: int, seed=None) -> Iterator[TrafficMatrix]:
    """Yield ``count`` independent random-permutation traffic matrices."""
    rng = as_generator(seed)
    for _ in range(count):
        yield permutation_matrix(random_permutation(n_procs, rng))
