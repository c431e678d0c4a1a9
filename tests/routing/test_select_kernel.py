"""The random heuristic's two selection paths: native and numpy.

``select_paths`` (``routing/select.c``) hashes each pair's paths and
keeps the lowest scores with no ``(n, W(k))`` score matrix; without the
library numpy scores that matrix and selects with ``argpartition`` and
``argsort``.  Each case here queries both paths and asserts they are
equal; ``test_heuristics.py`` runs its behaviour tests on both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.errors import RoutingError
from repro.obs.recorder import Recorder, use_recorder
from repro.routing.heuristics import RandomMultipath, _select_native
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT

from tests.flow.test_kernel import on_both_paths

TREES = [
    m_port_n_tree(16, 3),   # W(3) = 64
    m_port_n_tree(24, 3),   # W(3) = 144
    XGFT(3, (2, 3, 4), (1, 2, 2)),
    XGFT(3, (3, 2, 4), (1, 2, 3)),  # the ``irregular`` fixture
]

#: the path limits tested, as functions of the top level's W(h)
LIMITS = {"1": lambda x: 1, "2": lambda x: 2, "mid": lambda x: x // 2,
          "X-1": lambda x: x - 1, "X": lambda x: x}


def level_pairs(xgft, k: int, count: int = 2, seed: int = 0):
    """The level-``k`` pairs of ``count`` random permutations."""
    rng = np.random.default_rng(seed)
    s = np.tile(np.arange(xgft.n_procs), count)
    d = np.concatenate([rng.permutation(xgft.n_procs) for _ in range(count)])
    keep = xgft.nca_level(s, d) == k
    return s[keep], d[keep]


def every_level(scheme):
    """Both queries at every level of ``scheme``'s tree."""
    xgft = scheme.xgft
    out = []
    for k in range(1, xgft.h + 1):
        s, d = level_pairs(xgft, k)
        out += [scheme.path_index_matrix(s, d, k),
                scheme.path_order_matrix(s, d, k)]
    return out


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["seed-0", "seed-max"])
@pytest.mark.parametrize("xgft", TREES, ids=repr)
def test_native_equals_numpy(request, xgft, seed, limit):
    scheme = RandomMultipath(xgft, LIMITS[limit](xgft.max_paths), seed=seed)
    fast, slow = on_both_paths(request, lambda: every_level(scheme))
    assert len(fast) == len(slow) == 2 * xgft.h
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


@pytest.mark.parametrize("limit", ["2", "mid", "X-1", "X"])
@pytest.mark.parametrize("xgft", [XGFT(2, (2, 2), (64, 64)),
                                  XGFT(2, (2, 2), (256, 512))], ids=repr)
def test_wide_levels(request, xgft, limit):
    """W(h) = 4096 and 131072: more paths than an 11-bit index packing
    holds, and more than the kernel's 2^16 buckets."""
    scheme = RandomMultipath(xgft, LIMITS[limit](xgft.max_paths), seed=7)
    fast, slow = on_both_paths(request, lambda: every_level(scheme))
    for a, b in zip(fast, slow):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("limit", ["1", "2", "X"])
def test_empty_batch(request, limit):
    xgft = m_port_n_tree(16, 3)
    x = xgft.max_paths
    p = LIMITS[limit](x)
    scheme = RandomMultipath(xgft, p, seed=3)
    empty = np.empty(0, dtype=np.int64)
    fast, slow = on_both_paths(request, lambda: (
        scheme.path_index_matrix(empty, empty, 3),
        scheme.path_order_matrix(empty, empty, 3)))
    for got in (fast, slow):
        assert got[0].shape == (0, p) and got[1].shape == (0, x)
        assert got[0].dtype == got[1].dtype == np.int64


def test_timer_names_the_path(request):
    xgft = m_port_n_tree(8, 3)
    scheme = RandomMultipath(xgft, 2, seed=1)
    s, d = level_pairs(xgft, 3)

    def timers():
        rec = Recorder()
        with use_recorder(rec):
            scheme.path_index_matrix(s, d, 3)
            scheme.path_order_matrix(s, d, 3)
        return {name: calls for name, (_, calls) in rec.timers.items()}

    fast, slow = on_both_paths(request, timers)
    assert fast == {"routing.kernel": 2}
    assert slow == {"routing.fallback.no_kernel": 2}


def test_kernel_checks_its_arguments():
    """The C guards: a pinned path outside ``[0, x)`` and a limit
    outside ``[1, x]`` stop the call before anything is written."""
    if not native.available():
        pytest.skip(f"native library unavailable: {native.unavailable_reason()}")
    s, d = np.array([0, 1]), np.array([127, 126])
    with pytest.raises(RoutingError, match=r"path index 16 out of range \[0, 16\)"):
        _select_native(0, 128, s, d, 16, 16, np.array([3, 16]))
    with pytest.raises(RoutingError, match=r"path index -1 out of range"):
        _select_native(0, 128, s, d, 16, 16, np.array([-1, 0]))
    with pytest.raises(ValueError, match="1 <= p <= x"):
        _select_native(0, 128, s, d, 16, 17, None)
    with pytest.raises(ValueError, match="one pinned path per pair"):
        _select_native(0, 128, s, d, 16, 16, np.array([0]))
