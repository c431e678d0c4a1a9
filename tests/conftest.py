"""Shared fixtures: small topologies, scheme factories and fresh loads of
the native library.

Tests use small XGFT instances (tens to a few hundred nodes) so the whole
suite stays fast; the structures exercised are identical to the paper's
full-size topologies.

Hypothesis profiles: the default (``dev``) profile explores freely; the
``ci`` profile is derandomized with a capped example budget so CI runs
are reproducible and bounded.  CI selects it via ``CI=true`` in the
environment (or ``HYPOTHESIS_PROFILE=ci``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro import native
from repro.topology.variants import k_ary_n_tree, m_port_n_tree
from repro.topology.xgft import XGFT

settings.register_profile(
    "dev", deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=15,
    print_blob=True, suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE",
                   "ci" if os.environ.get("CI") else "dev")
)


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens", action="store_true", default=False,
        help="rewrite tests/goldens/*.json from the current implementation "
             "instead of comparing against them (see docs/testing.md)",
    )


@pytest.fixture
def fresh_kernel_load(monkeypatch, tmp_path):
    """Forget the loaded native library and point its cache at an empty
    directory, so the next :func:`repro.native.available` builds and
    loads from scratch.  The loaded library is restored afterwards."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_reason", None)
    monkeypatch.setattr(native, "_load_attempted", False)
    return tmp_path


@pytest.fixture
def no_compiler(fresh_kernel_load, monkeypatch):
    """A fresh load with no C compiler on PATH: the native library is
    unavailable, so the batched flit engine runs the reference and the
    flow evaluator its numpy path."""
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    assert not native.available()


@pytest.fixture(params=["native", "numpy"])
def kernel_path(request):
    """Run the test once per path: native (skipped when the library does
    not load) and numpy (no compiler)."""
    if request.param == "numpy":
        request.getfixturevalue("no_compiler")
    elif not native.available():
        pytest.skip(f"native library unavailable: {native.unavailable_reason()}")
    return request.param


@pytest.fixture
def fig3_xgft() -> XGFT:
    """The paper's Figure 3 topology: XGFT(3; 4,4,4; 1,4,2), 64 nodes."""
    return XGFT(3, (4, 4, 4), (1, 4, 2))


@pytest.fixture
def tree8x2() -> XGFT:
    """8-port 2-tree: XGFT(2; 4,8; 1,4), 32 nodes."""
    return m_port_n_tree(8, 2)


@pytest.fixture
def tree8x3() -> XGFT:
    """8-port 3-tree: XGFT(3; 4,4,8; 1,4,4), 128 nodes — the paper's
    flit-level topology."""
    return m_port_n_tree(8, 3)


@pytest.fixture
def kary2x2() -> XGFT:
    """Tiny 2-ary 2-tree (4 nodes) for hand-computable cases."""
    return k_ary_n_tree(2, 2)


@pytest.fixture
def irregular() -> XGFT:
    """An asymmetric XGFT exercising distinct m_i / w_i at every level."""
    return XGFT(3, (3, 2, 4), (1, 2, 3))


# A diverse topology pool for parametrized structural tests.
TOPOLOGY_POOL = [
    XGFT(1, (4,), (1,)),
    XGFT(2, (2, 2), (1, 2)),
    k_ary_n_tree(2, 2),
    k_ary_n_tree(2, 3),
    k_ary_n_tree(3, 2),
    m_port_n_tree(4, 2),
    m_port_n_tree(4, 3),
    m_port_n_tree(8, 2),
    XGFT(3, (4, 4, 4), (1, 4, 2)),
    XGFT(3, (3, 2, 4), (1, 2, 3)),
    XGFT(2, (3, 5), (2, 3)),  # w_1 > 1: multiple host uplinks
]


def pool_ids() -> list[str]:
    return [repr(x) for x in TOPOLOGY_POOL]
