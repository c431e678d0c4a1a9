"""Flit-test fixtures: fresh loads of the native kernel."""

from __future__ import annotations

import pytest

from repro.flit import native


@pytest.fixture
def fresh_kernel_load(monkeypatch, tmp_path):
    """Forget the loaded kernel and point its cache at an empty
    directory, so the next :func:`repro.flit.native.available` builds
    and loads from scratch.  The loaded kernel is restored afterwards."""
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_reason", None)
    monkeypatch.setattr(native, "_load_attempted", False)
    return tmp_path


@pytest.fixture
def no_compiler(fresh_kernel_load, monkeypatch):
    """A fresh load with no C compiler on PATH: the native kernel is
    unavailable and the batched engine runs the reference."""
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    assert not native.available()
