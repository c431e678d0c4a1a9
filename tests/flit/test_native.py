"""The native kernel's loader and guards: why a fallback happens, that a
run records it, and that an arena overflow is a typed error."""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import SimulationError
from repro.experiments.registry import run_instrumented
from repro.flit import BatchedFlitSimulator, FlitConfig, UniformRandom, native
from repro.obs.recorder import Recorder, use_recorder
from repro.obs.report import render_report
from repro.routing import make_scheme
from repro.topology import m_port_n_tree

TINY = dict(topology=m_port_n_tree(4, 2), loads=(0.3,), curves=("d-mod-k",),
            config=FlitConfig(warmup_cycles=50, measure_cycles=200,
                              drain_cycles=200, seed=1))


def test_no_compiler_reason_and_manifest(no_compiler):
    assert native.unavailable_reason() == "no C compiler"
    run = run_instrumented("figure5", fidelity_name="fast", engine="batched",
                           recorder=Recorder(), **TINY)
    assert run.manifest.extra["flit_kernel"] == "reference: no C compiler"


def test_native_manifest():
    if not native.available():
        pytest.skip(f"native kernel unavailable: {native.unavailable_reason()}")
    assert native.unavailable_reason() is None
    run = run_instrumented("figure5", fidelity_name="fast", engine="batched",
                           recorder=Recorder(), **TINY)
    assert run.manifest.extra["flit_kernel"] == "native"
    run = run_instrumented("figure5", fidelity_name="fast",
                           engine="reference", recorder=Recorder(), **TINY)
    assert "flit_kernel" not in run.manifest.extra


def test_build_failure_reason(fresh_kernel_load, monkeypatch):
    if native.shutil.which("cc") is None:
        pytest.skip("no C compiler")
    bad = fresh_kernel_load / "kernel.c"
    bad.write_text("this is not C\n")
    monkeypatch.setattr(native, "_SOURCE", str(bad))
    assert not native.available()
    assert native.unavailable_reason().startswith("build failed: ")
    assert "\n" not in native.unavailable_reason()


def test_load_failure_reason(fresh_kernel_load, monkeypatch):
    bad = fresh_kernel_load / "kernel.c"
    bad.write_text("/* never compiled: a broken library is cached */\n")
    monkeypatch.setattr(native, "_SOURCE", str(bad))
    digest = hashlib.sha256(bad.read_bytes()).hexdigest()[:16]
    (fresh_kernel_load / f"kernel-{digest}.so").write_bytes(b"not a shared object")
    assert not native.available()
    assert native.unavailable_reason().startswith("load failed: ")


@pytest.mark.parametrize("model", ["output-queued", "input-fifo"])
def test_arena_overflow_is_typed(monkeypatch, model):
    if not native.available():
        pytest.skip(f"native kernel unavailable: {native.unavailable_reason()}")
    monkeypatch.setattr(native, "arena_capacity", lambda *args: 16)
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=50, measure_cycles=200, drain_cycles=200,
                     switch_model=model, seed=1)
    sim = BatchedFlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), cfg)
    with pytest.raises(SimulationError, match="event arena"):
        sim.run(UniformRandom(0.5))


def test_profiled_run_records_phase_timers():
    """Build, phase A and phase B each show up as their own timer (and
    nothing else: counters and events are parity-checked against the
    reference, which has no phases)."""
    if not native.available():
        pytest.skip(f"native kernel unavailable: {native.unavailable_reason()}")
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=50, measure_cycles=200, drain_cycles=200,
                     seed=1)
    rec = Recorder()
    with use_recorder(rec):
        sim = BatchedFlitSimulator(xgft, make_scheme(xgft, "disjoint:2"), cfg)
        sim.run(UniformRandom(0.3))
        sim.run(UniformRandom(0.3))
    phases = ("flit.build", "flit.plan", "flit.kernel")
    assert {name: rec.timers[name][1] for name in phases} == {
        "flit.build": 1, "flit.plan": 2, "flit.kernel": 2}
    report = render_report(rec)
    assert all(name in report for name in phases)
