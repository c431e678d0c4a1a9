"""The native kernel's loader and guards: why a fallback happens, that a
run records it, and that an arena overflow is a typed error."""

from __future__ import annotations

import ctypes
from types import SimpleNamespace

import pytest

from repro import native as library
from repro.errors import SimulationError
from repro.experiments.registry import run_instrumented
from repro.flit import BatchedFlitSimulator, FlitConfig, UniformRandom, native
from repro.flit import batched
from repro.obs.recorder import Recorder, use_recorder
from repro.obs.report import render_report
from repro.routing import make_scheme
from repro.topology import m_port_n_tree

TINY = dict(topology=m_port_n_tree(4, 2), loads=(0.3,), curves=("d-mod-k",),
            config=FlitConfig(warmup_cycles=50, measure_cycles=200,
                              drain_cycles=200, seed=1))


def ran(run) -> dict:
    """Calls per innermost timer name of an instrumented run."""
    return {name.rpartition("/")[2]: calls
            for name, (_, calls) in run.recorder.timers.items()
            if name.rpartition("/")[2].startswith(("flit.kernel",
                                                   "flit.fallback."))}


def test_no_compiler_reason_and_manifest(no_compiler):
    assert native.unavailable_reason() == "no C compiler"
    run = run_instrumented("figure5", fidelity_name="fast", engine="batched",
                           recorder=Recorder(), **TINY)
    assert run.manifest.extra["flit_kernel"] == "reference: no C compiler"
    assert ran(run) == {"flit.fallback.no_kernel": 1}


def test_default_engine_stamps_like_batched():
    """A flit experiment run without an engine takes the batched one, and
    its manifest says what ran exactly as ``engine="batched"`` does."""
    default = run_instrumented("figure5", fidelity_name="fast",
                               recorder=Recorder(), **TINY)
    explicit = run_instrumented("figure5", fidelity_name="fast",
                                engine="batched", recorder=Recorder(), **TINY)
    assert default.manifest.extra["flit_kernel"] == (
        explicit.manifest.extra["flit_kernel"])
    assert ran(default) == ran(explicit) != {}


def test_long_horizon_fallback_says_why(monkeypatch):
    """A horizon above the dense-calendar limit runs the reference, and
    the run's manifest and timers say so."""
    monkeypatch.setattr(batched, "_DENSE_HORIZON_LIMIT", 100)
    run = run_instrumented("figure5", fidelity_name="fast", engine="batched",
                           recorder=Recorder(), **TINY)
    assert run.manifest.extra["flit_kernel"] == (
        "reference: horizon above the dense-calendar limit")
    assert ran(run) == {"flit.fallback.horizon": 1}


def test_disabled_recorder_manifest_claims_no_kernel(monkeypatch):
    """Without a recorder no timer says what ran, so the manifest names
    no flit kernel rather than guessing one the run may not have taken."""
    monkeypatch.setattr(batched, "_DENSE_HORIZON_LIMIT", 100)
    run = run_instrumented("figure5", fidelity_name="fast", engine="batched",
                           **TINY)
    assert not run.recorder.enabled
    assert "flit_kernel" not in run.manifest.extra


def test_workload_without_native_model_says_why():
    """A ``UniformRandom`` subclass may override ``pick_destination``, so
    it runs the reference; the fallback is timed under its reason."""

    class NextHost(UniformRandom):
        def pick_destination(self, src, n_procs, rng):
            return (src + 1) % n_procs

    xgft = m_port_n_tree(4, 2)
    sim = BatchedFlitSimulator(xgft, make_scheme(xgft, "d-mod-k"),
                               TINY["config"])
    rec = Recorder()
    with use_recorder(rec):
        sim.run(NextHost(0.3))
        sim.run(UniformRandom(0.3))
    assert {name: calls for name, (_, calls) in rec.timers.items()} == {
        "flit.fallback.workload": 1, "flit.kernel": 1}
    assert batched.kernels_ran(rec.timers) == (
        "native; reference: workload without a native model")


def test_kernels_ran_reads_nested_timers():
    assert batched.kernels_ran({}) is None
    assert batched.kernels_ran({"experiment.table1/flit.kernel": (1.0, 0)}) is None
    assert batched.kernels_ran({
        "experiment.table1/flit.point/flit.kernel": (1.0, 4),
        "flit.build": (0.5, 2)}) == "native"


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
    if library.shutil.which("cc") is None:
        pytest.skip("no C compiler")
    bad = fresh_kernel_load / "kernel.c"
    bad.write_text("this is not C\n")
    monkeypatch.setattr(library, "_SOURCES", (str(bad),))
    assert not native.available()
    assert native.unavailable_reason().startswith("build failed: ")
    assert "\n" not in native.unavailable_reason()


def test_load_failure_reason(fresh_kernel_load, monkeypatch):
    bad = fresh_kernel_load / "kernel.c"
    bad.write_text("/* never compiled: a broken library is cached */\n")
    monkeypatch.setattr(library, "_SOURCES", (str(bad),))
    # the compiler's name is part of the library's; it never runs here
    monkeypatch.setattr(library.shutil, "which", lambda name: f"/bin/{name}")
    with open(library._library_path("cc"), "wb") as fh:
        fh.write(b"not a shared object")
    assert not native.available()
    assert native.unavailable_reason().startswith("load failed: ")


def test_compiler_and_flags_name_the_library(fresh_kernel_load, monkeypatch):
    """A library built by another compiler or with other flags is never
    loaded in place of this one: both are hashed into its name."""
    assert "-ffp-contract=off" in library._FLAGS
    path = library._library_path("cc")
    assert library._library_path("cc") == path
    assert library._library_path("clang") != path
    monkeypatch.setattr(library, "_FLAGS", tuple(
        flag for flag in library._FLAGS if flag != "-ffp-contract=off"))
    assert library._library_path("cc") != path


@pytest.mark.parametrize("model", ["output-queued", "input-fifo"])
def test_arena_overflow_is_typed(monkeypatch, model):
    """The kernel sizes its event arena from the planned hops and checks
    every push; if that bound ever failed, its return code surfaces as a
    typed error naming the capacity, and the delays buffer is released."""
    released = []

    def overflowing(*args):
        out = (ctypes.c_int64 * native._O_COUNT).from_address(args[9])
        out[native._O_CAPACITY] = 16
        return native._RC_ARENA_FULL

    monkeypatch.setattr(library, "_lib", SimpleNamespace(
        run_batched=overflowing, release=released.append))
    monkeypatch.setattr(library, "_load_attempted", True)
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=50, measure_cycles=200, drain_cycles=200,
                     switch_model=model, seed=1)
    sim = BatchedFlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), cfg)
    with pytest.raises(SimulationError, match="16-node event arena"):
        sim.run(UniformRandom(0.5))
    assert len(released) == 1


def test_profiled_run_records_phase_timers():
    """The route-table build and each native run show up as their own
    timer (and nothing else: counters and events are parity-checked
    against the reference, which has no phases)."""
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
    assert {name: calls for name, (_, calls) in rec.timers.items()
            if name.startswith("flit.")} == {"flit.build": 1, "flit.kernel": 2}
    report = render_report(rec)
    assert all(name in report for name in ("flit.build", "flit.kernel"))
