"""Differential suite: the batched engine vs the reference oracle.

The batched engine's contract is *bit-identical* results — every
``FlitRunResult`` field equal (NaN-tolerant for the no-traffic
statistics) across scheme families, tree shapes, switch models, VC
counts, path-selection modes, traces, degraded fabrics and telemetry.
Each case runs twice via the ``kernel`` fixture: once on the compiled
C kernel (skipped when no compiler is present) and once with no
compiler (the ``python`` leg), where the batched engine falls back to
the pure-python reference, so the fallback path is a first-class
citizen of the parity contract.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.faults import DegradedScheme, FaultSpec
from repro.flit import (
    BatchedFlitSimulator,
    ENGINES,
    FixedPermutation,
    FlitConfig,
    FlitSimulator,
    HotspotWorkload,
    UniformRandom,
    flit_engine_class,
    make_flit_simulator,
)
from repro.flit import native
from repro.flit.traces import TraceEntry, synthesize_trace
from repro.obs.recorder import Recorder
from repro.routing import make_scheme
from repro.routing.vectorized import compile_routes
from repro.topology import XGFT, m_port_n_tree


@pytest.fixture(params=["native", "python"])
def kernel(request):
    """Run the test body once per batched-engine backend: the native
    kernel, and the pure-python path — the reference fallback taken when
    no C compiler is found (see the ``no_compiler`` fixture)."""
    if request.param == "python":
        request.getfixturevalue("no_compiler")
    elif not native.available():
        pytest.skip(f"native kernel unavailable: "
                    f"{native.unavailable_reason()}")
    return request.param


def assert_bit_identical(a, b):
    """Field-by-field equality, treating NaN == NaN as equal."""
    for f in a.__dataclass_fields__:
        va, vb = getattr(a, f), getattr(b, f)
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), (f, va, vb)
        else:
            assert va == vb, (f, va, vb)


def both(xgft, spec, config, **kwargs):
    scheme = make_scheme(xgft, spec)
    return (FlitSimulator(xgft, scheme, config, **kwargs),
            BatchedFlitSimulator(xgft, scheme, config, **kwargs))


TREES = {
    "4x2": lambda: m_port_n_tree(4, 2),
    "xgft-3;2,2,2": lambda: XGFT(3, (2, 2, 2), (1, 2, 2)),
}


@pytest.mark.parametrize("tree", sorted(TREES))
@pytest.mark.parametrize("spec", ["d-mod-k", "disjoint:2", "random:2",
                                  "shift-1:2"])
@pytest.mark.parametrize("model", ["output-queued", "input-fifo"])
@pytest.mark.parametrize("vcs", [1, 2])
def test_grid_parity(kernel, tree, spec, model, vcs):
    xgft = TREES[tree]()
    cfg = FlitConfig(warmup_cycles=150, measure_cycles=500,
                     drain_cycles=700, switch_model=model,
                     virtual_channels=vcs, seed=77)
    ref, bat = both(xgft, spec, cfg)
    workload = UniformRandom(0.7)
    assert_bit_identical(ref.run(workload), bat.run(workload))


@pytest.mark.parametrize("selection", ["per-packet", "per-message",
                                       "round-robin"])
def test_path_selection_parity(kernel, selection):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=150, measure_cycles=500,
                     drain_cycles=700, path_selection=selection, seed=77)
    ref, bat = both(xgft, "disjoint:2", cfg)
    # hosts 4 and 6 are fixed points of the permutation: they stay silent
    for workload in (UniformRandom(0.6),
                     FixedPermutation(0.6, [3, 2, 1, 0, 4, 7, 6, 5])):
        assert_bit_identical(ref.run(workload), bat.run(workload))


@pytest.mark.parametrize("ppm", [3, 5])
def test_round_robin_carry_parity(kernel, ppm):
    """packets_per_message not a multiple of the path count, so the
    round-robin start carries from one message of a pair to the next."""
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=150, measure_cycles=500,
                     drain_cycles=700, path_selection="round-robin",
                     packets_per_message=ppm, seed=78)
    ref, bat = both(xgft, "disjoint:2", cfg)
    workload = UniformRandom(0.5)
    assert_bit_identical(ref.run(workload), bat.run(workload))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("src, dst", [(1, 0), (-1, 1), (-2, 0), (2, 1)],
                         ids=["absent", "src-negative", "key-wraps",
                              "key-beyond"])
def test_missing_route_raises_key_error(kernel, engine, src, dst):
    """A pair absent from a ``from_tables`` route table fails the same
    way on both engines (the reference's table lookup).  A node id
    outside the hosts, whose key would wrap onto another pair or fall
    beyond the table, never reaches the lookup: ``run_trace`` refuses
    the entry before anything runs."""
    cfg = FlitConfig(warmup_cycles=0, measure_cycles=100, drain_cycles=100)
    sim = flit_engine_class(engine).from_tables(2, 1, {1: [(0,)]}, cfg)
    trace = [TraceEntry(5, 0, 1), TraceEntry(9, src, dst)]
    if 0 <= src < 2 and 0 <= dst < 2:
        with pytest.raises(KeyError) as err:
            sim.run_trace(trace)
        assert err.value.args == (src * 2 + dst,)
    else:
        with pytest.raises(SimulationError, match="trace entry 1 "):
            sim.run_trace(trace)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("spec", ["d-mod-k", "disjoint:2", "random:4"])
@pytest.mark.parametrize("load", [0.3, 0.8])
def test_from_tables_matches_topology_bound(kernel, engine, spec, load):
    """Multi-hop routes handed to ``from_tables`` as a plain dict run
    exactly like the topology-bound simulator they were compiled from."""
    xgft = m_port_n_tree(4, 3)
    scheme = make_scheme(xgft, spec)
    cfg = FlitConfig(warmup_cycles=150, measure_cycles=500,
                     drain_cycles=700, seed=41)
    cls = flit_engine_class(engine)
    tables = cls.from_tables(xgft.n_procs, xgft.n_links,
                             dict(compile_routes(xgft, scheme)), cfg)
    workload = UniformRandom(load)
    assert_bit_identical(tables.run(workload),
                         cls(xgft, scheme, cfg).run(workload))


@pytest.mark.parametrize("model", ["output-queued", "input-fifo"])
def test_trace_parity(kernel, model):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=400,
                     drain_cycles=600, switch_model=model, seed=5)
    trace = synthesize_trace(UniformRandom(0.5), xgft.n_procs,
                             cfg.message_flits, cfg.end_of_window, seed=9)
    ref, bat = both(xgft, "random:2", cfg)
    # entries past the horizon are never injected, but they pin
    # sim_cycles to the horizon once the network has drained
    late = [TraceEntry(cfg.horizon + 1, 0, 1), TraceEntry(cfg.horizon + 9, 2, 3)]
    for entries in (trace, late + trace):
        assert_bit_identical(ref.run_trace(entries), bat.run_trace(entries))
    assert ref.run_trace(late + trace).sim_cycles == cfg.horizon
    assert ref.run_trace(trace).sim_cycles < cfg.horizon


def test_zero_delay_parity(kernel):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=300,
                     drain_cycles=500, wire_delay=0, routing_delay=0, seed=3)
    ref, bat = both(xgft, "disjoint:2", cfg)
    workload = UniformRandom(0.6)
    assert_bit_identical(ref.run(workload), bat.run(workload))


@pytest.mark.parametrize("spec", ["umulti", "disjoint:2"])
@pytest.mark.parametrize("selection", ["per-packet", "per-message",
                                       "round-robin"])
def test_degraded_parity(kernel, spec, selection):
    """Pairs short of their K live paths draw among the live ones only,
    in every path-selection mode."""
    xgft = m_port_n_tree(8, 2)
    for attempt in range(50):
        fabric = FaultSpec(link_rate=0.15, seed=attempt).sample(xgft)
        if not fabric.is_connected or fabric.is_pristine:
            continue
        scheme = DegradedScheme(make_scheme(xgft, spec), fabric)
        # the first fabric where some pair is short of its K paths
        if any((block.live < block.idx.shape[1]).any()
               for block in compile_routes(xgft, scheme).blocks.values()):
            break
    else:
        pytest.fail("no fabric leaves a pair short of its paths")
    cfg = FlitConfig(warmup_cycles=150, measure_cycles=400,
                     drain_cycles=600, path_selection=selection, seed=11)
    ref = FlitSimulator(xgft, scheme, cfg, degraded=fabric)
    bat = BatchedFlitSimulator(xgft, scheme, cfg, degraded=fabric)
    workload = UniformRandom(0.4)
    assert_bit_identical(ref.run(workload), bat.run(workload))


@pytest.mark.parametrize("model", ["output-queued", "input-fifo"])
@pytest.mark.parametrize("vcs", [1, 2])
def test_recorder_parity(kernel, model, vcs):
    """With telemetry on, counters, events and histograms must match
    too (the batched engine flushes intervals per bucket, the reference
    per event — same cycles, same values)."""
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=400,
                     drain_cycles=600, switch_model=model,
                     virtual_channels=vcs, obs_interval=50, seed=21)
    ref, bat = both(xgft, "random:2", cfg)
    r_ref, r_bat = Recorder(), Recorder()
    a = ref.run(UniformRandom(0.7), recorder=r_ref)
    b = bat.run(UniformRandom(0.7), recorder=r_bat)
    assert_bit_identical(a, b)
    assert r_ref.counters == r_bat.counters
    assert r_ref.events == r_bat.events
    assert ({k: h.to_dict() for k, h in r_ref.hists.items()}
            == {k: h.to_dict() for k, h in r_bat.hists.items()})


@pytest.mark.parametrize("model", ["output-queued", "input-fifo"])
def test_saturation_parity(kernel, model):
    """Past saturation with one-packet buffers: the deepest event
    backlog (and, input-FIFO, the most head-ready retries) the kernel's
    event arena has to hold."""
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=400,
                     drain_cycles=600, switch_model=model, buffer_packets=1,
                     virtual_channels=2, seed=23)
    ref, bat = both(xgft, "disjoint:2", cfg)
    a, b = ref.run(UniformRandom(1.0)), bat.run(UniformRandom(1.0))
    assert_bit_identical(a, b)
    assert a.throughput < a.injected_load  # saturated


class NearbyHost(UniformRandom):
    """Overrides ``pick_destination``, so the kernel has no model for it."""

    def pick_destination(self, src, n_procs, rng):
        return (src + 1 + rng.randrange(2)) % n_procs


def test_workload_family_parity(kernel):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=400,
                     drain_cycles=600, seed=31)
    ref, bat = both(xgft, "random:2", cfg)
    for workload in (HotspotWorkload(0.5, (0, 1), hot_fraction=0.2),
                     # host 3 is the only hot node: it has no hot choice
                     HotspotWorkload(0.5, (3,), hot_fraction=0.5),
                     HotspotWorkload(0.5, (2, 6), hot_fraction=1.0),
                     FixedPermutation(0.5, [(i + 5) % 8 for i in range(8)]),
                     NearbyHost(0.5)):
        assert_bit_identical(ref.run(workload), bat.run(workload))
    short = FixedPermutation(0.5, [1, 2, 3, 0])  # the tree has 8 hosts
    errors = []
    for sim in (ref, bat):
        with pytest.raises(SimulationError, match="over 4 nodes") as err:
            sim.run(short)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def test_empty_trace_and_tiny_load(kernel):
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=50, measure_cycles=100,
                     drain_cycles=150, seed=1)
    ref, bat = both(xgft, "d-mod-k", cfg)
    assert_bit_identical(ref.run_trace([]), bat.run_trace([]))
    assert_bit_identical(ref.run(UniformRandom(0.0005)),
                         bat.run(UniformRandom(0.0005)))


def test_sixteen_port_smoke(kernel):
    """CI smoke point: a 16-port tree (128 hosts) end to end."""
    xgft = m_port_n_tree(16, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=400,
                     drain_cycles=500, seed=7)
    ref, bat = both(xgft, "disjoint:4", cfg)
    workload = UniformRandom(0.4)
    a, b = ref.run(workload), bat.run(workload)
    assert_bit_identical(a, b)
    assert a.messages_completed > 0
    assert a.throughput > 0


@pytest.mark.parametrize("load", [0.3, 0.5])
def test_injection_rate_unbiased(kernel, load):
    """Regression for the per-draw truncation bias: with 2-flit
    messages the old ``int(gap) + 1`` per draw injected ~11 % below the
    offered load; the float-accumulated clock stays within ~2 %."""
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=500, measure_cycles=6000,
                     drain_cycles=1000, packet_flits=2,
                     packets_per_message=1, seed=13)
    ref, bat = both(xgft, "d-mod-k", cfg)
    workload = UniformRandom(load)
    a, b = ref.run(workload), bat.run(workload)
    assert_bit_identical(a, b)
    assert abs(a.injected_load - load) / load < 0.05


def test_engine_selector():
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=50, measure_cycles=100, drain_cycles=150)
    scheme = make_scheme(xgft, "d-mod-k")
    assert ENGINES == ("reference", "batched")
    assert flit_engine_class("reference") is FlitSimulator
    assert flit_engine_class("batched") is BatchedFlitSimulator
    sim = make_flit_simulator("batched", xgft, scheme, cfg)
    assert type(sim) is BatchedFlitSimulator
    sim = make_flit_simulator("reference", xgft, scheme, cfg)
    assert type(sim) is FlitSimulator
    with pytest.raises(SimulationError, match="unknown flit engine"):
        flit_engine_class("turbo")
    with pytest.raises(SimulationError, match="turbo"):
        make_flit_simulator("turbo", xgft, scheme, cfg)


def test_dense_horizon_fallback(monkeypatch):
    """Past the calendar-size limit the batched engine must transparently
    fall back to the reference implementation (still exact)."""
    from repro.flit import batched

    monkeypatch.setattr(batched, "_DENSE_HORIZON_LIMIT", 100)
    xgft = m_port_n_tree(4, 2)
    cfg = FlitConfig(warmup_cycles=100, measure_cycles=300,
                     drain_cycles=400, seed=19)
    ref, bat = both(xgft, "disjoint:2", cfg)
    workload = UniformRandom(0.5)
    assert_bit_identical(ref.run(workload), bat.run(workload))
