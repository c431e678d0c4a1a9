"""Flit-level simulation: virtual cut-through with credit flow control.

Event-driven, packet-granular with flit-time arithmetic (see
:mod:`repro.flit.engine`).  Workloads inject Poisson message streams;
sweeps reproduce the paper's delay-vs-load curves and maximum-throughput
tables.
"""

from repro.flit.batched import (
    BatchedFlitSimulator,
    ENGINES,
    flit_engine_class,
    make_flit_simulator,
)
from repro.flit.config import FlitConfig, PATH_SELECTION_MODES
from repro.flit.engine import FlitSimulator
from repro.flit.message import Message, Packet
from repro.flit.stats import FlitRunResult, delay_stats
from repro.flit.sweep import SweepResult, default_loads, load_sweep
from repro.flit.traces import TraceEntry, synthesize_trace
from repro.flit.workload import FixedPermutation, UniformRandom, Workload

__all__ = [
    "FlitConfig",
    "PATH_SELECTION_MODES",
    "FlitSimulator",
    "BatchedFlitSimulator",
    "ENGINES",
    "flit_engine_class",
    "make_flit_simulator",
    "Message",
    "Packet",
    "FlitRunResult",
    "delay_stats",
    "SweepResult",
    "default_loads",
    "load_sweep",
    "Workload",
    "UniformRandom",
    "FixedPermutation",
    "TraceEntry",
    "synthesize_trace",
]
