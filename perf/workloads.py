"""The ledger's four workloads, built from the experiment entry points.

A workload is a fixed list of operations.  One operation is one
experiment call, made with the arguments the CLI would pass, and it
returns ``(values, attrs)``: ``values`` are the result numbers the
correctness gate checks, ``attrs`` are extra per-layer measurements only
the workload can take (the size of the run log).

Every workload is serial and does a fixed amount of work at every seed:
flow studies draw a fixed number of samples, and flit runs use a
preset's windows on a fixed load and curve grid.  A pass takes 2-4 s on
a 2-CPU host, so one timed run holds several passes.

``small=True`` swaps in 4- and 6-port trees and shorter grids, so the
smoke test runs every body in seconds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

#: the seed the expected files are recorded at
DEFAULT_SEED = 2012

#: the paper's surviving Table 1 cells at K=8, percent of capacity
PAPER_TABLE1 = {"shift-1": 67.65, "random": 69.75, "disjoint": 70.35}

#: relative tolerance for float result values
REL_TOL = 1e-9

#: permutations per flow study (initial == max, so no adaptive stopping)
FLOW_SAMPLES = 8
#: fail/repair events per churn sweep
CHURN_EVENTS = 8
#: Figure 5's grid in every Figure 5 operation: one curve per scheme family
FIG5_LOADS = (0.3, 0.6, 0.9)
FIG5_CURVES = ("d-mod-k", "disjoint:2", "shift-1:8", "random:8")

Op = Callable[[dict, int], "tuple[dict, dict]"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[tuple[str, Op], ...]
    #: op -> earlier op whose values it must reproduce (cache replay)
    same_as: tuple[tuple[str, str], ...] = ()


def setup(small: bool) -> dict:
    """Everything a pass needs before its first operation: the package,
    the native flit kernel from its cache, the experiment modules and the
    topologies (Figure 4's panels are built when ``figure4`` imports)."""
    import tempfile

    import repro  # noqa: F401
    from repro.experiments import (  # noqa: F401
        churn_sweep, fault_sweep, figure4, figure5, registry, table1)
    from repro.flit import native
    from repro.topology.variants import m_port_n_tree

    native.available()
    if small:
        topo = {"b": m_port_n_tree(4, 3), "c": m_port_n_tree(6, 2),
                "flit": m_port_n_tree(4, 3)}
    else:
        topo = {"b": None, "c": None, "flit": m_port_n_tree(8, 3)}
    return {"small": small, "topo": topo,
            "tmp": tempfile.mkdtemp(prefix="perf-pass-")}


def _flow_fidelity():
    """The ``fast`` preset with a fixed sample count."""
    from dataclasses import replace

    from repro.experiments.common import FAST

    return replace(FAST, name=f"fixed-{FLOW_SAMPLES}",
                   initial_samples=FLOW_SAMPLES, max_samples=FLOW_SAMPLES)


def _figure5_args(ctx: dict) -> dict:
    if not ctx["small"]:
        return {"topology": ctx["topo"]["flit"], "loads": FIG5_LOADS,
                "curves": FIG5_CURVES}
    return {"topology": ctx["topo"]["flit"], "loads": (0.2, 0.6),
            "curves": ("d-mod-k", "disjoint:2", "random:2")}


def _figure5_values(result) -> dict:
    return {"loads": list(result.loads),
            "curves": {spec: {"throughput": list(s.throughputs),
                              "delay": list(s.delays)}
                       for spec, s in result.sweeps.items()}}


def _figure4(panel: str, engine: str, **extra) -> Op:
    def op(ctx: dict, seed: int):
        from repro.experiments import figure4

        result = figure4.run_panel(
            panel, fidelity_name=_flow_fidelity(), engine=engine,
            seed=seed, topology=ctx["topo"][panel], **extra)
        result.render()
        return {"ks": list(result.ks), "dmodk": result.dmodk,
                "series": {h: list(v) for h, v in result.series.items()}}, {}
    return op


def _fault_sweep(ctx: dict, seed: int):
    from repro.experiments import fault_sweep

    result = fault_sweep.run(
        fidelity_name=_flow_fidelity(), engine="reference",
        seed=seed, fault_seed=seed, topology=ctx["topo"]["flit"])
    result.render()
    return {"points": [{"rate": p.rate, "fabric": p.tag, "mloads": p.mloads}
                       for p in result.points]}, {}


def _churn_sweep(ctx: dict, seed: int):
    from repro.experiments import churn_sweep

    result = churn_sweep.run(
        fidelity_name=_flow_fidelity(), n_events=CHURN_EVENTS, seed=seed,
        churn_seed=seed, topology=ctx["topo"]["flit"])
    result.render()
    # reroute_ms is wall time, so it stays out of the checked values
    return {"trace": result.trace,
            "points": [{"step": p.step, "event": p.event, "fabric": p.fabric,
                        "links_changed": p.links_changed,
                        "pairs_recomputed": p.pairs_recomputed,
                        "mloads": p.mloads} for p in result.points]}, {}


def _table1(ctx: dict, seed: int):
    from repro.experiments import table1

    # the K=8 row, which paper_err_pp reads, with one random routing seed:
    # four route tables, so the flit runs and not their set-up dominate
    extra = ({"fidelity_name": "fast", "ks": (2,), "loads": (0.4, 0.8)}
             if ctx["small"] else {"fidelity_name": "normal", "ks": (8,)})
    result = table1.run(engine="batched", seed=seed, random_seeds=(0,),
                        topology=ctx["topo"]["flit"], **extra)
    result.render()
    return {"ks": list(result.ks), "dmodk": result.dmodk,
            "cells": {h: list(v) for h, v in result.cells.items()}}, {}


def _figure5_profiled(phase: str) -> Op:
    """``repro figure5 --profile --log-json F --cache-dir D``; the cold
    phase fills the pass's fresh cache, the warm phase replays it."""
    def op(ctx: dict, seed: int):
        from repro.experiments.registry import run_instrumented
        from repro.obs import Recorder, events, report

        rec = Recorder()
        log = os.path.join(ctx["tmp"], f"figure5-{phase}.jsonl")
        with events.JsonlSink(log) as sink:
            run = run_instrumented(
                "figure5", fidelity_name="fast", engine="batched",
                recorder=rec, seed=seed,
                cache_dir=os.path.join(ctx["tmp"], "cache"),
                **_figure5_args(ctx))
            run.result.render()
            events.write_run(sink, run.manifest, rec)
        report.render_report(rec, title=f"run telemetry: figure5 ({phase})")
        return _figure5_values(run.result), {"log_bytes": os.path.getsize(log)}
    return op


def _figure5_fifo(ctx: dict, seed: int):
    from repro.experiments import figure5
    from repro.flit.config import FlitConfig

    window = ((200, 500, 1000) if ctx["small"] else (500, 1500, 2000))
    config = FlitConfig(warmup_cycles=window[0], measure_cycles=window[1],
                        drain_cycles=window[2], seed=seed,
                        switch_model="input-fifo")
    result = figure5.run(fidelity_name="fast", engine="batched",
                         config=config, seed=seed, **_figure5_args(ctx))
    result.render()
    return _figure5_values(result), {}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fig4-compiled",
        "Figure 4(c) on the compiled flow engine: the only workload where "
        "route compilation and plan building do the work.",
        # one routing seed for the random heuristic instead of five keeps
        # the pass short; compilation still dominates it
        (("figure4c", _figure4("c", "compiled", random_seeds=(0,))),)),
    Workload(
        "flow-ref-faults",
        "Paper-scale 16-port 3-tree plus fault and churn sweeps on the "
        "reference flow engine: never compiles, and re-routes under faults.",
        (("figure4b", _figure4("b", "reference")),
         ("fault-sweep", _fault_sweep),
         ("churn-sweep", _churn_sweep))),
    Workload(
        "table1-native",
        "Table 1 on the batched flit engine with the native kernel: the "
        "paper's default fast path, and the only accuracy check.",
        (("table1", _table1),)),
    Workload(
        "fig5-python",
        "Figure 5 on the Python flit kernels: profiled with a cold then a "
        "warm result cache, then the input-FIFO switch model; never native.",
        (("figure5-cold", _figure5_profiled("cold")),
         ("figure5-warm", _figure5_profiled("warm")),
         ("figure5-fifo", _figure5_fifo)),
        same_as=(("figure5-warm", "figure5-cold"),)),
)}


def paper_err_pp(table1_values: dict) -> float:
    """Mean |simulated - paper| in percentage points over the heuristic
    cells at the largest K (K=8 in the full workload)."""
    cells = table1_values["cells"]
    return sum(abs(100.0 * cells[h][-1] - paper)
               for h, paper in PAPER_TABLE1.items()) / len(PAPER_TABLE1)


def difference(expected, actual, path: str = "") -> str | None:
    """Where ``actual`` departs from ``expected``, or ``None``: floats to
    :data:`REL_TOL` (NaN equals NaN), everything else exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return f"{path or 'values'}: keys {sorted(expected)} != {sorted(actual)}"
        for key in expected:
            found = difference(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = difference(e, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(expected, float) or isinstance(actual, float):
        if (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and (math.isnan(expected) and math.isnan(actual)
                     or math.isclose(expected, actual, rel_tol=REL_TOL))):
            return None
    elif expected == actual:
        return None
    return f"{path}: expected {expected!r}, got {actual!r}"


def invariants(op: str, values: dict) -> list[str]:
    """The paper's claims that hold at every seed: at K = max paths every
    heuristic is UMULTI, on 2-level trees shift-1 equals disjoint, and
    throughput is a fraction of capacity."""
    problems = []
    if op.startswith("figure4"):
        series = values["series"]
        last = series["shift-1"][-1]
        if any(not math.isclose(s[-1], last, rel_tol=REL_TOL)
               for s in series.values()):
            problems.append("heuristics differ at K = max paths")
        if op == "figure4c" and difference(
                series["shift-1"], series["disjoint"]):
            problems.append("shift-1 != disjoint on a 2-level tree")
    elif op == "table1":
        cells = [values["dmodk"], *(x for v in values["cells"].values() for x in v)]
        if not all(0.0 < x <= 1.0 for x in cells):
            problems.append("throughput outside (0, 1]")
    elif op.startswith("figure5"):
        for spec, curve in values["curves"].items():
            if not all(0.0 <= x <= 1.0 for x in curve["throughput"]):
                problems.append(f"{spec}: throughput outside [0, 1]")
    return problems
