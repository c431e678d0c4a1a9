"""Perf snapshots and the regression gate behind ``repro bench``.

The ROADMAP asks for ``BENCH_*.json`` perf snapshots committed to the
repo "so the trajectory is visible to future re-anchors".  This module
is that subsystem:

* :class:`BenchSnapshot` — a schema-versioned JSON record of one
  benchmark run: what code (git rev, ``repro.__version__``), on what
  host (python/platform/cpu fingerprint), and per-metric wall/CPU
  seconds plus derived throughputs;
* four self-contained benchmark bodies — ``flow`` (reference vs
  compiled permutation evaluation), ``flit`` (serial vs parallel vs
  warm-cache sweep grid), ``obs`` (recorder overhead on the flow hot
  path) and ``churn`` (incremental re-routing vs from-scratch recompile
  under a fail/repair event stream), runnable from the installed
  package (``repro bench``);
* :func:`compare_snapshots` — the regression gate: flags any metric
  whose wall time grew beyond ``threshold`` relative to a committed
  baseline, while ignoring host/noise-level jitter.

Wall-clock comparisons across different machines are inherently noisy;
the default threshold (:data:`DEFAULT_THRESHOLD`, +50 %) is chosen so a
genuine 2x slowdown always trips it while scheduler-level jitter does
not.  Refresh the committed baselines with ``repro bench --quick``
whenever the reference hardware changes.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter, process_time

from repro.errors import ReproError
from repro.util.tables import format_table

#: bump when the snapshot layout changes incompatibly
SCHEMA_VERSION = 1

#: relative wall-time growth that counts as a regression (+50 %)
DEFAULT_THRESHOLD = 0.5

#: baseline wall times below this are timer noise, not measurements
#: (a fast machine on a --quick baseline can land a whole phase under a
#: millisecond); such phases are reported as "not comparable" instead of
#: producing an infinite or wildly amplified regression ratio
MIN_COMPARABLE_WALL_S = 1e-3

#: minimum batched-over-reference flit-engine speedup on the 8-port
#: 3-tree (the batched-engine acceptance gate)
FLIT_ENGINE_SPEEDUP = 5.0

#: disabled-recorder overhead budget on the flow hot path (<5 %)
OBS_OVERHEAD_BUDGET = 0.05

#: shortest timed block in the overhead measurement: the hot-path call
#: takes microseconds, so it repeats until one block lasts this long
MIN_TIMED_BLOCK_S = 0.02

#: snapshot file per benchmark, written at the repo root
SNAPSHOT_FILES = {
    "flow": "BENCH_flow.json",
    "flit": "BENCH_flit.json",
    "obs": "BENCH_obs.json",
    "churn": "BENCH_churn.json",
}

#: minimum full-recompile/incremental pairs ratio for one cable failure
#: on the 8-port 3-tree (the churn acceptance gate)
CHURN_PAIRS_REDUCTION = 10.0


def git_rev() -> str | None:
    """Short git revision of the working tree, or ``None`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def host_fingerprint() -> dict:
    """Enough host identity to judge whether two snapshots are
    comparable at all (same interpreter? same machine class?)."""
    return {
        "python": _platform.python_version(),
        "platform": sys.platform,
        "machine": _platform.machine(),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class BenchSnapshot:
    """One benchmark's perf record (the ``BENCH_*.json`` payload).

    ``metrics`` maps a metric name to a dict that always carries
    ``wall_s`` and ``cpu_s`` and may add derived fields (throughputs,
    speedups, overhead fractions); ``checks`` holds named booleans
    (parity, budget compliance) that must never be ``False``.
    """

    benchmark: str
    metrics: dict[str, dict]
    checks: dict[str, bool] = field(default_factory=dict)
    quick: bool = False
    schema: int = SCHEMA_VERSION
    version: str | None = None
    git_rev: str | None = None
    host: dict = field(default_factory=dict)
    created_at: str | None = None

    @classmethod
    def create(cls, benchmark: str, metrics: dict, *,
               checks: dict | None = None, quick: bool = False
               ) -> "BenchSnapshot":
        from repro import __version__

        return cls(
            benchmark=benchmark,
            metrics=metrics,
            checks=dict(checks or {}),
            quick=quick,
            version=__version__,
            git_rev=git_rev(),
            host=host_fingerprint(),
            created_at=datetime.now(timezone.utc).isoformat(
                timespec="seconds"),
        )

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "benchmark": self.benchmark,
            "version": self.version,
            "git_rev": self.git_rev,
            "host": dict(self.host),
            "quick": self.quick,
            "created_at": self.created_at,
            "checks": dict(self.checks),
            "metrics": {k: dict(v) for k, v in self.metrics.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchSnapshot":
        if "benchmark" not in data or "metrics" not in data:
            raise ReproError("not a bench snapshot: missing "
                             "'benchmark'/'metrics'")
        return cls(
            benchmark=str(data["benchmark"]),
            metrics={k: dict(v) for k, v in data["metrics"].items()},
            checks=dict(data.get("checks", {})),
            quick=bool(data.get("quick", False)),
            schema=int(data.get("schema", 0)),
            version=data.get("version"),
            git_rev=data.get("git_rev"),
            host=dict(data.get("host", {})),
            created_at=data.get("created_at"),
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def read(cls, path) -> "BenchSnapshot":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read bench snapshot {path}: {exc}"
                             ) from None


def _timed(fn):
    """``(wall_s, cpu_s, result)`` of one call."""
    w0, c0 = perf_counter(), process_time()
    result = fn()
    return perf_counter() - w0, process_time() - c0, result


def _best_of(fn, rounds: int = 3):
    """Minimum wall/CPU over several rounds (scheduler-noise robust)."""
    wall = cpu = float("inf")
    for _ in range(rounds):
        w, c, _ = _timed(fn)
        wall, cpu = min(wall, w), min(cpu, c)
    return wall, cpu


# -- benchmark bodies --------------------------------------------------

def bench_flow(quick: bool = True) -> BenchSnapshot:
    """Reference vs compiled permutation-MLOAD evaluation."""
    import numpy as np

    from repro.flow.engine import BatchFlowEngine
    from repro.flow.loads import link_loads
    from repro.flow.metrics import max_link_load
    from repro.routing.compiled import compile_scheme
    from repro.routing.factory import make_scheme
    from repro.topology.variants import m_port_n_tree
    from repro.traffic.permutations import (permutation_matrix,
                                            random_permutation)

    xgft = m_port_n_tree(4, 2) if quick else m_port_n_tree(8, 3)
    samples = 32 if quick else 128
    scheme = make_scheme(xgft, "disjoint:4")
    rng = np.random.default_rng(2012)
    perms = np.stack([random_permutation(xgft.n_procs, rng)
                      for _ in range(samples)])

    def reference():
        return np.array([
            max_link_load(link_loads(xgft, scheme, permutation_matrix(p)))
            for p in perms
        ])

    engine = BatchFlowEngine(compile_scheme(xgft, scheme))
    reference_result = reference()          # warm + parity sample
    batch_result = engine.permutation_mloads(perms)
    parity = bool(np.allclose(batch_result, reference_result, atol=1e-9))

    ref_wall, ref_cpu = _best_of(reference)
    compile_wall, compile_cpu = _best_of(
        lambda: BatchFlowEngine(compile_scheme(xgft, scheme)))
    batch_wall, batch_cpu = _best_of(
        lambda: engine.permutation_mloads(perms))

    metrics = {
        "reference_eval": {
            "wall_s": ref_wall, "cpu_s": ref_cpu,
            "perms_per_s": samples / ref_wall if ref_wall > 0 else 0.0,
        },
        "compile": {"wall_s": compile_wall, "cpu_s": compile_cpu},
        "compiled_eval": {
            "wall_s": batch_wall, "cpu_s": batch_cpu,
            "perms_per_s": samples / batch_wall if batch_wall > 0 else 0.0,
            "speedup_vs_reference": (ref_wall / batch_wall
                                     if batch_wall > 0 else float("inf")),
        },
    }
    return BenchSnapshot.create("flow", metrics,
                                checks={"parity_ok": parity}, quick=quick)


def bench_flit(quick: bool = True) -> BenchSnapshot:
    """Serial vs parallel vs warm-cache flit sweep grid, plus the
    reference-vs-batched engine gate on the 8-port 3-tree."""
    from repro.flit.batched import make_flit_simulator
    from repro.flit.config import FlitConfig
    from repro.flit.engine import FlitSimulator
    from repro.flit.workload import UniformRandom
    from repro.routing.factory import make_scheme
    from repro.runner.cache import ResultCache
    from repro.runner.sweep import run_sweeps
    from repro.topology.variants import m_port_n_tree

    if quick:
        xgft = m_port_n_tree(4, 2)
        loads = (0.2, 0.6)
        config = FlitConfig(warmup_cycles=100, measure_cycles=400,
                            drain_cycles=400, seed=2012)
        jobs = 2
    else:
        xgft = m_port_n_tree(8, 3)
        loads = (0.2, 0.4, 0.6, 0.8)
        config = FlitConfig(warmup_cycles=500, measure_cycles=2500,
                            drain_cycles=2500, seed=2012)
        jobs = 4
    sims = {spec: FlitSimulator(xgft, make_scheme(xgft, spec), config)
            for spec in ("d-mod-k", "disjoint:4")}
    n_points = len(sims) * len(loads)

    serial_wall, serial_cpu, serial = _timed(
        lambda: run_sweeps(sims, loads=loads))
    parallel_wall, parallel_cpu, parallel = _timed(
        lambda: run_sweeps(sims, loads=loads, n_jobs=jobs))

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        _timed(lambda: run_sweeps(sims, loads=loads,
                                  cache=ResultCache(cache_dir)))
        warm_wall, warm_cpu, warm = _timed(
            lambda: run_sweeps(sims, loads=loads,
                               cache=ResultCache(cache_dir)))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    def _equal(a, b):
        for key in a:  # bit-exact, NaN-tolerant SweepResult comparison
            for ra, rb in zip(a[key].runs, b[key].runs):
                for f in ra.__dataclass_fields__:
                    va, vb = getattr(ra, f), getattr(rb, f)
                    if va != vb and not (va != va and vb != vb):
                        return False
        return True

    # Reference vs batched engine.  The >= FLIT_ENGINE_SPEEDUP gate is
    # defined on the 8-port 3-tree, so this leg keeps that topology even
    # in quick mode and shortens the windows instead.
    eng_xgft = m_port_n_tree(8, 3)
    eng_cfg = (FlitConfig(warmup_cycles=200, measure_cycles=1000,
                          drain_cycles=1000, seed=2012)
               if quick else config)
    eng_loads = (0.2, 0.6) if quick else loads
    eng_scheme = make_scheme(eng_xgft, "disjoint:4")
    ref_sim = make_flit_simulator("reference", eng_xgft, eng_scheme, eng_cfg)
    bat_sim = make_flit_simulator("batched", eng_xgft, eng_scheme, eng_cfg)

    def _engine_runs(sim):
        return [sim.run(UniformRandom(load)) for load in eng_loads]

    ref_runs = _engine_runs(ref_sim)
    bat_runs = _engine_runs(bat_sim)   # warm-up: absorbs the one-time
    # native-kernel compile so the timed rounds see steady state
    engine_parity = all(
        all((getattr(ra, f) == getattr(rb, f)
             or (getattr(ra, f) != getattr(ra, f)
                 and getattr(rb, f) != getattr(rb, f)))
            for f in ra.__dataclass_fields__)
        for ra, rb in zip(ref_runs, bat_runs))
    eng_ref_wall, eng_ref_cpu = _best_of(lambda: _engine_runs(ref_sim),
                                         rounds=2 if quick else 3)
    eng_bat_wall, eng_bat_cpu = _best_of(lambda: _engine_runs(bat_sim),
                                         rounds=2 if quick else 3)
    engine_speedup = (eng_ref_wall / eng_bat_wall
                      if eng_bat_wall > 0 else float("inf"))

    metrics = {
        "serial": {
            "wall_s": serial_wall, "cpu_s": serial_cpu,
            "points_per_s": (n_points / serial_wall
                             if serial_wall > 0 else 0.0),
        },
        "parallel": {
            "wall_s": parallel_wall, "cpu_s": parallel_cpu,
            "jobs": jobs,
            "speedup_vs_serial": (serial_wall / parallel_wall
                                  if parallel_wall > 0 else float("inf")),
        },
        "warm_cache": {
            "wall_s": warm_wall, "cpu_s": warm_cpu,
            "replay_speedup": (serial_wall / warm_wall
                               if warm_wall > 0 else float("inf")),
        },
        "engine_reference": {
            "wall_s": eng_ref_wall, "cpu_s": eng_ref_cpu,
        },
        "engine_batched": {
            "wall_s": eng_bat_wall, "cpu_s": eng_bat_cpu,
            "speedup_vs_reference": engine_speedup,
        },
    }
    checks = {
        "parallel_parity_ok": _equal(serial, parallel),
        "cache_parity_ok": _equal(serial, warm),
        "engine_parity_ok": engine_parity,
        "engine_speedup_ok": engine_speedup >= FLIT_ENGINE_SPEEDUP,
    }
    return BenchSnapshot.create("flit", metrics, checks=checks, quick=quick)


def measure_obs_overhead(*, quick: bool = True, rounds: int = 7,
                         reps: int = 5) -> dict:
    """Recorder overhead on the flow hot path (the <5 % budget).

    Returns raw/disabled/enabled median timings plus the derived
    overhead fractions (medians of the per-round ratios) and the budget
    verdict.  Each timed block runs at least ``reps`` calls and lasts at
    least :data:`MIN_TIMED_BLOCK_S`.
    Shared by ``benchmarks/bench_obs_overhead.py`` (which *asserts* the
    budget) and :func:`bench_obs` (which snapshots the measured value).
    """
    from statistics import median

    from repro.flow.loads import link_loads
    from repro.flow.metrics import max_link_load
    from repro.flow.simulator import FlowSimulator
    from repro.obs.recorder import Recorder, use_recorder
    from repro.routing.factory import make_scheme
    from repro.topology.variants import m_port_n_tree
    from repro.traffic.permutations import (permutation_matrix,
                                            random_permutation)

    xgft = m_port_n_tree(4, 2) if quick else m_port_n_tree(8, 3)
    sim = FlowSimulator(xgft)
    scheme = make_scheme(xgft, "disjoint:8")
    tm = permutation_matrix(random_permutation(xgft.n_procs, 0))

    def raw():
        return max_link_load(link_loads(xgft, scheme, tm))

    def disabled():
        return sim.max_load(scheme, tm)  # ambient recorder is the no-op

    def enabled():
        with use_recorder(Recorder()):
            return sim.max_load(scheme, tm)

    disabled(), enabled()  # warm caches outside the timings
    calls, t0 = 0, perf_counter()
    while perf_counter() - t0 < MIN_TIMED_BLOCK_S:
        raw()
        calls += 1
    reps = max(reps, calls)

    def timed(fn):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        return (perf_counter() - t0) / reps

    # Each round times the three variants forward then backward, so
    # clock-speed drift within the round (turbo decay, a noisy
    # neighbour) hits them symmetrically; the medians over rounds then
    # drop the rounds a burst of noise landed on.  (A best-of estimate
    # swings by +-10 % on a shared host: one variant catching a lucky
    # fast block decides it.)
    t_raw, t_disabled, t_enabled = [], [], []
    for _ in range(rounds):
        a, b, c = timed(raw), timed(disabled), timed(enabled)
        t_enabled.append((c + timed(enabled)) / 2)
        t_disabled.append((b + timed(disabled)) / 2)
        t_raw.append((a + timed(raw)) / 2)
    disabled_overhead = median(
        d / r for d, r in zip(t_disabled, t_raw)) - 1.0
    return {
        "raw_s": median(t_raw),
        "disabled_s": median(t_disabled),
        "enabled_s": median(t_enabled),
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": median(
            e / r for e, r in zip(t_enabled, t_raw)) - 1.0,
        "budget": OBS_OVERHEAD_BUDGET,
        "within_budget": disabled_overhead <= OBS_OVERHEAD_BUDGET,
    }


def bench_obs(quick: bool = True) -> BenchSnapshot:
    """Observability overhead: disabled and enabled recorder cost.

    Always measures on the full-size topology: the hot-path call is
    sub-millisecond either way, and the quick (4x2) variant is so short
    that scheduler noise dwarfs the 5 % budget the check enforces.
    """
    measured = measure_obs_overhead(quick=False, rounds=25, reps=7)
    metrics = {
        "flow_hot_path_raw": {
            "wall_s": measured["raw_s"], "cpu_s": measured["raw_s"],
        },
        "flow_hot_path_disabled_recorder": {
            "wall_s": measured["disabled_s"], "cpu_s": measured["disabled_s"],
            "overhead_fraction": measured["disabled_overhead"],
            "budget_fraction": measured["budget"],
        },
        "flow_hot_path_enabled_recorder": {
            "wall_s": measured["enabled_s"], "cpu_s": measured["enabled_s"],
            "overhead_fraction": measured["enabled_overhead"],
        },
    }
    return BenchSnapshot.create(
        "obs", metrics,
        checks={"disabled_overhead_within_budget": measured["within_budget"]},
        quick=quick)


def bench_churn(quick: bool = True) -> BenchSnapshot:
    """Incremental re-routing vs from-scratch recompile under churn.

    Always measures on the 8-port 3-tree: that is where the acceptance
    gate states its numbers (a single cable failure must recompute
    >=10x fewer pairs than a full recompile, bit-identically).  ``quick``
    only shortens the event stream.
    """
    import numpy as np

    from repro.faults.churn import (ChurnEvent, ChurnSpec,
                                    IncrementalDegradedScheme,
                                    generate_trace)
    from repro.faults.degraded import DegradedFabric
    from repro.faults.scheme import DegradedScheme
    from repro.faults.spec import samplable_cables
    from repro.routing.factory import make_scheme
    from repro.topology.variants import m_port_n_tree

    xgft = m_port_n_tree(8, 3)
    n_events = 8 if quick else 32
    base = make_scheme(xgft, "disjoint:4")
    trace = generate_trace(xgft, ChurnSpec(n_events=n_events, seed=2012))

    def all_pairs_by_level():
        n = xgft.n_procs
        keys = np.arange(n * n, dtype=np.int64)
        s, d = np.divmod(keys, n)
        k_arr = xgft.nca_level(s, d)
        return [(k, s[k_arr == k], d[k_arr == k])
                for k in range(1, xgft.h + 1) if (k_arr == k).any()]

    groups = all_pairs_by_level()

    prepare_wall, prepare_cpu = _best_of(
        lambda: IncrementalDegradedScheme(base))

    def replay_once():
        inc = IncrementalDegradedScheme(base)
        w0, c0 = perf_counter(), process_time()
        stats = inc.replay(trace)
        return perf_counter() - w0, process_time() - c0, (inc, stats)

    inc_wall = inc_cpu = float("inf")
    inc = stats = None
    for _ in range(3):
        w, c, (inc, stats) = replay_once()
        inc_wall, inc_cpu = min(inc_wall, w), min(inc_cpu, c)
    pairs_recomputed = sum(st.pairs_recomputed for st in stats)

    def full_once():
        fabric = DegradedFabric(xgft)
        w0, c0 = perf_counter(), process_time()
        scheme = None
        for event in trace:
            event.apply(fabric)
            scheme = DegradedScheme(base, fabric)
            for k, s, d in groups:
                scheme.path_index_matrix(s, d, k)
                scheme.path_weight_matrix(s, d, k)
        return perf_counter() - w0, process_time() - c0, scheme

    full_wall = full_cpu = float("inf")
    full = None
    for _ in range(3):
        w, c, full = full_once()
        full_wall, full_cpu = min(full_wall, w), min(full_cpu, c)

    # Differential check: after the whole stream, incremental state is
    # bit-identical to the from-scratch recompile, every level.
    equivalence = True
    for k, s, d in groups:
        if not (np.array_equal(inc.path_index_matrix(s, d, k),
                               full.path_index_matrix(s, d, k))
                and np.array_equal(inc.path_weight_matrix(s, d, k),
                                   full.path_weight_matrix(s, d, k))):
            equivalence = False

    # Acceptance gate: one cable failure touches >=10x fewer pairs than
    # a full recompile.  The first samplable cable is a level-1 cable,
    # the common case (a leaf uplink dying).
    single = IncrementalDegradedScheme(base)
    gate = single.apply_event(
        ChurnEvent("fail", "cable", samplable_cables(xgft)[0]))
    reduction = gate.pairs_total / max(1, gate.pairs_recomputed)

    metrics = {
        "prepare": {"wall_s": prepare_wall, "cpu_s": prepare_cpu},
        "incremental_replay": {
            "wall_s": inc_wall, "cpu_s": inc_cpu,
            "events": len(trace),
            "pairs_recomputed": pairs_recomputed,
            "events_per_s": len(trace) / inc_wall if inc_wall > 0 else 0.0,
        },
        "full_recompile": {
            "wall_s": full_wall, "cpu_s": full_cpu,
            "events": len(trace),
            "speedup_vs_incremental": (full_wall / inc_wall
                                       if inc_wall > 0 else float("inf")),
        },
    }
    checks = {
        "equivalence_ok": equivalence,
        "pairs_reduction_ok": bool(reduction >= CHURN_PAIRS_REDUCTION),
    }
    metrics["incremental_replay"]["single_cable_pairs_reduction"] = reduction
    return BenchSnapshot.create("churn", metrics, checks=checks, quick=quick)


BENCHMARKS = {"flow": bench_flow, "flit": bench_flit, "obs": bench_obs,
              "churn": bench_churn}


def run_benchmarks(names=None, *, quick: bool = False
                   ) -> dict[str, BenchSnapshot]:
    """Run the named benchmarks (default: all) and return snapshots."""
    selected = list(names) if names else list(BENCHMARKS)
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise ReproError(f"unknown benchmark(s) {unknown}; "
                         f"available: {sorted(BENCHMARKS)}")
    return {name: BENCHMARKS[name](quick=quick) for name in selected}


def write_snapshots(snapshots: dict[str, BenchSnapshot],
                    out_dir=".") -> list[Path]:
    """Write each snapshot to its ``BENCH_*.json`` file under
    ``out_dir``; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, snap in snapshots.items():
        path = out / SNAPSHOT_FILES[name]
        snap.write(path)
        paths.append(path)
    return paths


# -- the regression gate -----------------------------------------------

@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-current wall time."""

    name: str
    baseline_wall_s: float
    current_wall_s: float

    @property
    def comparable(self) -> bool:
        """Whether the baseline is above timer resolution.  A phase that
        took (effectively) zero time in the baseline cannot express a
        meaningful growth ratio — 0.1 ms to 0.4 ms is jitter, not a 4x
        regression — so such phases never fail the gate."""
        return self.baseline_wall_s >= MIN_COMPARABLE_WALL_S

    @property
    def ratio(self) -> float:
        if self.baseline_wall_s <= 0:
            return float("inf") if self.current_wall_s > 0 else 1.0
        return self.current_wall_s / self.baseline_wall_s


@dataclass
class SnapshotComparison:
    """The verdict of :func:`compare_snapshots` for one benchmark."""

    benchmark: str
    threshold: float
    deltas: list[MetricDelta]
    failed_checks: list[str]
    missing_metrics: list[str]

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas
                if d.comparable and d.ratio > 1.0 + self.threshold]

    @property
    def not_comparable(self) -> list[MetricDelta]:
        """Phases whose baseline is below timer resolution (see
        :data:`MIN_COMPARABLE_WALL_S`); excluded from the gate."""
        return [d for d in self.deltas if not d.comparable]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.failed_checks

    def render(self) -> str:
        def verdict(d: MetricDelta) -> str:
            if not d.comparable:
                return "not comparable (sub-resolution baseline)"
            return "REGRESSED" if d.ratio > 1.0 + self.threshold else "ok"

        rows = [[d.name, f"{d.baseline_wall_s:.4f}",
                 f"{d.current_wall_s:.4f}",
                 f"{d.ratio:.2f}x" if d.comparable else "n/a",
                 verdict(d)]
                for d in sorted(
                    self.deltas,
                    key=lambda d: -(d.ratio if d.comparable else 0.0))]
        out = format_table(
            ["metric", "baseline s", "current s", "ratio", "verdict"],
            rows, title=f"{self.benchmark}  (threshold "
                        f"+{self.threshold:.0%})")
        notes = []
        if self.failed_checks:
            notes.append("failed checks: " + ", ".join(self.failed_checks))
        if self.missing_metrics:
            notes.append("metrics not in both snapshots: "
                         + ", ".join(self.missing_metrics))
        return out + ("\n" + "\n".join(notes) if notes else "")


def compare_snapshots(baseline, current, *,
                      threshold: float = DEFAULT_THRESHOLD
                      ) -> SnapshotComparison:
    """Compare two snapshots; flags wall-time growth beyond ``threshold``.

    ``baseline`` / ``current`` accept :class:`BenchSnapshot` instances,
    raw dicts, or file paths.  Metrics present in only one snapshot are
    reported but never fail the gate (renamed metrics should not block
    unrelated work); a check that was true in the baseline and false in
    the current snapshot always fails it.
    """
    def coerce(obj) -> BenchSnapshot:
        if isinstance(obj, BenchSnapshot):
            return obj
        if isinstance(obj, dict):
            return BenchSnapshot.from_dict(obj)
        return BenchSnapshot.read(obj)

    base, cur = coerce(baseline), coerce(current)
    if base.benchmark != cur.benchmark:
        raise ReproError(
            f"snapshot mismatch: baseline is {base.benchmark!r}, "
            f"current is {cur.benchmark!r}")
    deltas = []
    missing = sorted(set(base.metrics) ^ set(cur.metrics))
    for name in base.metrics:
        if name not in cur.metrics:
            continue
        b, c = base.metrics[name], cur.metrics[name]
        if "wall_s" not in b or "wall_s" not in c:
            continue
        deltas.append(MetricDelta(name, float(b["wall_s"]),
                                  float(c["wall_s"])))
    failed = sorted(
        name for name, ok in cur.checks.items()
        if not ok and base.checks.get(name, True))
    return SnapshotComparison(cur.benchmark, threshold, deltas, failed,
                              missing)
