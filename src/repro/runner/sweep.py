"""Offered-load sweeps over (scheme x load x repeat), resumable.

The paper's flit-level artifacts — Figure 5's delay curves and Table 1's
maximum-throughput cells — are grids of *independent* simulator runs:
one per (scheme, offered load, repeat) point.  :func:`run_sweeps` is the
one path every such grid takes:

* **determinism** — every point's seed comes from :func:`point_seed`
  (``config.seed + 1000 * repeat``), and the flit engine is a pure
  function of ``(workload, seed)``; inline, pooled and cached runs
  therefore produce bit-identical :class:`~repro.flit.sweep.SweepResult`
  values;
* **simulators built once, only where needed** — a simulator (with its
  route table) is built only for a scheme that still has uncached
  points.  Inline (``n_jobs == 1``) each is built, run and dropped
  before the next, so a grid never holds more than one route table.
  With ``n_jobs > 1`` the pending ones are built up front and reach one
  :class:`~concurrent.futures.ProcessPoolExecutor` through its
  initializer: fork workers inherit them, spawn and forkserver workers
  unpickle them once each, and a task carries only its grid point;
* **resumability** — with a :class:`~repro.runner.cache.ResultCache`,
  each point is probed before it is scheduled and stored as soon as it
  is computed, so re-running an interrupted sweep replays the completed
  points from disk and only simulates the remainder.  A fully warm
  cache builds no simulator and performs zero runs;
* **prompt stops** — when a pooled point raises, or ^C interrupts the
  caller, the points not yet started are cancelled and the error is
  re-raised at once; the points already stored stay in the cache.

Telemetry: ``runner.points_total`` / ``runner.points_computed``
counters, a ``flit.point`` timer around each point's run (a pooled
point runs under its own recorder, whose snapshot merges into the
caller's in submission order), ``runner.pool_workers`` (worker
processes started) and ``runner.pool_tasks`` (points submitted), plus
the cache counters; each merged load point emits a ``flit_load_point``
event.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict
from typing import Mapping, Sequence

from repro.errors import RunnerError
from repro.flit.batched import flit_engine_class, make_flit_simulator
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator
from repro.flit.stats import FlitRunResult
from repro.flit.sweep import SweepResult, _merge_runs, default_loads
from repro.flit.workload import UniformRandom
from repro.obs.recorder import Recorder, get_recorder, use_recorder
from repro.routing.base import RoutingScheme
from repro.runner.cache import ResultCache, cache_key
from repro.topology.xgft import XGFT


def point_seed(config, rep: int) -> int:
    """The workload seed of repeat ``rep`` (shared by every execution
    mode so pooled and cached replays reproduce inline runs bit for
    bit)."""
    return config.seed + 1000 * rep


def point_key(xgft: XGFT, scheme: RoutingScheme, config: FlitConfig,
              load: float, rep: int, workload_factory=UniformRandom) -> str:
    """Cache key for one (scheme, load, repeat) grid point."""
    return cache_key({
        "kind": "flit_run",
        "code_version": _version(),
        "topology": repr(xgft),
        "scheme": scheme.label,
        "scheme_repr": repr(scheme),
        "scheme_seed": getattr(scheme, "seed", None),
        "config": asdict(config),
        "workload": getattr(workload_factory, "__qualname__",
                            repr(workload_factory)),
        "load": load,
        "seed": point_seed(config, rep),
    })


def _version() -> str:
    from repro import __version__

    return __version__


#: a pool worker's ``(simulators by label, workload factory)``, set once
#: by :func:`_init_worker`
_GRID: tuple[dict[str, FlitSimulator], object] | None = None


def _init_worker(sims: dict[str, FlitSimulator], workload_factory) -> None:
    """Pool initializer: keep the grid for the worker's lifetime."""
    global _GRID
    _GRID = sims, workload_factory


def _run_point(sim: FlitSimulator, workload_factory, load: float,
               seed: int) -> FlitRunResult:
    """Simulate one grid point under a ``flit.point`` timer."""
    with get_recorder().timer("flit.point"):
        return sim.run(workload_factory(load), seed=seed)


def _pool_task(label: str, load: float, seed: int, recording: bool):
    """Pool worker: simulate one grid point of the initializer's grid.

    Returns ``(result, snapshot)``.  When the caller's recorder was
    enabled the point runs under a fresh :class:`~repro.obs.Recorder`
    and ``snapshot`` is its state, for the caller to merge; otherwise it
    runs under the no-op recorder (an enabled recorder inherited across
    ``fork`` cannot slow the worker down) and ``snapshot`` is ``None``.
    """
    sims, workload_factory = _GRID
    rec = Recorder() if recording else None
    with use_recorder(rec):
        result = _run_point(sims[label], workload_factory, load, seed)
    return result, rec.snapshot() if rec is not None else None


def run_sweeps(
    xgft: XGFT,
    schemes: Mapping[str, RoutingScheme],
    config: FlitConfig,
    *,
    loads: Sequence[float] | None = None,
    repeats: int = 1,
    workload_factory=UniformRandom,
    engine: str = "batched",
    n_jobs: int = 1,
    cache: ResultCache | None = None,
) -> dict[str, SweepResult]:
    """Sweep every scheme in ``schemes`` across ``loads`` on ``xgft``.

    Parameters
    ----------
    schemes:
        Mapping of a caller-chosen key to a routing scheme built for
        ``xgft``.  Keys only need to be unique within the call (e.g.
        ``"random:2@1"``); each returned :class:`SweepResult` carries
        the scheme's own label.
    config:
        The flit configuration every simulator runs with.
    loads, repeats, workload_factory:
        Offered loads (default :func:`~repro.flit.sweep.default_loads`),
        seeds per load, and the load -> workload factory;
        ``repeats > 1`` averages per-load statistics over per-repeat
        seeds.
    engine:
        The flit backend (:data:`repro.flit.batched.ENGINES`): the
        native ``batched`` kernel by default, bit-identical to the
        ``reference`` oracle it falls back to.
    n_jobs:
        Worker processes.  1 runs inline, one simulator at a time;
        results are identical either way for a fixed seed.
    cache:
        Optional :class:`ResultCache`; hit points skip simulation
        entirely and each computed point is stored as soon as it is
        computed.

    Returns the per-key :class:`SweepResult` dict (insertion order of
    ``schemes``).
    """
    if repeats < 1:
        raise RunnerError(f"repeats must be >= 1, got {repeats}")
    if n_jobs < 1:
        raise RunnerError(f"n_jobs must be >= 1, got {n_jobs}")
    flit_engine_class(engine)  # an unknown engine fails even when all is cached
    rec = get_recorder()
    load_list = tuple(loads) if loads is not None else default_loads()

    # 1. Plan the grid and replay cached points.
    rec.count("runner.points_total",
              len(schemes) * len(load_list) * repeats)
    results: dict[tuple, FlitRunResult] = {}
    keys: dict[tuple, str] = {}
    pending: dict[str, list[tuple]] = {}
    for label, scheme in schemes.items():
        for load in load_list:
            for rep in range(repeats):
                point = (label, load, rep)
                if cache is not None:
                    keys[point] = point_key(xgft, scheme, config, load, rep,
                                            workload_factory)
                    hit = cache.get(keys[point])
                    if hit is not None:
                        results[point] = hit
                        continue
                pending.setdefault(label, []).append(point)

    def store(point: tuple, result: FlitRunResult) -> None:
        results[point] = result
        if cache is not None:
            cache.put(keys[point], result)

    # 2. Compute the misses, building simulators only for their schemes.
    n_pending = sum(len(todo) for todo in pending.values())
    if n_jobs == 1:
        for label, todo in pending.items():
            sim = make_flit_simulator(engine, xgft, schemes[label], config)
            for point in todo:
                store(point, _run_point(sim, workload_factory, point[1],
                                        point_seed(config, point[2])))
            del sim  # drop this route table before building the next
    elif pending:
        sims = {label: make_flit_simulator(engine, xgft, schemes[label],
                                           config)
                for label in pending}
        pool = ProcessPoolExecutor(n_jobs, initializer=_init_worker,
                                   initargs=(sims, workload_factory))
        rec.count("runner.pool_workers", n_jobs)
        # An error or ^C cancels the queued points and re-raises at once;
        # a ``with`` block's exit would wait for all of them instead.
        try:
            futures = {
                pool.submit(_pool_task, label, load, point_seed(config, rep),
                            rec.enabled): (label, load, rep)
                for todo in pending.values() for label, load, rep in todo
            }
            rec.count("runner.pool_tasks", len(futures))
            snapshots = {}
            for future in as_completed(futures):
                point = futures[future]
                result, snapshots[point] = future.result()
                store(point, result)
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
        # Merge in submission order so the event stream is deterministic.
        for point in futures.values():
            if snapshots[point] is not None:
                rec.merge(snapshots[point])
    if n_pending:
        rec.count("runner.points_computed", n_pending)

    # 3. Merge repeats and assemble per-key sweeps.
    out: dict[str, SweepResult] = {}
    for label, scheme in schemes.items():
        merged_runs = []
        for load in load_list:
            merged = _merge_runs(
                [results[(label, load, rep)] for rep in range(repeats)])
            if rec.enabled:
                rec.event(
                    "flit_load_point",
                    scheme=scheme.label,
                    offered_load=merged.offered_load,
                    throughput=merged.throughput,
                    mean_delay=merged.mean_delay,
                    completion_ratio=merged.completion_ratio,
                    saturated=merged.saturated,
                )
            merged_runs.append(merged)
        out[label] = SweepResult(scheme.label, tuple(merged_runs))
    return out
