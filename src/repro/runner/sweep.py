"""Parallel, resumable offered-load sweeps over (scheme x load x repeat).

The paper's flit-level artifacts — Figure 5's delay curves and Table 1's
maximum-throughput cells — are grids of *independent* simulator runs:
one per (scheme, offered load, repeat) point.  :func:`run_sweeps` fans
that grid out:

* **determinism** — every point's seed comes from :func:`point_seed`,
  the exact formula the serial :func:`repro.flit.sweep.load_sweep` uses
  (``config.seed + 1000 * repeat``), and the flit engine is a pure
  function of ``(workload, seed)``; parallel and serial runs therefore
  produce bit-identical :class:`~repro.flit.sweep.SweepResult` values;
* **pool lifecycle** — one :class:`~repro.runner.pool.PersistentPool`
  serves every point of every scheme: the simulators (with their
  compiled route tables) ship to each worker once as a pool context,
  not once per task;
* **resumability** — with a :class:`~repro.runner.cache.ResultCache`,
  each point is probed before it is scheduled and stored after it is
  computed, so re-running an interrupted sweep replays the completed
  points from disk and only simulates the remainder.  A fully warm
  cache performs zero simulator runs.

Telemetry: ``runner.points_total`` / ``runner.points_computed``
counters, plus the pool and cache counters of the underlying layers;
each merged load point emits the same ``flit_load_point`` event as the
serial sweep.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Mapping, Sequence

from repro.errors import RunnerError
from repro.flit.engine import FlitSimulator
from repro.flit.stats import FlitRunResult
from repro.flit.sweep import SweepResult, _merge_runs, default_loads
from repro.flit.workload import UniformRandom, Workload
from repro.obs.recorder import get_recorder
from repro.obs.trace import span
from repro.runner.cache import ResultCache, cache_key
from repro.runner.pool import PersistentPool, load_context


def point_seed(config, rep: int) -> int:
    """The serial sweep's per-repeat workload seed (shared here so
    parallel and cached replays reproduce serial runs bit for bit)."""
    return config.seed + 1000 * rep


def point_key(sim: FlitSimulator, load: float, rep: int,
              workload_factory=UniformRandom) -> str:
    """Cache key for one (scheme, load, repeat) grid point."""
    scheme = sim.scheme
    return cache_key({
        "kind": "flit_run",
        "code_version": _version(),
        "topology": repr(sim.xgft),
        "scheme": scheme.label,
        "scheme_repr": repr(scheme),
        "scheme_seed": getattr(scheme, "seed", None),
        "config": asdict(sim.config),
        "workload": getattr(workload_factory, "__qualname__",
                            repr(workload_factory)),
        "load": load,
        "seed": point_seed(sim.config, rep),
    })


def _version() -> str:
    from repro import __version__

    return __version__


def _flit_point_task(token: str, label: str, load: float, seed: int):
    """Pool worker: simulate one grid point against the shipped context.

    Runs under whatever recorder the pool's task wrapper installed
    (:meth:`~repro.runner.pool.PersistentPool.submit_task` builds a
    per-task recorder and ships its snapshot back), so the simulator's
    ``flit.*`` counters/histograms and this ``flit.point`` span land in
    the parent recorder.
    """
    ctx = load_context(token)
    sim: FlitSimulator = ctx["sims"][label]
    workload: Workload = ctx["workload_factory"](load)
    rec = get_recorder()
    with span("flit.point", scheme=label, load=load, seed=seed):
        with rec.timer("flit.point_eval"):
            return sim.run(workload, seed=seed)


def run_sweeps(
    sims: Mapping[str, FlitSimulator],
    *,
    loads: Sequence[float] | None = None,
    repeats: int = 1,
    workload_factory=UniformRandom,
    n_jobs: int = 1,
    pool: PersistentPool | None = None,
    cache: ResultCache | None = None,
) -> dict[str, SweepResult]:
    """Sweep every simulator in ``sims`` across ``loads``.

    Parameters
    ----------
    sims:
        Mapping of a caller-chosen key to a ready
        :class:`FlitSimulator` bound to a topology and scheme.  Keys
        only need to be unique within the call (e.g.
        ``"random:2@seed1"``); each returned :class:`SweepResult`
        carries the scheme's own label.  A :meth:`~repro.flit.engine.
        FlitSimulator.from_tables` simulator has no scheme to key its
        cached points by, and is rejected.
    loads, repeats, workload_factory:
        As in :func:`repro.flit.sweep.load_sweep`; ``repeats > 1``
        averages per-load statistics over per-repeat seeds.
    n_jobs:
        Worker processes.  1 runs inline; results are identical either
        way for a fixed seed.
    pool:
        Optional externally owned :class:`PersistentPool` (kept open —
        the caller closes it).  When ``None`` and ``n_jobs > 1`` a
        private pool is created for this call and closed afterwards.
    cache:
        Optional :class:`ResultCache`; hit points skip simulation
        entirely and computed points are stored for future runs.

    Returns the per-key :class:`SweepResult` dict (insertion order of
    ``sims``).
    """
    if repeats < 1:
        raise RunnerError(f"repeats must be >= 1, got {repeats}")
    if n_jobs < 1:
        raise RunnerError(f"n_jobs must be >= 1, got {n_jobs}")
    for label, sim in sims.items():
        if sim.scheme is None:
            raise RunnerError(
                f"simulator {label!r} has no routing scheme (built by "
                f"from_tables); sweeps key and label points by scheme")
    rec = get_recorder()
    load_list = tuple(loads) if loads is not None else default_loads()
    labels = list(sims)

    # 1. Plan the grid and replay cached points.
    points = [(label, load, rep)
              for label in labels for load in load_list
              for rep in range(repeats)]
    rec.count("runner.points_total", len(points))
    results: dict[tuple, FlitRunResult] = {}
    keys: dict[tuple, str] = {}
    pending: list[tuple] = []
    for point in points:
        label, load, rep = point
        if cache is not None:
            key = point_key(sims[label], load, rep, workload_factory)
            keys[point] = key
            hit = cache.get(key)
            if hit is not None:
                results[point] = hit
                continue
        pending.append(point)

    # 2. Compute the misses.
    if pending:
        if pool is not None or n_jobs > 1:
            owned = None
            use = pool
            if use is None:
                use = owned = PersistentPool(n_jobs)
            try:
                with span("runner.run_sweeps", points=len(pending),
                          schemes=len(labels)):
                    token = use.put_context({
                        "sims": dict(sims),
                        "workload_factory": workload_factory,
                    })
                    futures = [
                        (point, use.submit_task(
                            _flit_point_task, token, point[0], point[1],
                            point_seed(sims[point[0]].config, point[2])))
                        for point in pending
                    ]
                    for point, future in futures:
                        result, snapshot = future.result()
                        results[point] = result
                        if snapshot is not None:
                            rec.merge(snapshot)
            finally:
                if owned is not None:
                    owned.close()
        else:
            for label in labels:
                sim = sims[label]
                for load in load_list:
                    todo = [p for p in pending
                            if p[0] == label and p[1] == load]
                    if not todo:
                        continue
                    with rec.timer("flit.load_point"):
                        for point in todo:
                            results[point] = sim.run(
                                workload_factory(load),
                                seed=point_seed(sim.config, point[2]))
        rec.count("runner.points_computed", len(pending))
        if cache is not None:
            for point in pending:
                cache.put(keys[point], results[point])

    # 3. Merge repeats and assemble per-key sweeps (serial semantics).
    out: dict[str, SweepResult] = {}
    for label in labels:
        sim = sims[label]
        scheme_label = sim.scheme.label
        merged_runs = []
        for load in load_list:
            merged = _merge_runs(
                [results[(label, load, rep)] for rep in range(repeats)])
            if rec.enabled:
                rec.event(
                    "flit_load_point",
                    scheme=scheme_label,
                    offered_load=merged.offered_load,
                    throughput=merged.throughput,
                    mean_delay=merged.mean_delay,
                    completion_ratio=merged.completion_ratio,
                    saturated=merged.saturated,
                )
            merged_runs.append(merged)
        out[label] = SweepResult(scheme_label, tuple(merged_runs))
    return out
