"""Experiment registry: names the CLI and benchmarks dispatch on.

:func:`run_experiment` is the bare dispatcher; :func:`run_instrumented`
wraps it with the observability layer — it runs the experiment under a
recorder (:mod:`repro.obs`) and returns an :class:`ExperimentRun`
bundling the result with a :class:`~repro.obs.RunManifest` recording the
invocation (experiment, fidelity, seed, argv, versions, wall time,
sample counts) so the run is reproducible from the artifact alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.errors import ReproError
from repro.obs import RunManifest, get_recorder, use_recorder


@dataclass(frozen=True)
class Experiment:
    """A named, runnable reproduction target.

    ``engine_aware`` marks experiments whose runner accepts the
    ``engine`` keyword — the flow-level permutation studies
    (``reference`` / ``compiled``) and the flit-level sweeps
    (``reference`` / ``batched``); the CLI's ``--engine`` flag is only
    forwarded to those, and each runner validates the engine names its
    own layer registers.  ``fault_aware`` marks
    runners accepting the fault-injection keywords (``fault_rate`` /
    ``fault_links`` / ``fault_seed``); the CLI's ``--fault-*`` flags are
    only forwarded to those.  ``runner_aware`` marks runners accepting
    the parallel-execution keywords (``n_jobs`` / ``cache`` — the flit
    sweep grids); the CLI's ``--jobs`` / ``--cache`` / ``--cache-dir``
    flags are only forwarded to those.  ``churn_aware`` marks runners
    accepting the event-stream keywords (``n_events`` / ``churn_seed``);
    the CLI's ``--churn-*`` flags are only forwarded to those.
    """

    name: str
    description: str
    runner: Callable[..., object]  # returns a result with .render()
    engine_aware: bool = False
    fault_aware: bool = False
    runner_aware: bool = False
    churn_aware: bool = False


def _figure4_runner(panel: str):
    def run(**kwargs):
        from repro.experiments.figure4 import run_panel

        return run_panel(panel, **kwargs)

    return run


def _table1(**kwargs):
    from repro.experiments import table1

    return table1.run(**kwargs)


def _figure5(**kwargs):
    from repro.experiments import figure5

    return figure5.run(**kwargs)


def _theorems(**kwargs):
    from repro.experiments import theorems

    return theorems.run(**kwargs)


def _resources(**kwargs):
    from repro.experiments import resources

    return resources.run(**kwargs)


def _ratios(**kwargs):
    from repro.experiments import ratios

    return ratios.run(**kwargs)


def _exact_ratios(**kwargs):
    from repro.experiments import exact_ratios

    return exact_ratios.run(**kwargs)


def _fault_sweep(**kwargs):
    from repro.experiments import fault_sweep

    return fault_sweep.run(**kwargs)


def _churn_sweep(**kwargs):
    from repro.experiments import churn_sweep

    return churn_sweep.run(**kwargs)


EXPERIMENTS: dict[str, Experiment] = {
    **{
        f"figure4{p}": Experiment(
            f"figure4{p}",
            f"Figure 4({p}): avg max permutation load vs K",
            _figure4_runner(p),
            engine_aware=True,
        )
        for p in "abcd"
    },
    "table1": Experiment(
        "table1", "Table 1: max throughput, uniform traffic, flit level",
        _table1, engine_aware=True, runner_aware=True,
    ),
    "figure5": Experiment(
        "figure5", "Figure 5: message delay vs offered load, flit level",
        _figure5, engine_aware=True, runner_aware=True,
    ),
    "theorems": Experiment(
        "theorems", "Lemma 1 / Theorem 1 / Theorem 2 validation", _theorems
    ),
    "resources": Experiment(
        "resources", "InfiniBand LID budget vs path limit (motivation)", _resources
    ),
    "ratios": Experiment(
        "ratios", "empirical oblivious-ratio lower bounds per scheme", _ratios,
        engine_aware=True,
    ),
    "exact-ratios": Experiment(
        "exact-ratios", "exact oblivious ratios via LP (small trees)",
        _exact_ratios,
    ),
    "fault-sweep": Experiment(
        "fault-sweep", "avg max permutation load vs link failure rate",
        _fault_sweep, engine_aware=True, fault_aware=True,
    ),
    "churn-sweep": Experiment(
        "churn-sweep",
        "MLOAD trajectory under streaming fail/repair churn",
        _churn_sweep, runner_aware=True, churn_aware=True,
    ),
}


def get_experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ReproError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(name: str, **kwargs):
    """Run a registered experiment and return its result object."""
    return get_experiment(name).runner(**kwargs)


@dataclass(frozen=True)
class ExperimentRun:
    """An experiment result plus its provenance and telemetry."""

    name: str
    result: object  # the experiment's result (has .render())
    manifest: RunManifest
    recorder: object  # the recorder the run executed under


def run_instrumented(
    name: str,
    *,
    fidelity_name: str = "normal",
    seed: int | None = None,
    recorder=None,
    argv: tuple[str, ...] | None = None,
    engine: str | None = None,
    fault_rate: tuple[float, ...] | None = None,
    fault_links: tuple[int, ...] | None = None,
    fault_seed: int | None = None,
    jobs: int | None = None,
    cache: bool | None = None,
    cache_dir: str | None = None,
    churn_events: int | None = None,
    churn_seed: int | None = None,
    **kwargs,
) -> ExperimentRun:
    """Run an experiment under a recorder and attach a manifest.

    ``seed`` is forwarded to the runner only when given, so each
    experiment keeps its documented default; ``recorder`` defaults to
    the ambient one and is installed as ambient for the duration, so
    every instrumented layer (sampling rounds, the flit engine, scheme
    construction) reports into it.  ``engine`` (``"reference"`` /
    ``"compiled"`` for flow experiments, ``"reference"`` / ``"batched"``
    for flit experiments) is forwarded only to engine-aware experiments;
    requesting a non-reference engine anywhere else is an error rather
    than a silent no-op.  With ``engine="batched"`` the manifest's
    ``extra["flit_kernel"]`` records which path the flit runs took:
    ``"native"`` or ``"reference: <why>"``, joined by ``"; "`` when runs
    differ.  With the recorder enabled that is what actually ran (see
    :func:`repro.flit.batched.kernels_ran`); otherwise it is whether the
    kernel is available.  The fault
    keywords (``fault_rate`` failure-rate grid, ``fault_links`` explicit
    cable ids, ``fault_seed``) mirror
    that contract: forwarded to fault-aware experiments, an error
    elsewhere.  So do the runner keywords: ``jobs`` (worker processes)
    and ``cache`` / ``cache_dir`` (on-disk result cache; ``cache_dir``
    alone implies caching) reach runner-aware experiments as ``n_jobs``
    and a :class:`~repro.runner.cache.ResultCache`, and are an error
    elsewhere (``jobs=1`` / ``cache=False``, the do-nothing values, are
    accepted everywhere).  The churn keywords (``churn_events`` stream
    length, ``churn_seed`` trace seed) reach churn-aware experiments as
    ``n_events`` / ``churn_seed``, and are an error elsewhere.
    """
    rec = recorder if recorder is not None else get_recorder()
    experiment = get_experiment(name)
    if engine is not None:
        if experiment.engine_aware:
            kwargs["engine"] = engine
        elif engine != "reference":
            raise ReproError(
                f"experiment {name!r} does not support --engine {engine}"
            )
    for key, value in (("rates", fault_rate), ("fault_links", fault_links),
                       ("fault_seed", fault_seed)):
        if value is None:
            continue
        if not experiment.fault_aware:
            raise ReproError(
                f"experiment {name!r} does not support fault injection "
                f"(--fault-rate/--fault-links/--fault-seed)"
            )
        kwargs[key] = value
    for key, value in (("n_events", churn_events),
                       ("churn_seed", churn_seed)):
        if value is None:
            continue
        if not experiment.churn_aware:
            raise ReproError(
                f"experiment {name!r} does not support churn replay "
                f"(--churn-events/--churn-seed)"
            )
        kwargs[key] = value
    if jobs is not None:
        if experiment.runner_aware:
            kwargs["n_jobs"] = jobs
        elif jobs != 1:
            raise ReproError(
                f"experiment {name!r} does not support --jobs"
            )
    want_cache = cache if cache is not None else (cache_dir is not None)
    if want_cache:
        if not experiment.runner_aware:
            raise ReproError(
                f"experiment {name!r} does not support --cache/--cache-dir"
            )
        from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache

        kwargs["cache"] = ResultCache(
            cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR)
    manifest = RunManifest.create(
        name, fidelity=fidelity_name, seed=seed,
        argv=tuple(argv) if argv is not None else None,
    )
    if engine == "batched":
        from repro.flit import native

        manifest.extra["flit_kernel"] = (
            "native" if native.available()
            else f"reference: {native.unavailable_reason()}")
    if seed is not None:
        kwargs["seed"] = seed
    before = rec.timers
    t0 = perf_counter()
    with use_recorder(rec), rec.timer(f"experiment.{name}"):
        result = run_experiment(name, fidelity_name=fidelity_name, **kwargs)
    manifest.wall_time_s = perf_counter() - t0
    if engine == "batched" and rec.enabled:
        from repro.flit.batched import kernels_ran

        ran = kernels_ran({
            timer: (seconds, calls - before.get(timer, (0.0, 0))[1])
            for timer, (seconds, calls) in rec.timers.items()})
        if ran is not None:
            manifest.extra["flit_kernel"] = ran
    for attr, field in (("samples_used", "samples_used"),
                        ("topology", "topology")):
        value = getattr(result, attr, None)
        if value is not None:
            setattr(manifest, field, value)
    labels = sorted({str(e["scheme"]) for e in rec.events
                     if "scheme" in e})
    if labels:
        manifest.schemes = tuple(labels)
    return ExperimentRun(name, result, manifest, rec)
