"""Experiment registry: the names the CLI dispatches on.

:func:`run_experiment` is the bare dispatcher; :func:`run_instrumented`
wraps it with the observability layer — it runs the experiment under a
recorder (:mod:`repro.obs`) and returns an :class:`ExperimentRun`
bundling the result with a :class:`~repro.obs.RunManifest` recording the
invocation (experiment, fidelity, seed, argv, versions, wall time,
sample counts) so the run is reproducible from the artifact alone.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import partial
from importlib import import_module
from time import perf_counter
from typing import Callable

from repro.errors import ReproError
from repro.flow.loads import kernels_ran as flow_kernels_ran
from repro.obs import RunManifest, get_recorder, use_recorder


@dataclass(frozen=True)
class Experiment:
    """A named, runnable reproduction target.

    ``runner`` is ``"module:function"`` under :mod:`repro.experiments`,
    plus ``":arg"`` for a leading positional argument (Figure 4's panel);
    the module is imported only when the experiment runs, so listing
    experiments stays cheap.  What the runner accepts is read from its
    signature (see :data:`OPTIONS`).
    """

    name: str
    description: str
    runner: str

    def load(self) -> Callable[..., object]:
        """Import and return the runner (its result has ``.render()``)."""
        module, function, *args = self.runner.split(":")
        fn = getattr(import_module(f"repro.experiments.{module}"), function)
        return partial(fn, *args) if args else fn


EXPERIMENTS: dict[str, Experiment] = {e.name: e for e in (
    *(Experiment(f"figure4{p}", f"Figure 4({p}): avg max permutation load vs K",
                 f"figure4:run_panel:{p}")
      for p in "abcd"),
    Experiment("table1", "Table 1: max throughput, uniform traffic, flit level",
               "table1:run"),
    Experiment("figure5", "Figure 5: message delay vs offered load, flit level",
               "figure5:run"),
    Experiment("theorems", "Lemma 1 / Theorem 1 / Theorem 2 validation",
               "theorems:run"),
    Experiment("resources", "InfiniBand LID budget vs path limit (motivation)",
               "resources:run"),
    Experiment("ratios", "empirical oblivious-ratio lower bounds per scheme",
               "ratios:run"),
    Experiment("exact-ratios", "exact oblivious ratios via LP (small trees)",
               "exact_ratios:run"),
    Experiment("fault-sweep", "avg max permutation load vs link failure rate",
               "fault_sweep:run"),
    Experiment("churn-sweep", "MLOAD trajectory under streaming fail/repair churn",
               "churn_sweep:run"),
    Experiment("ablations", "seven ablations of what the paper holds constant",
               "ablations:run"),
)}

#: CLI option -> the runner keyword it is forwarded as.  An experiment
#: supports an option when its runner's signature names that keyword.
OPTIONS = {
    "engine": "engine",
    "fault_rate": "rates",
    "fault_links": "fault_links",
    "fault_seed": "fault_seed",
    "churn_events": "n_events",
    "churn_seed": "churn_seed",
    "jobs": "n_jobs",
    "cache": "cache",
}

#: option values that ask for nothing, so every experiment accepts them
#: (``cache=False`` too: it is never forwarded)
_NO_OP = {"engine": "reference", "jobs": 1}


def keywords(runner: Callable[..., object]) -> frozenset[str]:
    """The keywords ``runner`` names; a ``**kwargs`` catch-all names none."""
    return frozenset(
        p.name for p in inspect.signature(runner).parameters.values()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY))


def get_experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ReproError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def run_experiment(name: str, **kwargs):
    """Run a registered experiment and return its result object."""
    return get_experiment(name).load()(**kwargs)


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

    ``recorder`` defaults to the ambient one and is installed as ambient
    for the duration, so every instrumented layer (sampling rounds, the
    flit engine, scheme construction) reports into it.  ``seed`` and
    ``fidelity_name`` reach the runner only when it names them (``seed``
    only when given, so each experiment keeps its documented default),
    and the manifest records each only when it reached the runner, so
    its replay command names no option that did not apply.

    The CLI options (``engine``, ``fault_rate``, ``fault_links``,
    ``fault_seed``, ``churn_events``, ``churn_seed``, ``jobs``, and
    ``cache`` / ``cache_dir``) are forwarded under their :data:`OPTIONS`
    keyword when the runner names it; ``cache_dir`` alone implies
    caching, and the runner gets a
    :class:`~repro.runner.cache.ResultCache`.  Giving an option the
    runner does not name is a :class:`~repro.errors.ReproError`, except
    for the do-nothing values ``engine="reference"``, ``jobs=1`` and
    ``cache=False``.  Other keyword arguments go to the runner as is.

    With the recorder enabled, a run whose flit runs took the batched
    engine gets ``extra["flit_kernel"]``: what they actually ran,
    ``"native"`` or ``"reference: <why>"``, joined by ``"; "`` when runs
    differ (see :func:`repro.flit.batched.kernels_ran`).  Without it, a
    runner whose engine is ``"batched"`` (the flit runners' default)
    records whether the kernel is available.  With the recorder enabled,
    a run that evaluated flow loads also gets ``extra["flow_kernel"]``:
    ``"native"`` or ``"numpy: <why>"``, joined the same way (see
    :func:`repro.flow.loads.kernels_ran`).
    """
    rec = recorder if recorder is not None else get_recorder()
    runner = get_experiment(name).load()
    accepts = keywords(runner)
    want_cache = cache if cache is not None else cache_dir is not None
    options = {
        "engine": engine, "fault_rate": fault_rate, "fault_links": fault_links,
        "fault_seed": fault_seed, "churn_events": churn_events,
        "churn_seed": churn_seed, "jobs": jobs, "cache": want_cache or None,
    }
    for option, value in options.items():
        if value is None:
            continue
        if OPTIONS[option] in accepts:
            kwargs[OPTIONS[option]] = value
        elif value != _NO_OP.get(option):
            flag = "--" + option.replace("_", "-")
            raise ReproError(f"experiment {name!r} does not support {flag}")
    if kwargs.get("cache"):
        from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache

        kwargs["cache"] = ResultCache(
            cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR)
    # the engine the runner takes: as forwarded, else its default
    batched = kwargs.get("engine", getattr(
        inspect.signature(runner).parameters.get("engine"), "default",
        None)) == "batched"
    if seed is not None and "seed" in accepts:
        kwargs["seed"] = seed
    if "fidelity_name" in accepts:
        kwargs["fidelity_name"] = fidelity_name
    manifest = RunManifest.create(
        name, fidelity=kwargs.get("fidelity_name"), seed=kwargs.get("seed"),
        argv=tuple(argv) if argv is not None else None,
    )
    if batched:
        from repro.flit import native

        manifest.extra["flit_kernel"] = (
            "native" if native.available()
            else f"reference: {native.unavailable_reason()}")
    before = rec.timers
    t0 = perf_counter()
    with use_recorder(rec), rec.timer(f"experiment.{name}"):
        result = runner(**kwargs)
    manifest.wall_time_s = perf_counter() - t0
    if rec.enabled:
        timers = {timer: (seconds, calls - before.get(timer, (0.0, 0))[1])
                  for timer, (seconds, calls) in rec.timers.items()}
        from repro.flit.batched import kernels_ran as flit_kernels_ran

        ran = {"flow_kernel": flow_kernels_ran(timers),
               "flit_kernel": flit_kernels_ran(timers)}
        manifest.extra.update(
            (field, what) for field, what in ran.items() if what is not None)
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
