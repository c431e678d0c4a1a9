"""Outside-in layer trace: wrap each layer's public calls, record spans.

:func:`install` patches the functions and methods in :data:`TARGETS`
with wrappers that record one span per call into a :class:`Tracer`:
name, start, end, parent span and the id of the experiment call (the
trace) it belongs to.  Nothing inside ``src/`` changes and the program's
own recorder is never switched on, so the native flit kernel stays on
the traced path.  :func:`layer_metrics` turns the spans into per-layer
self times, counts and ratios; "self" is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from functools import wraps
from time import perf_counter


class Tracer:
    """In-memory span store; one trace id per experiment call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._trace = 0
        self._t0 = perf_counter()

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {"id": len(self.spans), "name": name,
                "parent": parent["id"] if parent else None,
                "trace": self._trace, "start": perf_counter() - self._t0,
                "end": None, "child_s": 0.0, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter() - self._t0
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    @contextmanager
    def operation(self, name: str):
        """The span of one experiment call; it starts a new trace."""
        self._trace += 1
        span = self._open("experiment")
        span["attrs"]["op"] = name
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, attrs_of=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs_of is not None:
                span["attrs"].update(attrs_of(args, result))
            return result
        return traced


def _plan_attrs(args, plan) -> dict:
    return {"pairs": plan.n_pairs, "nbytes": plan.nbytes}


def _flit_attrs(args, result) -> dict:
    return {"events": result.events, "saturated": result.saturated}


def _sweep_attrs(args, out) -> dict:
    # (scheme, load) points, repeats merged
    return {"points": sum(len(s.runs) for s in out.values())}


#: (module, attribute, span name, attrs from (args, result)).  Functions
#: are patched in the modules that call them by name; methods on their
#: class, which covers every caller.
TARGETS = (
    *(("repro.experiments." + m, "make_scheme", "routing.make_scheme", None)
      for m in ("common", "figure4", "fault_sweep", "churn_sweep", "table1",
                "figure5")),
    ("repro.flow.sampling", "compile_scheme", "routing.compile", _plan_attrs),
    ("repro.flow.simulator", "compile_scheme", "routing.compile", _plan_attrs),
    ("repro.flow.engine", "BatchFlowEngine.__init__", "flow.plan_build", None),
    ("repro.flow.engine", "BatchFlowEngine.permutation_mloads",
     "flow.batch_eval", lambda args, _: {"perms": len(args[1])}),
    ("repro.flow.simulator", "FlowSimulator.max_load", "flow.ref_eval", None),
    ("repro.experiments.churn_sweep", "link_loads", "flow.ref_eval", None),
    ("repro.flow.sampling", "PermutationStudy.run", "flow.study",
     lambda args, r: {"samples": r.interval.n_samples}),
    ("repro.flit.engine", "compile_routes", "flit.build", None),
    ("repro.flit.engine", "FlitSimulator.run", "flit.run", _flit_attrs),
    ("repro.flit.batched", "BatchedFlitSimulator.run", "flit.run", _flit_attrs),
    ("repro.runner.sweep", "run_sweeps", "runner.sweep", _sweep_attrs),
    ("repro.runner.cache", "ResultCache.get", "runner.cache_get",
     lambda args, r: {"hit": r is not None}),
    ("repro.runner.cache", "ResultCache.put", "runner.cache_put", None),
    ("repro.experiments.fault_sweep", "sample_connected_fabric",
     "faults.sample", None),
    ("repro.faults.scheme", "DegradedScheme.__init__", "faults.degrade", None),
    ("repro.faults.churn", "IncrementalDegradedScheme.__init__",
     "faults.prepare", None),
    ("repro.faults.churn", "IncrementalDegradedScheme.apply_event",
     "faults.reroute", lambda args, r: {"pairs": r.pairs_recomputed}),
    ("repro.obs.events", "write_run", "obs.log_write", None),
    ("repro.obs.report", "render_report", "obs.report", None),
    *((f"repro.experiments.{m}", f"{cls}.render", "experiments.render", None)
      for m, cls in (("figure4", "Figure4Result"),
                     ("fault_sweep", "FaultSweepResult"),
                     ("churn_sweep", "ChurnSweepResult"),
                     ("table1", "Table1Result"),
                     ("figure5", "Figure5Result"))),
)


def _owner(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer):
    """Patch every target to record into ``tracer``; returns the function
    that puts the originals back."""
    saved = []
    try:
        for module, attribute, name, attrs_of in TARGETS:
            owner, attr = _owner(module, attribute)
            # vars(): a method inherited from a base class is patched on
            # the base, never copied onto the subclass
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, attrs_of))
            saved.append((owner, attr, original))
    except BaseException:
        restore(saved)
        raise
    return lambda: restore(saved)


def restore(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


#: every per-layer metric and its unit, in report order
LAYER_UNITS = {
    "routing.make_scheme_s": "s", "routing.make_scheme_calls": "count",
    "routing.compile_s": "s", "routing.compile_calls": "count",
    "routing.compile_pairs_per_s": "1/s", "routing.plan_mb_max": "MB",
    "flow.plan_build_s": "s",
    "flow.batch_eval_s": "s", "flow.batch_perms": "count",
    "flow.batch_perms_per_s": "1/s",
    "flow.ref_eval_s": "s", "flow.ref_evals": "count",
    "flow.ref_evals_per_s": "1/s",
    "flow.study_self_s": "s", "flow.studies": "count",
    "flow.samples_per_study": "count",
    "flit.build_s": "s", "flit.builds": "count",
    "flit.run_s": "s", "flit.runs": "count", "flit.events": "count",
    "flit.events_per_s": "1/s", "flit.run_p50_ms": "ms",
    "flit.run_p90_ms": "ms", "flit.saturated_runs": "count",
    "runner.sweep_s": "s", "runner.points": "count",
    "runner.cache_get_s": "s", "runner.cache_put_s": "s",
    "runner.cache_hit_ratio": "ratio",
    "faults.sample_s": "s", "faults.degrade_s": "s", "faults.prepare_s": "s",
    "faults.reroute_s": "s", "faults.reroute_p50_ms": "ms",
    "faults.pairs_recomputed": "count",
    "obs.log_write_s": "s", "obs.report_s": "s", "obs.log_bytes": "bytes",
    "obs.trace_overhead": "ratio",
    "experiments.render_s": "s", "experiments.self_s": "s",
    "trace.attributed_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but ``obs.trace_overhead``,
    which needs the untraced passes)."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    names = {span["id"]: span["name"] for span in spans}

    def of(name):
        return by_name.get(name, [])

    def dur(span):
        return span["end"] - span["start"]

    def self_s(name):
        return sum(dur(s) - s["child_s"] for s in of(name))

    def total(name, key):
        return sum(s["attrs"].get(key, 0) for s in of(name))

    # the batched engine falls back to the reference run on long horizons;
    # count that as one run, not two
    runs = [s for s in of("flit.run") if names.get(s["parent"]) != "flit.run"]
    ops = of("experiment")
    gets = of("runner.cache_get")
    studies = of("flow.study")
    plans = of("routing.compile")
    attributed = sum(dur(s) - s["child_s"] for s in spans
                     if s["name"] != "experiment")

    m = {
        "routing.make_scheme_s": self_s("routing.make_scheme"),
        "routing.make_scheme_calls": len(of("routing.make_scheme")),
        "routing.compile_s": self_s("routing.compile"),
        "routing.compile_calls": len(plans),
        "routing.compile_pairs_per_s": _ratio(
            total("routing.compile", "pairs"), self_s("routing.compile")),
        "routing.plan_mb_max": max(
            (s["attrs"]["nbytes"] for s in plans), default=0) / 2**20,
        "flow.plan_build_s": self_s("flow.plan_build"),
        "flow.batch_eval_s": self_s("flow.batch_eval"),
        "flow.batch_perms": total("flow.batch_eval", "perms"),
        "flow.batch_perms_per_s": _ratio(total("flow.batch_eval", "perms"),
                                         self_s("flow.batch_eval")),
        "flow.ref_eval_s": self_s("flow.ref_eval"),
        "flow.ref_evals": len(of("flow.ref_eval")),
        "flow.ref_evals_per_s": _ratio(len(of("flow.ref_eval")),
                                       self_s("flow.ref_eval")),
        "flow.study_self_s": self_s("flow.study"),
        "flow.studies": len(studies),
        "flow.samples_per_study": _ratio(total("flow.study", "samples"),
                                         len(studies)),
        "flit.build_s": self_s("flit.build"),
        "flit.builds": len(of("flit.build")),
        "flit.run_s": self_s("flit.run"),
        "flit.runs": len(runs),
        "flit.events": sum(s["attrs"]["events"] for s in runs),
        "flit.events_per_s": _ratio(sum(s["attrs"]["events"] for s in runs),
                                    self_s("flit.run")),
        "flit.run_p50_ms": 1e3 * _percentile([dur(s) for s in runs], 0.5),
        "flit.run_p90_ms": 1e3 * _percentile([dur(s) for s in runs], 0.9),
        "flit.saturated_runs": sum(1 for s in runs if s["attrs"]["saturated"]),
        "runner.sweep_s": self_s("runner.sweep"),
        "runner.points": total("runner.sweep", "points"),
        "runner.cache_get_s": self_s("runner.cache_get"),
        "runner.cache_put_s": self_s("runner.cache_put"),
        "runner.cache_hit_ratio": _ratio(
            sum(1 for s in gets if s["attrs"]["hit"]), len(gets)),
        "faults.sample_s": self_s("faults.sample"),
        "faults.degrade_s": self_s("faults.degrade"),
        "faults.prepare_s": self_s("faults.prepare"),
        "faults.reroute_s": self_s("faults.reroute"),
        "faults.reroute_p50_ms": 1e3 * _percentile(
            [dur(s) for s in of("faults.reroute")], 0.5),
        "faults.pairs_recomputed": total("faults.reroute", "pairs"),
        "obs.log_write_s": self_s("obs.log_write"),
        "obs.report_s": self_s("obs.report"),
        "obs.log_bytes": sum(op["attrs"].get("log_bytes", 0) for op in ops),
        "experiments.render_s": self_s("experiments.render"),
        "experiments.self_s": self_s("experiment"),
        "trace.attributed_frac": _ratio(attributed, wall_s),
    }
    return {name: float(value) for name, value in m.items()}
