"""Offered-load sweeps and saturation detection.

The paper "varies the offered load till the network reaches saturation
where the throughput drops sharply", reporting delay-vs-load curves
(Figure 5) and the maximum aggregate throughput per scheme (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.flit.config import FlitConfig
from repro.flit.stats import FlitRunResult
from repro.flit.workload import UniformRandom, Workload
from repro.routing.base import RoutingScheme
from repro.topology.xgft import XGFT


@dataclass(frozen=True)
class SweepResult:
    """All run results of one scheme across offered loads."""

    scheme_label: str
    runs: tuple[FlitRunResult, ...]

    @property
    def loads(self) -> tuple[float, ...]:
        return tuple(r.offered_load for r in self.runs)

    @property
    def throughputs(self) -> tuple[float, ...]:
        return tuple(r.throughput for r in self.runs)

    @property
    def delays(self) -> tuple[float, ...]:
        return tuple(r.mean_delay for r in self.runs)

    @property
    def max_throughput(self) -> float:
        """The paper's Table 1 metric: the best delivered rate achieved
        at any offered load."""
        return max(self.throughputs) if self.runs else 0.0

    def saturation_load(self) -> float:
        """Lowest offered load at which the network is saturated (falls
        back to the highest load swept when it never saturates)."""
        for r in self.runs:
            if r.saturated:
                return r.offered_load
        return self.runs[-1].offered_load if self.runs else 0.0


def default_loads(step: float = 0.1, max_load: float = 1.0) -> tuple[float, ...]:
    """Evenly spaced offered loads ``step, 2*step, ..., max_load``."""
    count = int(round(max_load / step))
    return tuple(round(step * i, 10) for i in range(1, count + 1))


def load_sweep(
    xgft: XGFT,
    scheme: RoutingScheme,
    config: FlitConfig,
    *,
    loads: Sequence[float] | None = None,
    workload_factory: Callable[[float], Workload] = UniformRandom,
    repeats: int = 1,
    engine: str = "batched",
) -> SweepResult:
    """Run ``scheme`` at each offered load with fresh Poisson workloads.

    ``repeats > 1`` averages several seeds per load point (results keep
    the mean of each statistic).  Routes are compiled once and shared by
    all runs.  ``engine`` selects the flit backend (:data:`repro.flit.
    batched.ENGINES`); the default ``batched`` engine is bit-identical to
    the ``reference``, so the choice changes only wall-clock time.

    This is the one-scheme call of :func:`repro.runner.sweep.run_sweeps`,
    which also takes worker processes and a result cache.
    """
    # Lazy import: repro.runner.sweep imports this module.
    from repro.runner.sweep import run_sweeps

    return run_sweeps(
        xgft, {scheme.label: scheme}, config, loads=loads, repeats=repeats,
        workload_factory=workload_factory, engine=engine,
    )[scheme.label]


def _merge_runs(runs: list[FlitRunResult]) -> FlitRunResult:
    if len(runs) == 1:
        return runs[0]

    def mean(attr: str) -> float:
        vals = [getattr(r, attr) for r in runs]
        vals = [v for v in vals if v == v]  # drop NaNs
        return float(np.mean(vals)) if vals else float("nan")

    # Python's max() is order-sensitive around NaN (NaN wins every
    # comparison it appears first in and loses every one it appears
    # second in), so a saturated repeat could silently poison — or be
    # silently dropped from — the merged maximum depending on run
    # order.  Take the max over the finite repeats; NaN only when every
    # repeat delivered nothing.
    max_delays = np.asarray([r.max_delay for r in runs], dtype=np.float64)
    with np.errstate(invalid="ignore"):
        max_delay = (float(np.nanmax(max_delays))
                     if np.any(~np.isnan(max_delays)) else float("nan"))

    return FlitRunResult(
        offered_load=runs[0].offered_load,
        injected_load=mean("injected_load"),
        throughput=mean("throughput"),
        mean_delay=mean("mean_delay"),
        p95_delay=mean("p95_delay"),
        max_delay=max_delay,
        messages_measured=sum(r.messages_measured for r in runs),
        messages_completed=sum(r.messages_completed for r in runs),
        sim_cycles=max(r.sim_cycles for r in runs),
        events=sum(r.events for r in runs),
    )
