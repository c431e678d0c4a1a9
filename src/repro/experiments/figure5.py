"""Figure 5: average message delay vs offered load (flit level).

On the 8-port 3-tree under uniform traffic, plot mean message delay
against offered load for the paper's curve set: d-mod-k, disjoint(2),
disjoint(8), shift-1(2), shift-1(8), random(1), random(2), random(8).
Expected shape: hockey-stick curves (tree saturation under virtual
cut-through), multi-path schemes saturating at higher load than
d-mod-k, and disjoint's knee rightmost for equal K.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import Fidelity, fidelity
from repro.flit.config import FlitConfig
from repro.flit.sweep import SweepResult
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.util.ascii_chart import AsciiChart
from repro.util.tables import format_table

#: the paper's Figure 5 curve specs
CURVES = (
    "d-mod-k",
    "disjoint:2",
    "disjoint:8",
    "shift-1:2",
    "shift-1:8",
    "random:1",
    "random:2",
    "random:8",
)

DEFAULT_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class Figure5Result:
    """Delay-vs-load sweeps per curve."""

    topology: str
    loads: tuple[float, ...]
    sweeps: dict[str, SweepResult]

    def rows(self) -> list[list]:
        out = []
        for i, load in enumerate(self.loads):
            row: list = [load]
            for spec in self.sweeps:
                row.append(self.sweeps[spec].delays[i])
            out.append(row)
        return out

    def render(self) -> str:
        table = format_table(
            ["load", *self.sweeps.keys()], self.rows(),
            title=f"Figure 5: mean message delay (cycles), {self.topology}",
            floatfmt=".1f",
        )
        chart = AsciiChart(width=60, height=16)
        for spec, sweep in self.sweeps.items():
            # Clip the post-saturation explosion so pre-knee shape stays
            # readable; saturation is still visible as the series ending.
            xs, ys = [], []
            for load, delay, run in zip(sweep.loads, sweep.delays, sweep.runs):
                if delay == delay and not run.saturated:
                    xs.append(load)
                    ys.append(delay)
            if xs:
                chart.add_series(spec, xs, ys)
        return table + "\n\n" + chart.render(
            xlabel="offered load", ylabel="delay"
        )


def run(
    *,
    fidelity_name: str | Fidelity = "normal",
    topology: XGFT | None = None,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    config: FlitConfig | None = None,
    curves: tuple[str, ...] = CURVES,
    seed: int | None = None,
    n_jobs: int = 1,
    cache=None,
    engine: str = "batched",
) -> Figure5Result:
    """Regenerate Figure 5's delay curves.

    ``seed`` overrides the workload RNG seed (ignored when an explicit
    ``config`` already carries one).  The whole (curve x load x repeat)
    grid is one :func:`~repro.runner.sweep.run_sweeps` call:
    ``n_jobs > 1`` fans it out over one process pool and ``cache`` (a
    :class:`~repro.runner.cache.ResultCache`) replays completed points
    from disk; both return results bit-identical to an inline run for a
    fixed seed.  ``engine`` selects the flit backend: the native
    ``batched`` kernel by default (it runs the reference engine when the
    kernel cannot run), or the bit-identical ``reference`` oracle.
    """
    from repro.runner import sweep

    fid = fidelity(fidelity_name)
    xgft = topology if topology is not None else m_port_n_tree(8, 3)
    cfg = config if config is not None else FlitConfig(
        warmup_cycles=fid.warmup_cycles,
        measure_cycles=fid.measure_cycles,
        drain_cycles=fid.drain_cycles,
        seed=seed if seed is not None else 0,
    )
    sweeps = sweep.run_sweeps(
        xgft, {spec: make_scheme(xgft, spec) for spec in curves}, cfg,
        loads=loads, repeats=fid.flit_repeats, engine=engine,
        n_jobs=n_jobs, cache=cache)
    return Figure5Result(repr(xgft), tuple(loads), sweeps)
