"""Fault sweep: average maximum permutation load vs link failure rate.

For each failure rate, sample a *connected* degraded fabric (seeded,
reproducible; fabrics whose combined faults strand a pair are resampled
with the next seed) and rerun the paper's adaptive permutation protocol
for every scheme wrapped in :class:`~repro.faults.DegradedScheme`.
Expected shape: d-mod-k degrades fastest (a single surviving path per
pair concentrates the rerouted traffic), the limited multi-path
heuristics degrade gracefully, and UMULTI's full fan-out is the most
fault-tolerant — the fault-tolerance argument the paper makes
qualitatively, quantified.

Rate 0.0 is the pristine fabric, so every curve's left endpoint must
reproduce the Figure 4 numbers exactly (regression-tested).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultError
from repro.experiments.common import Fidelity, fidelity
from repro.faults import DegradedFabric, DegradedScheme, FaultSpec
from repro.flow.sampling import PermutationStudy
from repro.obs.recorder import get_recorder
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree
from repro.topology.xgft import XGFT
from repro.util.ascii_chart import AsciiChart
from repro.util.tables import format_table

#: the sweep's curve specs: single-path baseline, limited multi-path at
#: K in {2, 4}, and the full fan-out upper bound
CURVES = (
    "d-mod-k",
    "shift-1:2",
    "shift-1:4",
    "disjoint:2",
    "disjoint:4",
    "random:2",
    "random:4",
    "umulti",
)

DEFAULT_RATES = (0.0, 0.02, 0.05, 0.10)

#: resample budget per rate before giving up on finding a connected fabric
MAX_FABRIC_TRIES = 64


@dataclass(frozen=True)
class FaultPoint:
    """One sweep point: a degraded fabric and every curve's MLOAD on it."""

    rate: float
    tag: str
    fabric_seed: int
    mloads: dict[str, float]


@dataclass(frozen=True)
class FaultSweepResult:
    """Per-scheme MLOAD as the fabric degrades."""

    topology: str
    curves: tuple[str, ...]
    points: tuple[FaultPoint, ...]
    samples_used: int

    def rows(self) -> list[list]:
        return [
            [p.rate, p.tag] + [p.mloads[c] for c in self.curves]
            for p in self.points
        ]

    def render(self) -> str:
        table = format_table(
            ["rate", "fabric", *self.curves], self.rows(),
            title=f"Fault sweep: avg max permutation load, {self.topology}",
        )
        chart = AsciiChart(width=60, height=14)
        for c in self.curves:
            chart.add_series(
                c, [p.rate for p in self.points],
                [p.mloads[c] for p in self.points],
            )
        return table + "\n\n" + chart.render(
            xlabel="link failure rate", ylabel="load"
        )


def sample_connected_fabric(
    xgft: XGFT,
    link_rate: float,
    seed: int,
    *,
    switch_rate: float = 0.0,
    max_tries: int = MAX_FABRIC_TRIES,
) -> DegradedFabric:
    """A connected degraded fabric at the requested rates.

    Independent faults can jointly cover some pair's whole path set even
    when no single fault is critical; such fabrics are resampled with
    consecutive seeds (counted as ``faults.fabrics_resampled``) so the
    sweep conditions on connectivity, as fabric-management studies do.
    """
    rec = get_recorder()
    for attempt in range(max_tries):
        spec = FaultSpec(link_rate=link_rate, switch_rate=switch_rate,
                         seed=seed + attempt)
        fabric = spec.sample(xgft)
        if fabric.is_connected:
            if rec.enabled and attempt:
                rec.count("faults.fabrics_resampled", attempt)
            return fabric
    raise FaultError(
        f"no connected fabric within {max_tries} seeds at link_rate="
        f"{link_rate} on {xgft!r}; lower the rate"
    )


def run(
    *,
    fidelity_name: str | Fidelity = "normal",
    topology: XGFT | None = None,
    rates: tuple[float, ...] | None = None,
    curves: tuple[str, ...] = CURVES,
    seed: int = 2012,
    fault_seed: int = 0,
    fault_links: tuple[int, ...] = (),
    engine: str = "reference",
) -> FaultSweepResult:
    """Run the fault sweep.

    ``rates`` are link failure rates (fraction of non-critical cables
    failed; default :data:`DEFAULT_RATES`); ``fault_seed`` seeds the
    fault sampler independently of the traffic ``seed``.
    ``fault_links`` replaces the random sweep with one explicit degraded
    point (the named cables fail, x-value is the resulting failed-cable
    fraction) — the CLI's ``--fault-links``; giving ``rates`` as well
    is a :class:`~repro.errors.FaultError`.
    ``engine`` selects the permutation evaluator exactly as in Figure 4;
    both engines consume the identical permutation stream, so their
    curves are bit-identical.
    """
    if fault_links and rates is not None:
        raise FaultError(
            "give failure rates or explicit fault links, not both "
            "(--fault-rate/--fault-links)")
    fid = fidelity(fidelity_name)
    xgft = topology if topology is not None else m_port_n_tree(8, 3)
    rec = get_recorder()

    study = PermutationStudy(
        xgft,
        initial_samples=fid.initial_samples,
        max_samples=fid.max_samples,
        rel_precision=fid.rel_precision,
        seed=seed,
        engine=engine,
    )

    if fault_links:
        spec = FaultSpec(links=tuple(fault_links), seed=fault_seed)
        fabric = spec.sample(xgft)
        if not fabric.is_connected:
            raise FaultError(
                f"explicit fault set {tuple(fault_links)} disconnects "
                f"{xgft!r}"
            )
        from repro.faults.spec import samplable_cables
        effective = len(fault_links) / max(1, len(samplable_cables(xgft)))
        fabrics = [(effective, fabric)]
    else:
        fabrics = []
        for rate in rates if rates is not None else DEFAULT_RATES:
            if rate == 0.0:
                fabrics.append((0.0, DegradedFabric(xgft)))
            else:
                fabrics.append((rate, sample_connected_fabric(
                    xgft, rate, fault_seed)))

    samples = 0
    points = []
    for rate, fabric in fabrics:
        mloads: dict[str, float] = {}
        for spec_name in curves:
            scheme = DegradedScheme(make_scheme(xgft, spec_name), fabric)
            result = study.run(scheme)
            mloads[spec_name] = result.mean
            samples += result.interval.n_samples
        if rec.enabled:
            rec.event(
                "fault_sweep_point",
                topology=repr(xgft),
                rate=rate,
                fabric=fabric.tag,
                fabric_seed=fault_seed,
                mloads={k: round(v, 9) for k, v in mloads.items()},
            )
        points.append(FaultPoint(rate, fabric.tag, fault_seed, mloads))

    return FaultSweepResult(
        topology=repr(xgft),
        curves=tuple(curves),
        points=tuple(points),
        samples_used=samples,
    )
