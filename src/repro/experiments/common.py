"""Shared experiment plumbing: scheme families, K grids, presets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.routing.base import RoutingScheme
from repro.routing.factory import make_scheme
from repro.topology.xgft import XGFT

#: the seeds the paper averages the random heuristic over
RANDOM_SEEDS = (0, 1, 2, 3, 4)


@dataclass(frozen=True)
class Fidelity:
    """Experiment size preset.

    ``fast`` keeps wall time in seconds for tests and CI; ``full``
    follows the paper's protocol (tighter CIs, longer flit windows) and
    is what EXPERIMENTS.md records.
    """

    name: str
    # flow-level sampling
    initial_samples: int
    max_samples: int
    rel_precision: float
    # flit-level windows
    warmup_cycles: int
    measure_cycles: int
    drain_cycles: int
    flit_repeats: int


FAST = Fidelity("fast", initial_samples=8, max_samples=32, rel_precision=0.10,
                warmup_cycles=500, measure_cycles=1500, drain_cycles=2000,
                flit_repeats=1)
NORMAL = Fidelity("normal", initial_samples=32, max_samples=512, rel_precision=0.02,
                  warmup_cycles=1000, measure_cycles=4000, drain_cycles=6000,
                  flit_repeats=2)
FULL = Fidelity("full", initial_samples=64, max_samples=4096, rel_precision=0.01,
                warmup_cycles=2000, measure_cycles=8000, drain_cycles=12000,
                flit_repeats=3)

_PRESETS = {f.name: f for f in (FAST, NORMAL, FULL)}


def fidelity(name: str | Fidelity) -> Fidelity:
    """Resolve a preset by name (accepts an existing Fidelity)."""
    if isinstance(name, Fidelity):
        return name
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown fidelity {name!r}; choose from {sorted(_PRESETS)}"
        ) from None


def k_grid(max_paths: int, *, dense: bool = False) -> tuple[int, ...]:
    """The path-limit values swept on the Figure 4 x-axis.

    ``dense`` sweeps every K up to ``max_paths`` (matches the paper's
    plots on small topologies); otherwise a power-of-two-ish grid plus
    ``max_paths`` keeps large panels tractable.
    """
    if dense or max_paths <= 16:
        return tuple(range(1, max_paths + 1))
    grid = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128]
    ks = [k for k in grid if k < max_paths]
    ks.append(max_paths)
    return tuple(ks)


def heuristic_family(
    xgft: XGFT, name: str, k: int, seeds: Sequence[int] = RANDOM_SEEDS
) -> list[RoutingScheme]:
    """The scheme instance(s) a heuristic contributes at path limit
    ``k`` — several seeded instances for ``random``, one otherwise."""
    if name == "random":
        return [make_scheme(xgft, f"random:{k}", seed=s) for s in seeds]
    return [make_scheme(xgft, f"{name}:{k}")]
