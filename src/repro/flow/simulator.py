"""Flow-level simulator facade.

Bundles the link-load evaluation and metrics into one object with a
result type that carries per-level breakdowns — convenient for examples,
experiments and the CLI.

Both engines evaluate with the one closed-form evaluator,
:func:`repro.flow.loads.link_loads` (see ``docs/architecture.md``); they
differ only in what the evaluator reads:

* ``"reference"`` — the scheme itself (a fault-aware scheme serves the
  pairs it has met from its own tables).  The spec.
* ``"compiled"`` — the scheme's plan
  (:func:`repro.routing.compiled.compile_scheme`), kept per scheme, which
  selects each pair the first time a query names it and serves it from
  its tables after that.

They agree bit for bit on every scheme family, pristine or degraded;
the parity suites in ``tests/flow/test_engine.py`` and
``tests/faults/test_engine_parity.py`` enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.flow.engine import BatchFlowEngine
from repro.flow.loads import link_loads, permutation_mloads
from repro.flow.metrics import max_link_load, optimal_load
from repro.obs.recorder import get_recorder
from repro.routing.base import RoutingScheme
from repro.routing.compiled import compile_scheme
from repro.topology.xgft import XGFT
from repro.traffic.matrix import TrafficMatrix

ENGINES = ("reference", "compiled")


def check_engine(engine: str) -> None:
    """Raise :class:`SimulationError` unless ``engine`` names a flow
    engine (see :data:`ENGINES`)."""
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown flow engine {engine!r}; choose from {ENGINES}")


@dataclass(frozen=True)
class FlowResult:
    """Outcome of routing one traffic matrix at the flow level.

    Attributes
    ----------
    loads:
        Directed-link load vector (length ``n_links``).
    max_load:
        ``MLOAD`` — the paper's headline flow-level metric.
    optimal:
        ``OLOAD`` (exact).
    ratio:
        ``PERF = max_load / optimal`` (1.0 when there is no traffic).
    per_level_max:
        Maximum load among the links of each level boundary
        ``(0..h-1)``, split by direction — diagnostic for *where* a
        heuristic leaves contention (the shift-1 weakness is visible
        here as high lower-level loads).
    """

    loads: np.ndarray
    max_load: float
    optimal: float
    ratio: float
    per_level_max: tuple[tuple[float, float], ...]

    def bottleneck_level(self, rel_tol: float = 1e-9) -> int:
        """Boundary level containing a maximally loaded link.

        The comparison uses a relative tolerance: per-level maxima and
        the global maximum may come from different float summation
        orders, so exact equality can miss the true bottleneck.

        >>> import numpy as np
        >>> third = 0.1 + 0.1 + 0.1     # 0.30000000000000004 != 0.3
        >>> res = FlowResult(np.array([third]), third, third, 1.0,
        ...                  ((0.25, 0.0), (0.3, 0.0)))
        >>> res.bottleneck_level()      # exact equality would miss level 1
        1
        """
        tol = rel_tol * max(abs(self.max_load), 1.0)
        for level, (up, down) in enumerate(self.per_level_max):
            if max(up, down) >= self.max_load - tol:
                return level
        return 0  # pragma: no cover - empty network


class FlowSimulator:
    """Evaluate routing schemes on one topology at the flow level.

    Parameters
    ----------
    xgft:
        Topology under test.
    engine:
        ``"reference"`` (default) queries the scheme per evaluation;
        ``"compiled"`` evaluates each scheme's plan, built on first use
        and kept; a fault-aware scheme is its own plan and follows
        in-place fail/repair events on its fabric.

    >>> from repro.topology import m_port_n_tree
    >>> from repro.routing import make_scheme
    >>> from repro.traffic import shift_pattern
    >>> xgft = m_port_n_tree(8, 2)
    >>> sim = FlowSimulator(xgft)
    >>> res = sim.evaluate(make_scheme(xgft, "umulti"),
    ...                    shift_pattern(xgft.n_procs, 16))
    >>> res.ratio
    1.0
    """

    def __init__(self, xgft: XGFT, *, engine: str = "reference"):
        check_engine(engine)
        self.xgft = xgft
        self.engine = engine
        # Per-boundary (up, down) link-id slices, precomputed once — the
        # link layout is contiguous per level, so per-evaluate boolean
        # masking is unnecessary.
        self._boundary_slices = tuple(
            xgft.boundary_link_slices(l) for l in range(xgft.h)
        )
        self._batch_engines: dict[RoutingScheme, BatchFlowEngine] = {}

    def batch_engine(self, scheme: RoutingScheme) -> BatchFlowEngine:
        """The :class:`BatchFlowEngine` over ``scheme``'s plan, built on
        first use and kept, so the plan's filled rows serve every later
        call."""
        engine = self._batch_engines.get(scheme)
        if engine is None:
            engine = self._batch_engines[scheme] = BatchFlowEngine(
                compile_scheme(self.xgft, scheme))
        return engine

    def _routes(self, scheme):
        """What the evaluator reads for ``scheme``: under the compiled
        engine, its plan."""
        if self.engine == "compiled":
            return self.batch_engine(scheme).plan
        return scheme

    def _link_loads(self, scheme, tm: TrafficMatrix) -> np.ndarray:
        return link_loads(self.xgft, self._routes(scheme), tm)

    def evaluate(
        self,
        scheme: RoutingScheme,
        tm: TrafficMatrix,
        *,
        optimal: float | None = None,
    ) -> FlowResult:
        """Route ``tm`` with ``scheme`` and collect all metrics.

        ``optimal`` short-circuits the OLOAD computation when the caller
        already knows it — e.g. permutation studies, where the optimal
        is invariant across samples and hoisted out of the loop.
        """
        loads = self._link_loads(scheme, tm)
        mload = max_link_load(loads)
        opt = optimal_load(self.xgft, tm) if optimal is None else float(optimal)
        per_level = []
        for up_slice, down_slice in self._boundary_slices:
            up = loads[up_slice]
            down = loads[down_slice]
            per_level.append(
                (float(up.max()) if len(up) else 0.0,
                 float(down.max()) if len(down) else 0.0)
            )
        ratio = mload / opt if opt > 0 else 1.0
        return FlowResult(loads, mload, opt, ratio, tuple(per_level))

    def max_load(self, scheme, tm: TrafficMatrix) -> float:
        """Just ``MLOAD`` of one matrix (a batch: :meth:`permutation_mloads`)."""
        rec = get_recorder()
        if not rec.enabled:
            return max_link_load(self._link_loads(scheme, tm))
        with rec.timer("flow.max_load"):
            mload = max_link_load(self._link_loads(scheme, tm))
        rec.count("flow.max_load_calls")
        return mload

    def permutation_mloads(self, scheme, perms: np.ndarray) -> np.ndarray:
        """MLOAD of a ``(B, n_procs)`` batch of permutations: one
        evaluation (:func:`~repro.flow.loads.permutation_mloads`), timed
        as ``flow.batch_eval``."""
        return permutation_mloads(self.xgft, self._routes(scheme), perms)
