"""Batched flit engine: one native call per run, bit-identical to the
reference.

``BatchedFlitSimulator`` produces exactly the event sequence of
:class:`repro.flit.engine.FlitSimulator` — same results, same telemetry,
bit for bit — from one call of ``kernel.c``, compiled on demand by
:mod:`repro.native` and driven by :mod:`repro.flit.native`.  The kernel
runs in two phases:

* **Phase A** replays the arrival process.  Every RNG draw in the
  reference happens while processing an ``_INJECT`` event, and the
  relative order of inject events is independent of the network
  simulation (each host's next arrival depends only on its own Poisson
  clock).  So the kernel walks the injection process alone, with a heap
  over hosts keyed by (cycle, push id), and continues the run's
  ``random.Random`` state with CPython's formulas (destination, path
  choices, arrival clock, per pop).  Traces are replayed in stable
  cycle order.  Each packet draws one of its pair's live path ids in
  the :class:`~repro.routing.vectorized.RouteTable`, and the kernel
  writes the path's hop links from the table's path and pair parts.
* **Phase B** replays the reference's ``(time, seq)`` heap order with a
  per-cycle calendar queue (ties share a bucket; append order *is* seq
  order), dense packet ids, and the adjacent ``_PORT_FREE``/``_CREDIT``
  pair fused into one entry (still counted as two events).  It covers
  both switch models and returns the per-interval telemetry rows and
  message delays, which :meth:`run` turns into ``flit_interval`` events
  and the delay histogram.

:meth:`~BatchedFlitSimulator.run` runs the reference instead, timed
under ``flit.fallback.<reason>``, for three reasons (:data:`FALLBACKS`):
no kernel (:func:`repro.flit.native.unavailable_reason` says why), a
horizon too long for a dense calendar, or a workload the kernel has no
model for.  The kernel models :class:`~repro.flit.workload.
UniformRandom`, :class:`~repro.flit.workload.FixedPermutation`,
:class:`~repro.flit.workload.HotspotWorkload` and traces, matched by
exact type: a subclass may override ``pick_destination``.

Parity contract: every :class:`~repro.flit.stats.FlitRunResult` field,
the ``flit.*`` recorder counters, the message-delay histogram, and the
per-interval ``flit_interval`` telemetry are bit-identical to the
reference for any seed, config, scheme, or trace;
``tests/flit/test_batched_parity.py`` enforces this differentially.
"""

from __future__ import annotations

import random

from repro import native as library
from repro.errors import SimulationError
from repro.flit import native
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator
from repro.flit.stats import FlitRunResult
from repro.flit.workload import Workload
from repro.obs.recorder import get_recorder

#: Densest calendar the engine will allocate (one bucket per cycle up
#: front); configs past this fall back to the reference's sparse heap,
#: where a per-cycle structure would dwarf the event set.
_DENSE_HORIZON_LIMIT = 262_144

#: Why the batched engine ran the reference, by the ``<reason>`` of its
#: ``flit.fallback.<reason>`` timer (``None``: ask
#: :func:`repro.flit.native.unavailable_reason`).
FALLBACKS = {
    "no_kernel": None,
    "horizon": "horizon above the dense-calendar limit",
    "workload": "workload without a native model",
}

#: Registered flit engines, mirroring the flow layer's selector.
ENGINES = ("reference", "batched")


def flit_engine_class(engine: str) -> type[FlitSimulator]:
    """The simulator class for ``engine`` (see :data:`ENGINES`)."""
    if engine == "reference":
        return FlitSimulator
    if engine == "batched":
        return BatchedFlitSimulator
    raise SimulationError(
        f"unknown flit engine {engine!r}; choose from {ENGINES}")


def make_flit_simulator(engine: str, xgft, scheme, config: FlitConfig, *,
                        degraded=None) -> FlitSimulator:
    """Build the selected engine's simulator (shared ``--engine`` path)."""
    return flit_engine_class(engine)(xgft, scheme, config, degraded=degraded)


def kernels_ran(timers: dict) -> str | None:
    """What the batched runs timed in ``timers`` (a recorder's
    ``name -> (seconds, calls)``) executed: ``"native"``,
    ``"reference: <why>"`` per fallback reason, joined by ``"; "``; None
    when no batched run was timed."""
    return library.kernels_ran(timers, "flit", "reference", FALLBACKS)


class BatchedFlitSimulator(FlitSimulator):
    """Drop-in, bit-identical, faster :class:`FlitSimulator`.

    Construction (route compilation, degraded-fabric validation,
    :meth:`from_tables`) and the run epilogue are inherited unchanged;
    only :meth:`run` is replaced by the native call described in the
    module docstring.

    >>> from repro.topology import m_port_n_tree
    >>> from repro.routing import make_scheme
    >>> from repro.flit import FlitConfig, FlitSimulator, UniformRandom
    >>> xgft = m_port_n_tree(4, 2)
    >>> cfg = FlitConfig(warmup_cycles=200, measure_cycles=500)
    >>> ref = FlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), cfg)
    >>> fast = BatchedFlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), cfg)
    >>> fast.run(UniformRandom(0.2)) == ref.run(UniformRandom(0.2))
    True
    """

    def run(self, workload: Workload | None, *, seed: int | None = None,
            recorder=None, _trace=None) -> FlitRunResult:
        """Simulate ``workload``; see :meth:`FlitSimulator.run`.

        Same contract, same bits; only the clock time differs.
        """
        if workload is None and _trace is None:
            raise SimulationError("need a workload or a trace")
        cfg = self.config
        rec = recorder if recorder is not None else get_recorder()
        source = None
        if not native.available():
            reason = "no_kernel"
        elif cfg.horizon > _DENSE_HORIZON_LIMIT:
            # a per-cycle calendar would be bigger than the event set
            # (the sparse reference heap is the right structure there)
            reason = "horizon"
        else:
            source = native.arrivals(workload, _trace, self._n_procs,
                                     cfg.message_flits)
            reason = "workload" if source is None else None
        if reason is not None:
            with rec.timer(f"flit.fallback.{reason}"):
                return FlitSimulator.run(self, workload, seed=seed,
                                         recorder=recorder, _trace=_trace)
        rng = random.Random(cfg.seed if seed is None else seed)
        with rec.timer("flit.kernel"):
            stats, rows = native.run(rng.getstate(), source, self.routes,
                                     cfg, self._n_channels, self._n_procs,
                                     self._initial_credits(), rec.enabled)
        for t, injected, delivered, stalls, occupancy in rows:
            rec.event("flit_interval", t=t, injected=injected,
                      delivered=delivered, credit_stalls=stalls,
                      occupancy=occupancy)
        return self._finish(rec, workload, *stats)
