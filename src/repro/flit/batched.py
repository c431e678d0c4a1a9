"""Batched flit engine: an injection plan plus a native event kernel,
bit-identical to the reference.

``BatchedFlitSimulator`` produces exactly the event sequence of
:class:`repro.flit.engine.FlitSimulator` — same results, same telemetry,
bit for bit — but splits a run in two:

* **Injection plan (phase A, python).**  Every RNG draw in the reference
  happens while processing an ``_INJECT`` event, and the relative order
  of inject events is independent of the network simulation (each
  host's next arrival depends only on its own Poisson clock).  The plan
  therefore pre-walks the injection process alone — a small heap over
  hosts replicating the reference's draw order exactly (destination,
  path choices, arrival clock, per pop) — and materializes flat
  per-message and per-packet arrays: creation cycle, measured flag, and
  one path id per packet (``pair_ptr[key] + choice`` in the
  :class:`~repro.routing.vectorized.RouteTable`).  Phase B is then
  RNG-free.

* **Event kernel (phase B, C).**  ``kernel.c``, compiled on demand by
  :mod:`repro.flit.native`, replays the reference's ``(time, seq)`` heap
  order with a per-cycle calendar queue (ties share a bucket; append
  order *is* seq order), dense packet ids, and the adjacent
  ``_PORT_FREE``/``_CREDIT`` pair fused into one entry (still counted
  as two events).  It covers both switch models and returns the
  per-interval telemetry rows and message delays, which :meth:`run`
  turns into ``flit_interval`` events and the delay histogram.

When the kernel is unavailable (:func:`repro.flit.native.
unavailable_reason` says why), or the horizon is too long for a dense
calendar, :meth:`~BatchedFlitSimulator.run` runs the reference instead.

Parity contract: every :class:`~repro.flit.stats.FlitRunResult` field,
the ``flit.*`` recorder counters, the message-delay histogram, and the
per-interval ``flit_interval`` telemetry are bit-identical to the
reference for any seed, config, scheme, or trace;
``tests/flit/test_batched_parity.py`` enforces this differentially.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

import numpy as np

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
                        compiled=None, degraded=None) -> FlitSimulator:
    """Build the selected engine's simulator (shared ``--engine`` path)."""
    return flit_engine_class(engine)(
        xgft, scheme, config, compiled=compiled, degraded=degraded)


class BatchedFlitSimulator(FlitSimulator):
    """Drop-in, bit-identical, faster :class:`FlitSimulator`.

    Construction (route compilation, degraded-fabric validation,
    :meth:`from_tables`) and the run epilogue are inherited unchanged;
    only :meth:`run` is replaced by the plan/kernel split described in
    the module docstring.

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

    # ------------------------------------------------------------------
    def _injection_plan(self, workload: Workload | None, rng: random.Random,
                        trace):
        """Phase A: replay the arrival process alone, in the reference's
        exact draw order, into flat arrays.

        Returns ``(ev_cycle, ev_msg, ev_child, n_initial, msg_src,
        msg_created, msg_measured, pkt_path, overflow)``: injection
        events in *push order* (cycle, message id or -1 for a silent
        poll, successor event id or -1), per-message state, each
        packet's path id in :attr:`routes`, and whether any event lands
        past the horizon (which pins ``sim_cycles`` to the horizon, as in
        the reference).
        """
        cfg = self.config
        n_procs = self._n_procs
        pair_ptr = self.routes.pair_ptr
        n_keys = pair_ptr.size - 1
        ppm = cfg.packets_per_message
        warmup = cfg.warmup_cycles
        window_end = cfg.end_of_window
        horizon = cfg.horizon
        per_packet = cfg.path_selection == "per-packet"
        round_robin = cfg.path_selection == "round-robin"

        ev_cycle: list[int] = []
        ev_msg: list[int] = []
        ev_child: list[int] = []
        msg_src: list[int] = []
        msg_created: list[int] = []
        msg_measured: list[bool] = []
        pkt_path: list[int] = []
        rr_state: dict[int, int] = {}
        overflow = False
        randrange = rng.randrange

        def emit_message(host: int, dst: int, cyc: int) -> None:
            msg_src.append(host)
            msg_created.append(cyc)
            msg_measured.append(warmup <= cyc < window_end)
            key = host * n_procs + dst
            if not 0 <= key < n_keys:
                raise KeyError(key)  # as the reference's table lookup
            first = pair_ptr.item(key)
            n_paths = pair_ptr.item(key + 1) - first
            if not n_paths:
                raise KeyError(key)
            if round_robin:
                base = rr_state.get(key, 0)
                rr_state[key] = (base + ppm) % n_paths
                for j in range(ppm):
                    pkt_path.append(first + (base + j) % n_paths)
            elif per_packet:
                for _ in range(ppm):
                    pkt_path.append(first + randrange(n_paths))
            else:
                pkt_path.extend([first + randrange(n_paths)] * ppm)

        if trace is not None:
            n_initial = len(trace)
            ev_cycle = [e.cycle for e in trace]
            ev_msg = [-1] * n_initial
            ev_child = [-1] * n_initial
            # Stable sort = the heap's (cycle, push seq) tie-break.
            if n_initial:
                order = np.argsort(
                    np.fromiter((e.cycle for e in trace), dtype=np.int64,
                                count=n_initial),
                    kind="stable")
                for i in order.tolist():
                    cyc = ev_cycle[i]
                    if cyc > horizon:
                        overflow = True
                        break
                    dst = trace[i].dst
                    if dst >= 0:
                        ev_msg[i] = len(msg_src)
                        emit_message(trace[i].src, dst, cyc)
        else:
            mean_gap = workload.mean_interarrival(cfg.message_flits)
            rate = 1.0 / mean_gap
            expovariate = rng.expovariate
            clock = [0.0] * n_procs
            ev_host: list[int] = []
            heap: list[tuple[int, int]] = []
            for host in range(n_procs):
                clock[host] = expovariate(rate)
                cyc = int(clock[host]) + 1
                ev_cycle.append(cyc)
                ev_msg.append(-1)
                ev_child.append(-1)
                ev_host.append(host)
                heappush(heap, (cyc, host))
            n_initial = n_procs
            while heap:
                cyc, e = heappop(heap)
                if cyc > horizon:
                    overflow = True
                    break
                host = ev_host[e]
                dst = workload.pick_destination(host, n_procs, rng)
                if dst >= 0:
                    ev_msg[e] = len(msg_src)
                    emit_message(host, dst, cyc)
                nclock = clock[host] + expovariate(rate)
                clock[host] = nclock
                nxt = int(nclock) + 1
                if nxt < window_end:
                    cid = len(ev_cycle)
                    ev_cycle.append(nxt)
                    ev_msg.append(-1)
                    ev_child.append(-1)
                    ev_host.append(host)
                    ev_child[e] = cid
                    heappush(heap, (nxt, cid))

        return (ev_cycle, ev_msg, ev_child, n_initial, msg_src, msg_created,
                msg_measured, pkt_path, overflow)

    # ------------------------------------------------------------------
    def run(self, workload: Workload | None, *, seed: int | None = None,
            recorder=None, _trace=None) -> FlitRunResult:
        """Simulate ``workload``; see :meth:`FlitSimulator.run`.

        Same contract, same bits; only the clock time differs.
        """
        if workload is None and _trace is None:
            raise SimulationError("need a workload or a trace")
        cfg = self.config
        if cfg.horizon > _DENSE_HORIZON_LIMIT or not native.available():
            # A per-cycle calendar would be bigger than the event set
            # (the sparse reference heap is the right structure there),
            # or there is no kernel to run phase B.
            return FlitSimulator.run(self, workload, seed=seed,
                                     recorder=recorder, _trace=_trace)
        rec = recorder if recorder is not None else get_recorder()
        rng = random.Random(cfg.seed if seed is None else seed)
        with rec.timer("flit.plan"):
            plan = self._injection_plan(workload, rng, _trace)
        with rec.timer("flit.kernel"):
            stats, rows = native.run(plan, self.routes, cfg,
                                     self._n_channels, self._n_procs,
                                     self._initial_credits(), rec.enabled)
        for t, injected, delivered, stalls, occupancy in rows:
            rec.event("flit_interval", t=t, injected=injected,
                      delivered=delivered, credit_stalls=stalls,
                      occupancy=occupancy)
        return self._finish(rec, workload, *stats)
