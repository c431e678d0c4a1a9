"""Event-driven virtual cut-through network engine.

Models the paper's flit-level simulator: virtual cut-through (VCT)
switching with credit-based flow control between switches and a single
virtual channel, "to closely resemble InfiniBand networks".

Switch model
------------
* Every directed channel terminates in a FIFO *input buffer* of
  ``buffer_packets`` slots at the receiving switch; the sender holds one
  credit per free slot and a packet may only start crossing a channel
  when a credit is available (VCT reserves a full packet slot so a
  blocked packet can sit in place).
* Only the packet at the *head* of an input buffer can be forwarded
  (single VC, FIFO buffers) — head-of-line blocking is modeled, which is
  the contention mechanism limited multi-path routing attacks.
* Buffers are read at link rate: after a head packet starts leaving, the
  next packet becomes eligible ``packet_flits`` cycles later.
* Each output port serves competing input buffers in request (FIFO)
  order and transmits one flit per cycle, so a packet occupies the port
  for ``packet_flits`` cycles.
* Cut-through: a header can be forwarded as soon as it has arrived
  (``wire_delay`` + ``routing_delay`` after the upstream transmission
  started) — latency per hop is a couple of cycles, not a packet time.
* Hosts have unbounded injection queues (delay includes source
  queueing) and sink packets at link rate.

Granularity: packets with flit-time arithmetic.  Individual flits carry
no extra information under cut-through, so events are O(packets x hops),
independent of packet size — the property that keeps a Python flit-level
study tractable (DESIGN.md Section 7).  Blocking propagates through
credits, producing tree saturation beyond the knee exactly as in the
paper's discussion.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from heapq import heappop, heappush

import numpy as np

from repro.errors import SimulationError
from repro.flit.config import FlitConfig
from repro.flit.message import Message, Packet
from repro.flit.stats import FlitRunResult, delay_stats
from repro.obs.recorder import get_recorder
from repro.flit.workload import Workload
from repro.routing.base import RoutingScheme
from repro.routing.vectorized import RouteTable, compile_routes, level_pairs
from repro.topology.xgft import XGFT

# Event kinds (heap entries are (time, seq, kind, payload)).
_INJECT = 0       # payload: host id
_HEADER = 1       # payload: Packet — header arrived at next input buffer
_PORT_FREE = 2    # payload: channel id — output port finished a packet
_CREDIT = 3       # payload: channel id — downstream slot freed
_DELIVER = 4      # payload: Packet — tail reached the destination host
_HEAD_READY = 5   # payload: buffer id — buffer read port free for next head


class _Fifo:
    """Append-only FIFO with an amortized O(1) pop-from-front."""

    __slots__ = ("items", "head")

    def __init__(self):
        self.items: list = []
        self.head = 0

    def push(self, item) -> None:
        self.items.append(item)

    def pop(self):
        item = self.items[self.head]
        self.head += 1
        if self.head > 64 and self.head * 2 > len(self.items):
            del self.items[: self.head]
            self.head = 0
        return item

    def peek(self):
        return self.items[self.head]

    def __len__(self) -> int:
        return len(self.items) - self.head


def free_vc(credits: list, channel: int, n_vcs: int) -> int:
    """A sub-channel (virtual channel lane) of ``channel`` holding a
    downstream credit, or -1 when every VC is exhausted.

    VCs are scanned in lane order, so lane 0 is preferred while it has
    credits — the deterministic tie-break both engines share.
    """
    base = channel * n_vcs
    for v in range(n_vcs):
        if credits[base + v] > 0:
            return base + v
    return -1


class FlitSimulator:
    """Flit-level simulator bound to one topology and routing scheme.

    The scheme's path selection for all SD pairs is taken once, as a
    :class:`~repro.routing.vectorized.RouteTable` of per-level path ids,
    and reused across runs, so load sweeps only pay the event loop.  A
    run builds a pair's link tuples from it when a message names the
    pair.

    >>> from repro.topology import m_port_n_tree
    >>> from repro.routing import make_scheme
    >>> from repro.flit import FlitConfig, FlitSimulator, UniformRandom
    >>> xgft = m_port_n_tree(4, 2)
    >>> sim = FlitSimulator(xgft, make_scheme(xgft, "d-mod-k"),
    ...                     FlitConfig(warmup_cycles=200, measure_cycles=500))
    >>> result = sim.run(UniformRandom(0.2))
    >>> result.throughput > 0
    True
    """

    def __init__(self, xgft: XGFT, scheme: RoutingScheme, config: FlitConfig,
                 *, degraded=None):
        if scheme.xgft != xgft:
            raise SimulationError("scheme was built for a different topology")
        self.xgft = xgft
        self.scheme = scheme
        self.config = config
        # Degraded fabrics: failed channels carry zero credits (below),
        # and the live paths of the route table — compiled from a
        # fault-aware scheme — never cross them.  When the scheme is a
        # DegradedScheme the fabric is picked up from it automatically.
        if degraded is None:
            degraded = getattr(scheme, "degraded", None)
        if degraded is not None and degraded.xgft != xgft:
            raise SimulationError(
                "degraded fabric was built for a different topology")
        self.degraded = degraded
        with get_recorder().timer("flit.build"):
            self.routes = compile_routes(xgft, scheme)
        if self.degraded is not None and not self.degraded.is_pristine:
            self._refuse_failed_channels()
        self._n_procs = xgft.n_procs
        self._n_channels = xgft.n_links

    def _refuse_failed_channels(self) -> None:
        """Raise :class:`SimulationError`, naming a failed channel, if a
        live path of the route table crosses one."""
        fabric = self.degraded
        for k, block in self.routes.blocks.items():
            s, d = level_pairs(self.xgft).pairs[k]
            dead = ~fabric.path_alive_matrix(s, d, block.idx, k)
            if block.live is not None:
                dead &= np.arange(dead.shape[1]) < block.live[:, None]
            if dead.any():
                r, j = divmod(int(dead.argmax()), dead.shape[1])
                key = int(s[r]) * self.xgft.n_procs + int(d[r])
                path = self.routes[key][j]
                channel = next(c for c in path if not fabric.link_ok[c])
                raise SimulationError(
                    f"route table references failed channel {channel}; "
                    f"wrap the scheme in DegradedScheme first")

    @classmethod
    def from_tables(
        cls,
        n_hosts: int,
        n_channels: int,
        routes: Mapping[int, Sequence[Sequence[int]]],
        config: FlitConfig,
    ) -> "FlitSimulator":
        """Build a simulator from precompiled routes on an arbitrary
        channel graph, such as hand-made test tables.  The result has
        no topology or scheme, so it cannot take part in a
        :func:`repro.runner.sweep.run_sweeps` grid (which builds its
        simulators from schemes); call :meth:`run` or :meth:`run_trace`
        directly.

        ``routes`` maps pair keys ``src * n_hosts + dst`` to non-empty
        lists of channel-id paths; every ordered host pair that the
        workload can produce must be present.  It is converted once
        into a one-block :class:`~repro.routing.vectorized.RouteTable`
        (:meth:`~repro.routing.vectorized.RouteTable.from_mapping`).

        Keys, paths and channel ids are validated up front: a route
        referencing a channel ``>= n_channels``, an empty path (or a key
        implying a negative or out-of-range src/dst) would otherwise
        surface mid-event-loop as a raw ``IndexError`` on the credit
        list, or as a crash of the native kernel, long after the bad
        table was accepted.
        """
        if n_hosts < 1 or n_channels < 1:
            raise SimulationError("need at least one host and one channel")
        n_pairs = n_hosts * n_hosts
        try:
            table = RouteTable.from_mapping(routes, n_pairs)
        except KeyError as exc:
            raise SimulationError(
                f"pair key {exc.args[0]} outside [0, {n_pairs}); keys are "
                f"src * n_hosts + dst with src, dst in [0, {n_hosts})"
            ) from None
        if len(table) < len(routes):  # an empty path list reads as absent
            key = next(key for key, paths in routes.items() if not paths)
            raise SimulationError(f"pair key {key} has no paths")
        for key, paths in sorted(routes.items()):
            for path in paths:
                if not path:
                    raise SimulationError(
                        f"route for pair key {key} has an empty path")
                bad = [c for c in path if not 0 <= c < n_channels]
                if bad:
                    raise SimulationError(
                        f"route for pair key {key} references channel "
                        f"{bad[0]} outside [0, {n_channels})")
        sim = cls.__new__(cls)
        sim.xgft = None
        sim.scheme = None
        sim.config = config
        sim.routes = table
        sim.degraded = None
        sim._n_procs = n_hosts
        sim._n_channels = n_channels
        return sim

    # ------------------------------------------------------------------
    def run_trace(self, entries, *, seed: int | None = None) -> FlitRunResult:
        """Replay an explicit injection trace (see :mod:`repro.flit.traces`).

        Every ``(cycle, src, dst)`` entry becomes one message at exactly
        that cycle, regardless of the measurement window (entries inside
        ``[warmup, warmup+measure)`` are the measured ones).  The seed
        only affects path selection randomness.  An entry with ``src`` or
        ``dst`` outside ``[0, n_procs)``, ``src == dst`` or ``cycle < 0``
        raises :class:`SimulationError`, naming the first such entry,
        before anything runs.
        """
        entries = tuple(entries)
        n = self._n_procs
        for i, e in enumerate(entries):
            if not (0 <= e.src < n and 0 <= e.dst < n and e.src != e.dst
                    and e.cycle >= 0):
                raise SimulationError(
                    f"trace entry {i} {e}: needs 0 <= src != dst < {n} "
                    f"and cycle >= 0")
        return self.run(None, seed=seed, _trace=entries)

    def run(self, workload: Workload | None, *, seed: int | None = None,
            recorder=None, _trace=None) -> FlitRunResult:
        """Simulate ``workload`` and return window statistics.

        ``recorder`` (default: the ambient :func:`repro.obs.
        get_recorder`) receives, when enabled, a ``flit_interval`` event
        per observation interval (injected/delivered flits, credit
        stalls, total buffer occupancy), an end-to-end message-delay
        histogram, and run totals.  With the no-op recorder the event
        loop pays a single integer comparison per event.
        """
        if workload is None and _trace is None:
            raise SimulationError("need a workload or a trace")
        cfg = self.config
        rec = recorder if recorder is not None else get_recorder()
        record = rec.enabled
        n_procs = self._n_procs
        n_channels = self._n_channels
        rng = random.Random(cfg.seed if seed is None else seed)

        packet_flits = cfg.packet_flits
        wire = cfg.wire_delay
        route_delay = cfg.routing_delay
        warmup = cfg.warmup_cycles
        window_end = cfg.end_of_window
        horizon = cfg.horizon
        per_packet = cfg.path_selection == "per-packet"
        round_robin = cfg.path_selection == "round-robin"
        input_fifo = cfg.switch_model == "input-fifo"

        # Sub-channel id for (channel c, virtual channel v): c*V + v.
        # Buffer ids: 0..n_channels*V-1 = the input buffer of sub-channel
        # b; then n_channels*V..+n_procs-1 = host injection queues.
        n_vcs = cfg.virtual_channels
        n_sub = n_channels * n_vcs
        n_buffers = n_sub + n_procs
        buffers = [_Fifo() for _ in range(n_buffers)]
        read_free = [0] * n_buffers      # buffer read port free time
        head_pending = [False] * n_buffers  # current head already requested

        busy_until = [0] * n_channels    # physical output port free time
        credits = self._initial_credits()
        requests: list[_Fifo] = [_Fifo() for _ in range(n_channels)]
        rr_state: dict[int, int] = {}

        heap: list[tuple[int, int, int, object]] = []
        seq = 0

        def push(time: int, kind: int, payload) -> None:
            nonlocal seq
            heappush(heap, (time, seq, kind, payload))
            seq += 1

        # Arrival process: per-host Poisson with mean gap ``mean_gap``.
        # Arrival times accumulate as floats and are floored once per
        # message (+1 keeps the first arrival >= cycle 1): flooring each
        # gap independently (the old ``int(gap) + 1`` per draw) adds an
        # expected half cycle per message, biasing the injected load low
        # by load/(2*mean_gap) — ~15% at high load with short messages.
        inject_clock = [0.0] * n_procs
        if _trace is None:
            mean_gap = workload.mean_interarrival(cfg.message_flits)
            rate = 1.0 / mean_gap
            for host in range(n_procs):
                inject_clock[host] = rng.expovariate(rate)
                push(int(inject_clock[host]) + 1, _INJECT, host)
        else:
            rate = 0.0
            for entry in _trace:
                push(entry.cycle, _INJECT, (entry.src, entry.dst))

        # Window statistics.
        delays: list[int] = []
        messages_measured = 0
        messages_completed = 0
        flits_created = 0
        flits_delivered = 0
        next_uid = 0
        events = 0
        now = 0

        # Telemetry: per-interval trace state.  With recording off,
        # next_mark sits past the horizon so the per-event check is one
        # dead integer comparison.
        obs_interval = cfg.obs_interval or max(1, cfg.measure_cycles // 20)
        next_mark = obs_interval if record else horizon + 1
        interval_injected = 0   # all flits, not only measured-window ones
        interval_delivered = 0
        last_stalls = 0
        credit_stalls = 0

        def transmit(pkt: Packet, c: int, sub: int, t: int) -> None:
            """Common bookkeeping once ``pkt`` wins output channel ``c``
            on sub-channel (VC) ``sub``."""
            credits[sub] -= 1
            busy_until[c] = t + packet_flits
            push(t + packet_flits, _PORT_FREE, c)
            if pkt.holding >= 0:
                # Tail leaves the previous input buffer once fully read out.
                push(t + packet_flits, _CREDIT, pkt.holding)
            pkt.holding = sub
            if pkt.hop == len(pkt.path) - 1:
                push(t + wire + packet_flits, _DELIVER, pkt)
            else:
                push(t + wire + route_delay, _HEADER, pkt)

        def request_head(b: int, t: int) -> None:
            """input-fifo: register the head of buffer ``b`` with its
            output port once the buffer read port is free."""
            if head_pending[b] or len(buffers[b]) == 0:
                return
            if read_free[b] > t:
                # Buffer read port still streaming the previous packet out;
                # retry when it frees (idempotent thanks to head_pending).
                push(read_free[b], _HEAD_READY, b)
                return
            head_pending[b] = True
            pkt: Packet = buffers[b].peek()
            c = pkt.path[pkt.hop]
            requests[c].push(b)
            serve(c, t)

        def serve_input_fifo(c: int, t: int) -> None:
            """Transmit the oldest requesting buffer's head on ``c`` if
            the port is free and a downstream credit (any VC) exists."""
            if busy_until[c] > t or len(requests[c]) == 0:
                return
            sub = free_vc(credits, c, n_vcs)
            if sub < 0:
                nonlocal credit_stalls
                credit_stalls += 1
                return
            b = requests[c].pop()
            pkt: Packet = buffers[b].pop()
            head_pending[b] = False
            read_free[b] = t + packet_flits
            if len(buffers[b]):
                push(read_free[b], _HEAD_READY, b)
            transmit(pkt, c, sub, t)

        def serve_output_queued(c: int, t: int) -> None:
            """output-queued: any buffered packet bound for ``c`` may go
            (no head-of-line coupling between different outputs)."""
            if busy_until[c] > t or len(requests[c]) == 0:
                return
            sub = free_vc(credits, c, n_vcs)
            if sub < 0:
                nonlocal credit_stalls
                credit_stalls += 1
                return
            transmit(requests[c].pop(), c, sub, t)

        serve = serve_input_fifo if input_fifo else serve_output_queued

        def enqueue(pkt: Packet, t: int) -> None:
            """Hand a packet (header) to its next forwarding stage."""
            if input_fifo:
                b = pkt.holding if pkt.holding >= 0 else n_sub + pkt.message.src
                buffers[b].push(pkt)
                request_head(b, t)
            else:
                c = pkt.path[pkt.hop]
                requests[c].push(pkt)
                serve(c, t)

        while heap:
            now, _, kind, payload = heappop(heap)
            if now > horizon:
                break
            events += 1

            while now >= next_mark:  # flush observation intervals
                rec.event(
                    "flit_interval",
                    t=next_mark,
                    injected=interval_injected,
                    delivered=interval_delivered,
                    credit_stalls=credit_stalls - last_stalls,
                    occupancy=sum(len(b) for b in buffers),
                )
                interval_injected = 0
                interval_delivered = 0
                last_stalls = credit_stalls
                next_mark += obs_interval

            if kind == _INJECT:
                if type(payload) is tuple:  # trace replay: explicit dest
                    host, dst = payload
                    reschedule = False
                else:
                    host = payload
                    dst = workload.pick_destination(host, n_procs, rng)
                    reschedule = True
                if dst >= 0:
                    if record:
                        interval_injected += cfg.message_flits
                    measured = warmup <= now < window_end
                    msg = Message(next_uid, host, dst, now,
                                  cfg.packets_per_message, measured)
                    next_uid += 1
                    if measured:
                        messages_measured += 1
                        flits_created += cfg.message_flits
                    paths = self.routes[host * n_procs + dst]
                    if round_robin:
                        key = host * n_procs + dst
                        base = rr_state.get(key, 0)
                        rr_state[key] = (base + cfg.packets_per_message) % len(paths)
                    elif not per_packet:
                        path = paths[rng.randrange(len(paths))]
                    for i in range(cfg.packets_per_message):
                        if per_packet:
                            path = paths[rng.randrange(len(paths))]
                        elif round_robin:
                            path = paths[(base + i) % len(paths)]
                        enqueue(Packet(msg, path), now)
                if reschedule:
                    clock = inject_clock[host] + rng.expovariate(rate)
                    inject_clock[host] = clock
                    nxt = int(clock) + 1
                    if nxt < window_end:
                        push(nxt, _INJECT, host)

            elif kind == _HEADER:
                pkt = payload
                pkt.hop += 1
                enqueue(pkt, now)

            elif kind == _PORT_FREE:
                serve(payload, now)

            elif kind == _CREDIT:
                credits[payload] += 1
                serve(payload // n_vcs, now)

            elif kind == _HEAD_READY:
                request_head(payload, now)

            else:  # _DELIVER
                pkt = payload
                credits[pkt.holding] += 1  # host drains at link rate
                serve(pkt.holding // n_vcs, now)
                msg = pkt.message
                msg.packets_remaining -= 1
                if record:
                    interval_delivered += packet_flits
                if warmup <= now < window_end:
                    flits_delivered += packet_flits
                if msg.packets_remaining == 0:
                    msg.delivered_at = now
                    if msg.measured:
                        messages_completed += 1
                        delays.append(msg.delay)

        return self._finish(rec, workload, delays, messages_measured,
                            messages_completed, flits_created,
                            flits_delivered, credit_stalls, events, now)

    def _initial_credits(self) -> list[int]:
        """Downstream credits per sub-channel (VC lane) at cycle 0."""
        n_vcs = self.config.virtual_channels
        credits = [self.config.buffer_packets] * (self._n_channels * n_vcs)
        if self.degraded is not None and not self.degraded.is_pristine:
            # A failed channel never grants credits: even if a stray
            # route referenced it, no packet could start crossing.
            for c, ok in enumerate(self.degraded.link_ok):
                if not ok:
                    base = c * n_vcs
                    for v in range(n_vcs):
                        credits[base + v] = 0
        return credits

    def _finish(self, rec, workload, delays, messages_measured,
                messages_completed, flits_created, flits_delivered,
                credit_stalls, events, sim_cycles) -> FlitRunResult:
        """Run epilogue shared by both engines: the ``flit.*`` counters,
        the message-delay histogram, and the window statistics."""
        cfg = self.config
        if rec.enabled:
            rec.count("flit.runs", 1)
            rec.count("flit.events", events)
            rec.count("flit.flits_injected", flits_created)
            rec.count("flit.flits_delivered", flits_delivered)
            rec.count("flit.credit_stalls", credit_stalls)
            rec.count("flit.messages_measured", messages_measured)
            rec.count("flit.messages_completed", messages_completed)
            for d in delays:
                rec.observe("flit.message_delay", d)
        mean_delay, p95_delay, max_delay = delay_stats(delays)
        denom = cfg.measure_cycles * self._n_procs
        injected = flits_created / denom if denom else 0.0
        return FlitRunResult(
            offered_load=workload.load if workload is not None else injected,
            injected_load=injected,
            throughput=flits_delivered / denom if denom else 0.0,
            mean_delay=mean_delay,
            p95_delay=p95_delay,
            max_delay=max_delay,
            messages_measured=messages_measured,
            messages_completed=messages_completed,
            sim_cycles=min(sim_cycles, cfg.horizon),
            events=events,
        )
