"""Flit-level simulation configuration.

The paper's simulator models virtual cut-through (VCT) switching with
credit-based flow control and a single virtual channel, "to closely
resemble InfiniBand networks", with Poisson message arrivals, fixed
packet and message sizes, and finite input/output buffers.  The exact
sizes were lost to OCR; the defaults below are documented substitutions
(DESIGN.md Section 2) and everything is configurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError

#: how a multi-path route set is exercised by the traffic
PATH_SELECTION_MODES = ("per-message", "per-packet", "round-robin")

#: switch microarchitectures the engine can model
SWITCH_MODELS = ("input-fifo", "output-queued")


@dataclass(frozen=True)
class FlitConfig:
    """Parameters of one flit-level run.

    Attributes
    ----------
    packet_flits:
        Flits per packet; a link transmits one flit per cycle, so this is
        also a packet's serialization latency.
    packets_per_message:
        Fixed message size in packets (the paper uses fixed-size
        messages).
    buffer_packets:
        Input-buffer capacity per switch port *per virtual channel*, in
        packets (= the credit count per channel/VC).
    virtual_channels:
        Number of virtual channels per physical channel.  The paper
        evaluates routing with a single VC; more VCs give each physical
        link several independent FIFO buffers sharing its bandwidth,
        which relieves head-of-line blocking in the ``input-fifo``
        switch model (see ``python -m repro ablations``).  A packet is
        assigned a free VC each time it wins an output port.
    wire_delay:
        Link propagation delay in cycles.
    routing_delay:
        Header processing time at a switch before the packet can compete
        for its output port.
    warmup_cycles / measure_cycles:
        Statistics are collected for messages created inside the
        measurement window ``[warmup, warmup + measure)``; the run then
        drains in-flight traffic up to ``drain_cycles`` extra cycles.
    drain_cycles:
        Extra simulated time after the window to let measured messages
        complete (beyond saturation some never do; they are reported as
        undelivered rather than biasing the delay average silently).
    path_selection:
        ``per-packet`` (default: the traffic fractions ``f_{i,j}`` are
        realized at packet granularity), ``per-message`` or
        ``round-robin`` (ablation modes).
    switch_model:
        ``input-fifo`` models single-VC FIFO input buffers with
        head-of-line blocking; ``output-queued`` (default) lets any
        buffered packet compete for its output port (per-output FIFO
        queues), which matches the paper's observed behaviour — its
        simulator buffers packets at both inputs and outputs.  The
        input-FIFO model is kept as an ablation: it reverses part of the
        multi-path advantage because concentrated (single-path) routing
        confines HoL blocking to fewer buffers.
    seed:
        Workload RNG seed.
    obs_interval:
        Telemetry observation-interval length in cycles for the
        per-interval trace (:mod:`repro.obs`); 0 (default) derives
        ~20 intervals from ``measure_cycles``.  Only consulted when a
        recording recorder is active.
    """

    packet_flits: int = 16
    packets_per_message: int = 4
    buffer_packets: int = 4
    virtual_channels: int = 1
    wire_delay: int = 1
    routing_delay: int = 1
    warmup_cycles: int = 2_000
    measure_cycles: int = 10_000
    drain_cycles: int = 20_000
    path_selection: str = "per-packet"
    switch_model: str = "output-queued"
    seed: int = 0
    obs_interval: int = 0

    def __post_init__(self):
        for name in ("packet_flits", "packets_per_message", "buffer_packets",
                     "virtual_channels"):
            if getattr(self, name) < 1:
                raise SimulationError(f"{name} must be >= 1")
        for name in ("wire_delay", "routing_delay"):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be >= 0")
        for name in ("warmup_cycles", "measure_cycles", "drain_cycles",
                     "obs_interval"):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be >= 0")
        if self.path_selection not in PATH_SELECTION_MODES:
            raise SimulationError(
                f"path_selection must be one of {PATH_SELECTION_MODES}, "
                f"got {self.path_selection!r}"
            )
        if self.switch_model not in SWITCH_MODELS:
            raise SimulationError(
                f"switch_model must be one of {SWITCH_MODELS}, "
                f"got {self.switch_model!r}"
            )

    @property
    def message_flits(self) -> int:
        return self.packet_flits * self.packets_per_message

    @property
    def end_of_window(self) -> int:
        return self.warmup_cycles + self.measure_cycles

    @property
    def horizon(self) -> int:
        return self.end_of_window + self.drain_cycles

    def scaled(self, **overrides) -> "FlitConfig":
        """A copy with some fields replaced (dataclasses.replace shim
        with validation)."""
        from dataclasses import replace

        return replace(self, **overrides)
