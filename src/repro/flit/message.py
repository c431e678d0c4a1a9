"""Messages and packets for the flit-level engine.

Messages are the unit of delay measurement (created at a host, delivered
when the tail flit of their last packet reaches the destination); packets
are the unit of switching and flow control.  Individual flits are never
materialized — virtual cut-through lets the engine reason about packets
with flit-time arithmetic, which is what makes the simulation tractable
in Python (see DESIGN.md Section 7).
"""

from __future__ import annotations


class Message:
    """One application message.

    ``packets_remaining`` counts undelivered packets; the message is
    complete when it reaches zero, at which point ``delivered_at`` holds
    the tail-arrival cycle of the last packet.
    """

    __slots__ = ("uid", "src", "dst", "created_at", "packets_remaining",
                 "delivered_at", "measured")

    def __init__(self, uid: int, src: int, dst: int, created_at: int,
                 n_packets: int, measured: bool):
        self.uid = uid
        self.src = src
        self.dst = dst
        self.created_at = created_at
        self.packets_remaining = n_packets
        self.delivered_at = -1
        self.measured = measured

    @property
    def delay(self) -> int:
        """Creation-to-full-delivery latency in cycles (-1 if in flight)."""
        if self.delivered_at < 0:
            return -1
        return self.delivered_at - self.created_at


class Packet:
    """One packet in flight.

    ``path`` is the tuple of directed channel (link) ids from source host
    to destination host; ``hop`` indexes the next channel to traverse.
    ``holding`` is the channel whose receive buffer currently stores the
    packet (-1 while still in the source's unbounded injection queue) —
    its credit is released when the packet's tail leaves that buffer.
    """

    __slots__ = ("message", "path", "hop", "holding")

    def __init__(self, message: Message, path: tuple[int, ...]):
        self.message = message
        self.path = path
        self.hop = 0
        self.holding = -1
