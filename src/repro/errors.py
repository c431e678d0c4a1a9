"""Exception hierarchy for :mod:`repro`.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """Invalid XGFT parameters or a malformed topology query."""


class RoutingError(ReproError):
    """Invalid routing request (unknown scheme, bad path index, ...)."""


class FaultError(ReproError):
    """Invalid fault specification (bad rates, unknown elements, ...)."""


class DisconnectedPairError(RoutingError):
    """An SD pair has no surviving shortest path on a degraded fabric.

    Carries the pair so sweeps can report *which* traffic was stranded.
    """

    def __init__(self, src: int, dst: int, message: str | None = None):
        self.src = int(src)
        self.dst = int(dst)
        super().__init__(
            message
            or f"no surviving shortest path from {src} to {dst} on the "
               f"degraded fabric"
        )


class TrafficError(ReproError):
    """Invalid traffic matrix or traffic-pattern parameters."""


class SimulationError(ReproError):
    """Flow- or flit-level simulation misconfiguration."""


class RunnerError(ReproError):
    """Sweep-runner misuse (bad ``n_jobs`` or ``repeats``, malformed
    cache directory, ...)."""


class ResourceError(ReproError):
    """InfiniBand-style resource exhaustion (LID address space, ...)."""
