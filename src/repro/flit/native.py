"""The batched flit engine's native entry point.

One ``run_batched`` call of ``kernel.c`` runs a whole batched flit run,
from the ``random.Random`` state to the statistics: phase A replays the
arrival process (destinations, path choices, arrival clocks) with
CPython's own random-number formulas and writes each packet's hop links
from the route table's blocks, and phase B processes the events,
mirroring :meth:`repro.flit.engine.FlitSimulator.run` event for event,
for both switch models and with telemetry.  :mod:`repro.native` builds
and loads the library; its :func:`available` and
:func:`unavailable_reason` are re-exported here.  Without the library
the batched engine runs the reference engine instead: correct, just
slower.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.errors import SimulationError
from repro.flit.workload import (
    FixedPermutation,
    HotspotWorkload,
    UniformRandom,
    Workload,
)
from repro.native import available, lib, unavailable_reason

__all__ = ["arrivals", "available", "run", "unavailable_reason"]

# params[] layout — must match the P_* enum in kernel.c.
_P_COUNT = 19
# out[] layout — must match the O_* enum in kernel.c.
_O_COUNT = 11
_O_MESSAGES_MEASURED = 8
_O_CAPACITY = 9
_O_KEY = 10
# Return codes — must match the RC_* enum in kernel.c.
_RC_NO_MEMORY = 1
_RC_ARENA_FULL = 2
_RC_NO_ROUTE = 3
# Path selection, as the SEL_* enum in kernel.c.
_SELECTIONS = {"per-packet": 0, "per-message": 1, "round-robin": 2}

# Destination models, as the MODEL_* enum in kernel.c.
_UNIFORM, _PERMUTATION, _HOTSPOT, _TRACE = range(4)
# Telemetry row width: t, injected, delivered, credit_stalls, occupancy.
_ROW = 5


class _Block(ctypes.Structure):
    """One :class:`~repro.routing.vectorized.RouteBlock`, as the ``Block``
    struct in kernel.c reads it: two counts, then six array addresses
    (NULL for an absent ``live`` or pair part)."""

    _fields_ = [("p", ctypes.c_int64), ("k", ctypes.c_int64),
                *((name, ctypes.c_void_p) for name in
                  ("idx", "live", "path_ptr", "links", "up", "down"))]


def arrivals(workload: Workload | None, trace, n_procs: int,
             message_flits: int) -> tuple | None:
    """The kernel's arrival source for a run, as :func:`run` takes it:
    ``(model, rate, hot_fraction, data)``, where ``data`` is the
    permutation, the sorted hot nodes, or the trace's cycle, source and
    destination columns sorted stably by cycle.  None when only the
    reference can run it.  Models are matched by exact type, since a
    subclass may override ``pick_destination``."""
    if trace is not None:
        entries = np.array([(e.cycle, e.src, e.dst) for e in trace],
                           dtype=np.int64).reshape(-1, 3)
        if entries.size and (entries[:, 0].min() < 0
                             or entries[:, 1].min() < 0
                             or entries[:, 1].max() >= n_procs):
            return None  # a cycle before 0 or a source outside the hosts
        entries = entries[np.argsort(entries[:, 0], kind="stable")]
        return _TRACE, 0.0, 0.0, entries.T.copy()
    kind = type(workload)
    hot_fraction = 0.0
    if kind is FixedPermutation and workload.perm.size == n_procs:
        model, data = _PERMUTATION, workload.perm
    elif kind is UniformRandom and n_procs > 1:
        model, data = _UNIFORM, np.zeros(0, dtype=np.int64)
    elif kind is HotspotWorkload and n_procs > 1:
        model = _HOTSPOT
        data = np.array(workload.hot_nodes, dtype=np.int64)
        hot_fraction = float(workload.hot_fraction)
    else:
        # also a wrong-length permutation and randrange(0): the reference
        # raises those at the first arrival inside the horizon
        return None
    rate = 1.0 / workload.mean_interarrival(message_flits)
    return model, rate, hot_fraction, data


def run(state: tuple, source: tuple, routes, cfg, n_channels: int,
        n_procs: int, initial_credits: list, record: bool) -> tuple[tuple, list]:
    """Run one batched flit run natively.

    ``state`` is :meth:`random.Random.getstate` of the run's generator,
    which the kernel continues draw for draw; ``source`` is what
    :func:`arrivals` returns, and ``routes`` the
    :class:`~repro.routing.vectorized.RouteTable`, whose key map and
    blocks the kernel reads in place.

    Returns ``(stats, rows)``: ``stats`` is the positional tail of
    :meth:`~repro.flit.engine.FlitSimulator._finish` (delays through
    ``sim_cycles``) and ``rows`` the per-interval telemetry as
    ``[t, injected, delivered, credit_stalls, occupancy]`` lists, empty
    unless ``record``.  A message whose pair has no route raises
    ``KeyError(key)``, as the reference's table lookup does.
    """
    model, rate, hot_fraction, data = source
    horizon = cfg.horizon
    obs_interval = (cfg.obs_interval or max(1, cfg.measure_cycles // 20)
                    if record else 0)
    params = np.array([
        n_procs, routes.level.size, n_channels, cfg.virtual_channels,
        cfg.packets_per_message, cfg.packet_flits,
        cfg.wire_delay + cfg.packet_flits,
        cfg.wire_delay + cfg.routing_delay,
        cfg.wire_delay + cfg.packet_flits + cfg.routing_delay,  # slack
        n_channels.bit_length(), cfg.warmup_cycles, cfg.end_of_window,
        horizon, 1 if cfg.switch_model == "input-fifo" else 0,
        cfg.message_flits, obs_interval, _SELECTIONS[cfg.path_selection],
        model, data.size // 3 if model == _TRACE else data.size,
    ], dtype=np.int64)
    assert params.size == _P_COUNT

    # at most one row per obs_interval cycles up to the horizon
    telemetry = np.zeros(
        _ROW * (horizon // obs_interval + 1 if obs_interval else 1),
        dtype=np.int64)
    out = np.zeros(_O_COUNT, dtype=np.int64)
    delays = ctypes.POINTER(ctypes.c_int64)()
    kernel = lib()
    # every array as the contiguous dtype kernel.c reads; ``keep`` holds
    # each one alive for the call
    keep = []

    def address(a, dtype=np.int64):
        if a is None:
            return None
        keep.append(np.ascontiguousarray(a, dtype=dtype))
        return keep[-1].ctypes.data

    blocks = (_Block * (max(routes.blocks, default=0) + 1))()
    for b, block in routes.blocks.items():
        blocks[b] = _Block(
            block.idx.shape[1], 0 if block.up is None else block.up.shape[1],
            *map(address, (block.idx, block.live, block.path_ptr,
                           block.links, block.up, block.down)))
    rc = kernel.run_batched(
        address(params), address([rate, hot_fraction], np.float64),
        address(state[1], np.uint32), address(routes.level, np.int8),
        address(routes.row), ctypes.addressof(blocks), address(data),
        address(initial_credits), address(telemetry), address(out),
        ctypes.byref(delays))
    try:
        if rc == _RC_NO_ROUTE:
            raise KeyError(int(out[_O_KEY]))
        if rc == _RC_ARENA_FULL:
            raise SimulationError(
                f"native flit kernel overflowed its {out[_O_CAPACITY]}-node "
                f"event arena; the push bound in kernel.c does not hold")
        if rc == _RC_NO_MEMORY:
            raise MemoryError("native flit kernel allocation failed")
        n_delays = int(out[6])
        delay_list = (np.ctypeslib.as_array(delays, (n_delays,)).tolist()
                      if n_delays else [])
    finally:
        kernel.release(delays)

    messages_measured = int(out[_O_MESSAGES_MEASURED])
    stats = (delay_list, messages_measured,
             int(out[0]), messages_measured * cfg.message_flits,
             int(out[1]), int(out[2]), int(out[3]),
             horizon if out[5] else int(out[4]))
    return stats, telemetry[:_ROW * out[7]].reshape(-1, _ROW).tolist()
