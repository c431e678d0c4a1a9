"""On-demand compiled phase-B kernel for the batched flit engine.

:mod:`repro.flit.batched` splits a run into an injection plan (phase A,
where every random draw happens) and pure integer event processing
(phase B).  Phase B has no python left in its contract — flat arrays in,
flat arrays out — so this module compiles ``kernel.c`` (shipped
alongside; it mirrors :meth:`repro.flit.engine.FlitSimulator.run` event
for event, for both switch models and with telemetry) into a shared
library once per machine, caches it under ``~/.cache/repro-flit`` keyed
by source hash, and loads it with ctypes.

When the kernel cannot be built or loaded, :func:`available` is false,
:func:`unavailable_reason` says why ("no C compiler", "build failed:
...", "load failed: ..."), and the batched engine runs the reference
engine instead: correct, just slower.  No third-party packages are
involved — just ``ctypes`` and a cc.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro.errors import SimulationError

_SOURCE = os.path.join(os.path.dirname(__file__), "kernel.c")

# params[] layout — must match the P_* enum in kernel.c.
_P_COUNT = 20
# out[] layout — must match the O_* enum in kernel.c.
_O_COUNT = 8
# Return codes — must match the RC_* enum in kernel.c.
_RC_NO_MEMORY = 1
_RC_ARENA_FULL = 2
# Telemetry row width: t, injected, delivered, credit_stalls, occupancy.
_ROW = 5

_lib = None
_reason: str | None = None
_load_attempted = False


def _cache_dir() -> str:
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if not root:
        root = os.path.join(
            os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"),
            "repro-flit")
    os.makedirs(root, exist_ok=True)
    return root


def _build(so_path: str) -> str | None:
    """Compile ``kernel.c`` into ``so_path``; why it failed, or None."""
    cc = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
    if cc is None:
        return "no C compiler"
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(so_path))
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, _SOURCE],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            return "build failed: " + (
                lines[0] if lines else f"{cc} exited {proc.returncode}")
        os.replace(tmp, so_path)  # atomic: concurrent builds collapse
    except (OSError, subprocess.SubprocessError) as exc:
        return f"build failed: {exc}"
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return None


def _load() -> str | None:
    """Build (unless cached) and load the kernel into ``_lib``; why it
    failed, or None."""
    global _lib
    try:
        with open(_SOURCE, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
        so_path = os.path.join(_cache_dir(), f"kernel-{digest}.so")
    except OSError as exc:
        return f"build failed: {exc}"
    if not os.path.exists(so_path):
        reason = _build(so_path)
        if reason is not None:
            return reason
    try:
        lib = ctypes.CDLL(so_path)
        fn = lib.run_kernel
    except (OSError, AttributeError) as exc:
        return f"load failed: {exc}"
    i64p = ctypes.POINTER(ctypes.c_int64)
    fn.restype = ctypes.c_long
    fn.argtypes = [i64p] * 6 + [ctypes.POINTER(ctypes.c_uint8)] + [i64p] * 6
    _lib = lib
    return None


def available() -> bool:
    """Whether the compiled kernel can be used (cached after first call)."""
    global _reason, _load_attempted
    if not _load_attempted:
        _load_attempted = True
        _reason = _load()
    return _lib is not None


def unavailable_reason() -> str | None:
    """Why :func:`available` is false, or None when the kernel loaded."""
    return None if available() else _reason


def arena_capacity(n_plan: int, hops: int, input_fifo: bool) -> int:
    """Event-node arena size: the push bound derived in ``kernel.c``
    (one push per plan event, plus 2 per route hop output-queued or 4
    input-FIFO)."""
    return n_plan + (4 if input_fifo else 2) * hops + 8


def _i64(values) -> np.ndarray:
    a = np.ascontiguousarray(values, dtype=np.int64)
    return a if a.size else np.zeros(1, dtype=np.int64)


def _ptr(a: np.ndarray):
    return a.ctypes.data_as(
        ctypes.POINTER(ctypes.c_uint8) if a.dtype == np.uint8
        else ctypes.POINTER(ctypes.c_int64))


def run(plan, routes, cfg, n_channels: int, n_procs: int,
        initial_credits: list, record: bool) -> tuple[tuple, list]:
    """Run phase B natively.

    ``plan`` is phase A's output, whose packets name path ids in the
    :class:`~repro.routing.vectorized.RouteTable` ``routes``.  Returns
    ``(stats, rows)``: ``stats`` is the positional tail of
    :meth:`~repro.flit.engine.FlitSimulator._finish` (delays through
    ``sim_cycles``) and ``rows`` the per-interval telemetry as
    ``[t, injected, delivered, credit_stalls, occupancy]`` lists, empty
    unless ``record``.
    """
    (ev_cycle, ev_msg, ev_child, n_initial, msg_src, msg_created,
     msg_measured, pkt_path, overflow) = plan
    n_msgs = len(msg_created)
    input_fifo = cfg.switch_model == "input-fifo"
    horizon = cfg.horizon
    pkt_off, hop_links = routes.gather(np.asarray(pkt_path, dtype=np.int64))
    hops = int(pkt_off[-1])
    obs_interval = (cfg.obs_interval or max(1, cfg.measure_cycles // 20)
                    if record else 0)
    capacity = arena_capacity(len(ev_cycle), hops, input_fifo)

    params = np.array([
        len(ev_cycle), n_initial, n_msgs, cfg.packets_per_message,
        n_channels, cfg.virtual_channels, cfg.packet_flits,
        cfg.wire_delay + cfg.packet_flits,
        cfg.wire_delay + cfg.routing_delay,
        cfg.warmup_cycles, cfg.end_of_window, horizon,
        cfg.wire_delay + cfg.packet_flits + cfg.routing_delay,  # slack
        n_channels.bit_length(), 1 if overflow else 0, n_procs,
        1 if input_fifo else 0, cfg.message_flits, obs_interval, capacity,
    ], dtype=np.int64)
    assert params.size == _P_COUNT

    delays = np.zeros(max(n_msgs, 1), dtype=np.int64)
    # at most one row per obs_interval cycles up to the horizon
    telemetry = np.zeros(
        _ROW * (horizon // obs_interval + 1 if obs_interval else 1),
        dtype=np.int64)
    out = np.zeros(_O_COUNT, dtype=np.int64)
    arrays = (params, _i64(ev_cycle), _i64(ev_msg), _i64(ev_child),
              _i64(msg_src), _i64(msg_created),
              np.frombuffer(bytes(msg_measured), dtype=np.uint8)
              if n_msgs else np.zeros(1, dtype=np.uint8),
              pkt_off, _i64(hop_links), _i64(initial_credits), delays,
              telemetry, out)
    rc = _lib.run_kernel(*map(_ptr, arrays))
    if rc == _RC_ARENA_FULL:
        raise SimulationError(
            f"native flit kernel overflowed its {capacity}-node event "
            f"arena; the push bound in kernel.c does not hold")
    if rc == _RC_NO_MEMORY:
        raise MemoryError("native flit kernel allocation failed")

    messages_measured = sum(msg_measured)
    stats = (delays[:out[6]].tolist(), messages_measured,
             int(out[0]), messages_measured * cfg.message_flits,
             int(out[1]), int(out[2]), int(out[3]),
             horizon if out[5] else int(out[4]))
    return stats, telemetry[:_ROW * out[7]].reshape(-1, _ROW).tolist()
