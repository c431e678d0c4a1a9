"""On-demand compiled kernels: one shared library, four entry points.

* ``run_batched`` (``flit/kernel.c``) runs a whole batched flit run; see
  :mod:`repro.flit.native`.
* ``scatter_loads`` (``flow/loads.c``) adds one NCA-level group of the
  flow evaluator into its load vector; see :mod:`repro.flow.loads`.
* ``select_paths`` (``routing/select.c``) does one level query of the
  random heuristic: it scores every path of each pair and keeps the
  lowest-scoring ones; see :mod:`repro.routing.heuristics`.
* ``select_surviving`` (``routing/select.c``) does one level query of a
  fault-aware scheme: it walks each pair's preference order and keeps
  the first paths alive in the fabric's liveness tables; see
  :mod:`repro.faults.scheme`.

All sources are compiled by one compiler call into one shared library,
once per machine, cached under ``~/.cache/repro-native`` (or
``$REPRO_KERNEL_CACHE``) keyed by a hash of the compiler's name, its
flags and the sources, and loaded with ctypes.  ``-ffp-contract=off``
keeps a multiply and an add from fusing into one FMA, which rounds once
where numpy rounds twice.  The library loads with all four entry points
or not at all.  Array arguments are declared ``c_void_p`` and passed as
``a.ctypes.data``, a plain address: the caller checks each array's
dtype and contiguity and keeps it alive for the call.
When it cannot be built or loaded, :func:`available` is false,
:func:`unavailable_reason` says why ("no C compiler", "build failed:
...", "load failed: ..."), and each layer takes its own slower path: the
batched flit engine runs the reference engine, the flow evaluator
stages its sums for one weighted ``np.bincount``, the random heuristic
scores an ``(n, W(k))`` matrix with numpy and selects with
``argpartition``/``argsort``, and a fault-aware scheme gathers an
``(n, W(k))`` liveness matrix and selects from it with numpy.  All four
are bit-identical to the native path.  No third-party packages are
involved — just ``ctypes`` and a cc.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

_HERE = os.path.dirname(__file__)
_SOURCES = (os.path.join(_HERE, "flit", "kernel.c"),
            os.path.join(_HERE, "flow", "loads.c"),
            os.path.join(_HERE, "routing", "select.c"))

#: compiler flags, hashed into the cached library's name
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_lib = None
_reason: str | None = None
_load_attempted = False


def _cache_dir() -> str:
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if not root:
        root = os.path.join(
            os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"),
            "repro-native")
    os.makedirs(root, exist_ok=True)
    return root


def _build(cc: str, so_path: str) -> str | None:
    """Compile every source into ``so_path``; why it failed, or None."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(so_path))
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *_FLAGS, "-o", tmp, *_SOURCES, "-lm"],
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


def _library_path(cc: str) -> str:
    """Where the library ``cc`` builds with :data:`_FLAGS` from the
    current sources is cached."""
    digest = hashlib.sha256("\0".join((cc, *_FLAGS)).encode())
    for path in _SOURCES:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return os.path.join(_cache_dir(), f"kernel-{digest.hexdigest()[:16]}.so")


def _load() -> str | None:
    """Build (unless cached) and load the library into ``_lib``; why it
    failed, or None."""
    global _lib
    cc = next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
    if cc is None:
        return "no C compiler"
    try:
        so_path = _library_path(cc)
    except OSError as exc:
        return f"build failed: {exc}"
    if not os.path.exists(so_path):
        reason = _build(cc, so_path)
        if reason is not None:
            return reason
    try:
        lib = ctypes.CDLL(so_path)
        run, release = lib.run_batched, lib.release
        scatter, select = lib.scatter_loads, lib.select_paths
        surviving = lib.select_surviving
    except (OSError, AttributeError) as exc:
        return f"load failed: {exc}"
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    run.restype = ctypes.c_long
    run.argtypes = [ptr] * 10 + [ctypes.POINTER(ctypes.POINTER(i64))]
    release.restype = None
    release.argtypes = [ctypes.POINTER(i64)]
    scatter.restype = ctypes.c_long
    scatter.argtypes = [i64, i64, i64, ptr, ptr, ptr, ptr, ptr, i64, ptr,
                        i64, ptr, ptr, ptr, i64, ptr, i64, ptr]
    select.restype = ctypes.c_long
    select.argtypes = [ctypes.c_uint64, i64, i64, ptr, ptr, i64, i64, ptr,
                       ptr]
    surviving.restype = ctypes.c_long
    surviving.argtypes = [i64, i64, ptr, ptr, i64, i64, ptr, ptr, ptr, ptr,
                          ptr, ptr]
    _lib = lib
    return None


def available() -> bool:
    """Whether the compiled library can be used (cached after first call)."""
    global _reason, _load_attempted
    if not _load_attempted:
        _load_attempted = True
        _reason = _load()
    return _lib is not None


def unavailable_reason() -> str | None:
    """Why :func:`available` is false, or None when the library loaded."""
    return None if available() else _reason


def lib():
    """The loaded library (None when :func:`available` is false)."""
    available()
    return _lib


def kernels_ran(timers: dict, layer: str, fallback: str,
                reasons: dict[str, str | None]) -> str | None:
    """What one layer's timed calls in ``timers`` (a recorder's ``name ->
    (seconds, calls)``) executed: ``"native"`` when ``<layer>.kernel``
    ran, and ``"<fallback>: <why>"`` for each ``<layer>.fallback.<reason>``
    that ran (``why`` from ``reasons``; None: :func:`unavailable_reason`),
    joined by ``"; "``; None when neither ran."""
    ran = {name.rpartition("/")[2] for name, (_, calls) in timers.items()
           if calls}
    parts = ["native"] if f"{layer}.kernel" in ran else []
    for reason, why in reasons.items():
        if f"{layer}.fallback.{reason}" in ran:
            parts.append(f"{fallback}: {why or unavailable_reason()}")
    return "; ".join(parts) or None
