"""Persistent process pools with one-shot context shipping.

A parallel flit sweep fans a few kilobytes-to-megabytes of immutable
state — a dict of flit simulators with their route tables — out to
worker processes, then streams many small tasks against it.  Rebuilding
a ``ProcessPoolExecutor`` per batch of tasks pays process start-up each
time; shipping the state inside every task argument pays its pickle
cost per task.  :class:`PersistentPool` removes both:

* the executor is created once (lazily, at the first submit) and reused
  for as many schemes, seeds and load points as the owner keeps the
  pool alive;
* large payloads are registered once with :meth:`PersistentPool.
  put_context`, which spills a pickle to a private temp directory and
  returns a small string *token*.  Tasks carry the token; a worker
  resolves it with :func:`load_context`, unpickling the spill file at
  most once per worker process and caching the object for the worker's
  lifetime.

On fork-based platforms contexts registered before the workers start are
inherited directly from the parent's memory and the spill file is never
read; the file path is the start-method-agnostic fallback (spawn,
forkserver, or contexts registered after the first submit).

Context payloads are treated as immutable by the parent.  Workers may
cache *derived* objects onto a dict payload (e.g. an engine built from a
plan) — such mutations stay process-local.

Telemetry (through the ambient :mod:`repro.obs` recorder):
``runner.pool_created`` (executor constructions — the pool-churn
metric), ``runner.context_spilled`` (payload registrations) and
``runner.pool_tasks`` (submitted tasks).  :meth:`PersistentPool.
submit_task` runs each task under a per-task :class:`~repro.obs.
Recorder` and ships its ``snapshot()`` back alongside the result — so
worker-side timers, counters, histograms and events (including
``runner.context_load`` spill-file unpickle time) merge into the parent
recorder instead of vanishing into the worker process's no-op default.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import weakref
from concurrent.futures import ProcessPoolExecutor

from repro.errors import RunnerError
from repro.obs.recorder import Recorder, get_recorder, use_recorder

# -- worker-process state ----------------------------------------------
_WORKER_DIR: str | None = None
_WORKER_CACHE: dict[str, object] = {}
#: parent-side registry so task functions also resolve inline (n_jobs=1,
#: tests) and so forked workers inherit already-registered payloads.
_PARENT_CONTEXTS: dict[str, object] = {}

_POOL_SEQ = 0


def _init_worker(context_dir: str) -> None:
    """Pool initializer: remember where spilled contexts live."""
    global _WORKER_DIR
    _WORKER_DIR = context_dir
    _WORKER_CACHE.clear()


def load_context(token: str):
    """Resolve a context token to its payload (worker or parent side).

    Workers unpickle the spill file once and cache the object for the
    lifetime of the process, so a payload crosses the process boundary
    at most once per worker no matter how many tasks reference it.
    """
    obj = _WORKER_CACHE.get(token)
    if obj is not None:
        return obj
    obj = _PARENT_CONTEXTS.get(token)
    if obj is not None:
        return obj
    if _WORKER_DIR is not None:
        path = os.path.join(_WORKER_DIR, f"{token}.ctx")
        if os.path.exists(path):
            with get_recorder().timer("runner.context_load"):
                with open(path, "rb") as fh:
                    obj = pickle.load(fh)
            get_recorder().count("runner.context_loads")
            _WORKER_CACHE[token] = obj
            return obj
    raise RunnerError(f"unknown pool context {token!r}")


class PersistentPool:
    """A reusable ``ProcessPoolExecutor`` with one-shot context shipping.

    >>> from repro.runner.pool import PersistentPool, load_context
    >>> with PersistentPool(2) as pool:
    ...     token = pool.put_context({"base": 40})
    ...     load_context(token)["base"]  # resolves inline in the parent too
    40

    The executor is created lazily at the first :meth:`submit_task` and
    torn down by :meth:`close` (or the context manager exit).  A closed
    pool may be reused — the next submit starts a fresh generation with
    its own context directory.

    An owner that hands the pool to several consumers keeps one set of
    worker processes alive across all of them; each consumer registers
    its own context and the workers cache every context they have seen.
    """

    def __init__(self, n_jobs: int):
        if n_jobs < 1:
            raise RunnerError(f"n_jobs must be >= 1, got {n_jobs}")
        global _POOL_SEQ
        _POOL_SEQ += 1
        self.n_jobs = int(n_jobs)
        self._instance = _POOL_SEQ
        self._seq = 0
        self._dir: str | None = None
        self._executor: ProcessPoolExecutor | None = None
        self._tokens: list[str] = []
        self._finalizer = None

    def __repr__(self) -> str:
        state = "running" if self.running else "idle"
        return f"PersistentPool(n_jobs={self.n_jobs}, {state})"

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._executor is not None

    def _ensure_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-pool-")
            # Belt and braces: remove the spill directory at GC /
            # interpreter exit even if the owner forgets to close().
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, self._dir, ignore_errors=True)
        return self._dir

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_jobs,
                initializer=_init_worker,
                initargs=(self._ensure_dir(),),
            )
            get_recorder().count("runner.pool_created")
        return self._executor

    def close(self) -> None:
        """Shut the workers down and drop every registered context."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for token in self._tokens:
            _PARENT_CONTEXTS.pop(token, None)
        self._tokens.clear()
        if self._finalizer is not None:
            self._finalizer()  # rmtree now rather than at GC
            self._finalizer = None
        self._dir = None

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- work ----------------------------------------------------------
    def put_context(self, payload) -> str:
        """Register ``payload`` for worker-side lookup; returns its token.

        The payload is pickled exactly once (to the pool's spill
        directory); subsequent tasks reference it by token.  Tokens are
        unique across pools and generations, so a stale token can never
        silently alias a newer payload.
        """
        token = f"c{self._instance}g{self._seq}"
        self._seq += 1
        directory = self._ensure_dir()
        tmp = os.path.join(directory, f"{token}.tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, os.path.join(directory, f"{token}.ctx"))
        _PARENT_CONTEXTS[token] = payload
        self._tokens.append(token)
        get_recorder().count("runner.context_spilled")
        return token

    def submit_task(self, fn, /, *args):
        """Submit ``fn(*args)`` under the ambient telemetry context.

        The returned Future resolves to ``(result, snapshot)``.  When
        the ambient recorder is enabled at submit time, the task runs
        worker-side under its own per-task :class:`~repro.obs.Recorder`
        and ``snapshot`` is that recorder's JSON-safe state for the
        parent to :meth:`~repro.obs.Recorder.merge`.  When disabled, the
        task runs under the no-op recorder (an enabled recorder
        inherited across ``fork`` cannot slow the worker down) and
        ``snapshot`` is ``None``.
        """
        rec = get_recorder()
        future = self._ensure_executor().submit(
            _run_task, fn, args, rec.enabled)
        rec.count("runner.pool_tasks")
        return future


def _run_task(fn, args, record: bool):
    """Worker-side wrapper behind :meth:`PersistentPool.submit_task`:
    run the task under a fresh recorder and ship its snapshot back with
    the result."""
    if not record:
        with use_recorder(None):
            return fn(*args), None
    rec = Recorder()
    with use_recorder(rec):
        return fn(*args), rec.snapshot()
