"""Run-telemetry recorder: counters, timers, events.

Every hot subsystem looks up the ambient recorder (:func:`get_recorder`)
and reports what it did: how many permutation samples a study drew,
where the flit engine spent its cycles, how long a routing-table compile
took.  A caller opts in by installing a :class:`Recorder` with
:func:`use_recorder`.  The default recorder is a shared no-op
(:data:`NULL_RECORDER`), so uninstrumented runs pay one attribute check
per recording site — nothing is allocated, formatted or stored.

Timers nest: entering ``rec.timer("a")`` and then ``rec.timer("b")``
records the inner interval under the qualified name ``"a/b"``, so the
profile report reads as a call tree.

Recorder state is plain data (dicts of floats) and therefore
*mergeable*: a ``ProcessPoolExecutor`` worker builds its own recorder,
ships :meth:`Recorder.snapshot` back as the function result, and the
parent folds it in with :meth:`Recorder.merge`.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class _Timer:
    """Context manager timing one interval into its recorder."""

    __slots__ = ("_rec", "_name", "_qualified", "_t0")

    def __init__(self, rec: "Recorder", name: str):
        self._rec = rec
        self._name = name

    def __enter__(self) -> "_Timer":
        stack = self._rec._stack
        stack.append(self._name)
        self._qualified = "/".join(stack)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter() - self._t0
        rec = self._rec
        rec._stack.pop()
        slot = rec._timers.get(self._qualified)
        if slot is None:
            rec._timers[self._qualified] = [elapsed, 1]
        else:
            slot[0] += elapsed
            slot[1] += 1
        return None


class _NullTimer:
    """Shared no-op context manager for the null recorder."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_TIMER = _NullTimer()


class Recorder:
    """Collects counters, nested timers and typed events.

    >>> rec = Recorder()
    >>> rec.count("widgets", 3)
    >>> with rec.timer("outer"):
    ...     with rec.timer("inner"):
    ...         pass
    >>> rec.counters["widgets"]
    3.0
    >>> sorted(rec.timers)
    ['outer', 'outer/inner']
    """

    enabled = True

    def __init__(self):
        self._counters: dict[str, float] = {}
        self._timers: dict[str, list] = {}  # name -> [total_s, calls]
        self._events: list[dict] = []
        self._stack: list[str] = []

    # -- recording -----------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + n

    def timer(self, name: str) -> _Timer:
        return _Timer(self, name)

    def event(self, type: str, **fields) -> None:
        self._events.append({"type": type, **fields})

    # -- reading -------------------------------------------------------
    @property
    def counters(self) -> dict[str, float]:
        return dict(self._counters)

    @property
    def timers(self) -> dict[str, tuple[float, int]]:
        """name -> (total seconds, call count)."""
        return {k: (v[0], v[1]) for k, v in self._timers.items()}

    @property
    def events(self) -> list[dict]:
        return list(self._events)

    def events_of(self, type: str) -> list[dict]:
        return [e for e in self._events if e.get("type") == type]

    # -- transport -----------------------------------------------------
    def metrics(self) -> dict:
        """JSON-safe summary of counters and timers (no events)."""
        return {
            "counters": dict(self._counters),
            "timers": {k: {"total_s": v[0], "calls": v[1]}
                       for k, v in self._timers.items()},
        }

    def snapshot(self) -> dict:
        """Full JSON-safe state, suitable for cross-process transport."""
        return {**self.metrics(), "events": list(self._events)}

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) in.

        Keys other than counters, timers and events are ignored, so an
        older run log's metrics line that also holds ``hists`` merges."""
        for name, n in snapshot.get("counters", {}).items():
            self.count(name, n)
        for name, t in snapshot.get("timers", {}).items():
            slot = self._timers.get(name)
            if slot is None:
                self._timers[name] = [float(t["total_s"]), int(t["calls"])]
            else:
                slot[0] += float(t["total_s"])
                slot[1] += int(t["calls"])
        self._events.extend(snapshot.get("events", []))


class NullRecorder:
    """API-compatible recorder that records nothing (the default)."""

    enabled = False

    def count(self, name: str, n: float = 1) -> None:
        pass

    def timer(self, name: str) -> _NullTimer:
        return _NULL_TIMER

    def event(self, type: str, **fields) -> None:
        pass

    @property
    def counters(self) -> dict:
        return {}

    @property
    def timers(self) -> dict:
        return {}

    @property
    def events(self) -> list:
        return []

    def events_of(self, type: str) -> list:
        return []

    def metrics(self) -> dict:
        return {"counters": {}, "timers": {}}

    def snapshot(self) -> dict:
        return {**self.metrics(), "events": []}

    def merge(self, snapshot: dict) -> None:
        pass


#: the process-wide default recorder (a shared no-op)
NULL_RECORDER = NullRecorder()

_ACTIVE = NULL_RECORDER


def get_recorder():
    """The currently active recorder (instrumented code calls this)."""
    return _ACTIVE


@contextmanager
def use_recorder(rec):
    """Temporarily install ``rec`` as the active recorder.

    >>> rec = Recorder()
    >>> with use_recorder(rec):
    ...     get_recorder() is rec
    True
    >>> get_recorder() is NULL_RECORDER
    True
    """
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = NULL_RECORDER if rec is None else rec
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev
