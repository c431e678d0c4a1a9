"""JSONL event/metrics sink: one JSON object per line.

The run log format is deliberately boring: the first line is the run
manifest (``"type": "manifest"``), followed by the recorder's event
stream in emission order (``"convergence_round"``, ``"flit_interval"``,
...), and a final ``"type": "metrics"`` line holding the aggregated
counters/timers/histograms.  Anything that reads JSON Lines can consume
it; :func:`read_jsonl` round-trips it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

from repro.errors import ReproError


def _jsonable(obj):
    """Fallback serializer: numpy scalars and other number-likes become
    plain ints/floats; everything else becomes its ``str``."""
    import numbers

    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    return str(obj)


class JsonlSink:
    """Append-only JSON Lines writer.

    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "run.jsonl")
    >>> with JsonlSink(path) as sink:
    ...     sink.write({"type": "demo", "x": 1})
    >>> read_jsonl(path)
    [{'type': 'demo', 'x': 1}]
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")

    def write(self, obj: dict) -> None:
        if self._fh is None:
            raise ValueError(f"sink {self.path} is closed")
        self._fh.write(json.dumps(obj, default=_jsonable,
                                  separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSON Lines file back into a list of objects (blank lines
    are skipped).

    An unreadable file, or a line that is not one JSON object (such as
    the torn last line an interrupted run leaves), raises
    :class:`~repro.errors.ReproError` naming the file and the 1-based
    line.
    """
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc.strerror}") from None
    out = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}:{lineno}: not valid JSON ({exc.msg})"
                             ) from None
        if not isinstance(obj, dict):
            raise ReproError(f"{path}:{lineno}: expected a JSON object, "
                             f"got {type(obj).__name__}")
        out.append(obj)
    return out


def write_run(sink: JsonlSink, manifest, recorder) -> None:
    """Emit the standard run log: manifest line, event stream, metrics.

    ``manifest`` is a :class:`repro.obs.manifest.RunManifest`;
    ``recorder`` any recorder (the null recorder yields an empty stream
    and empty metrics).
    """
    sink.write({"type": "manifest", **manifest.to_dict()})
    for event in recorder.events:
        sink.write(event)
    sink.write({"type": "metrics", **recorder.metrics()})
