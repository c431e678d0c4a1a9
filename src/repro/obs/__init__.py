"""Observability: run telemetry for every simulator layer.

``repro.obs`` provides the measurement substrate the experiments and the
CLI report through:

* :class:`Recorder` / :class:`NullRecorder` — counters, nesting
  context-manager timers and a typed event stream, with a shared no-op
  default so uninstrumented runs stay fast;
* :class:`JsonlSink` / :func:`read_jsonl` / :func:`write_run` — the
  JSON Lines run-log format (manifest line, event stream, metrics line);
* :class:`RunManifest` — reproducibility provenance attached to every
  experiment run;
* :func:`render_report` / :func:`sparkline` — the human-readable
  ``--profile`` view; :mod:`repro.obs.export` holds the cross-run
  aggregation behind the ``repro report`` CLI.

Code reaches the recorder one way, ambiently: instrumented layers call
:func:`get_recorder`, and a caller installs one with
:func:`use_recorder`::

    from repro.obs import Recorder, use_recorder, render_report

    rec = Recorder()
    with use_recorder(rec):
        study.run(scheme)          # records rounds, samples, timings
    print(render_report(rec))
"""

from repro.obs.events import JsonlSink, read_jsonl, write_run
from repro.obs.manifest import RunManifest
from repro.obs.recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    use_recorder,
)
from repro.obs.report import render_report, sparkline

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "use_recorder",
    "JsonlSink",
    "read_jsonl",
    "write_run",
    "RunManifest",
    "render_report",
    "sparkline",
]
