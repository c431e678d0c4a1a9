"""On-disk result cache for flit sweep runners (content-hash keyed JSONL).

A full flit-level sweep costs minutes to hours per scheme; an
interrupted Figure 5 / Table 1 run used to recompute every completed
(scheme, load, repeat) point from scratch.  :class:`ResultCache` makes
sweeps resumable: each point's :class:`~repro.flit.stats.FlitRunResult`
is stored under a SHA-256 *content hash* of everything that determines
it —

* the topology (its canonical ``repr``),
* the routing scheme (label, ``repr`` and construction seed),
* the full :class:`~repro.flit.config.FlitConfig` field set,
* the workload family and offered load,
* the per-point workload seed, and
* the library code version (``repro.__version__``).

Change any input and the key changes, so a stale entry can never be
returned.  Generic records (:meth:`ResultCache.get_record` /
:meth:`ResultCache.put_record`, e.g. churn-sweep step MLOADs) get the
same guarantee even when the *caller's* key omits the version: the
on-disk key is re-derived from the caller's key plus the cache's code
version and the record-schema constant (:data:`RECORD_SCHEMA`), so a
version or schema change renames every entry rather than trusting each
call site to remember.  The code version is additionally stored as a
plain field on every entry: entries written by a different version are
skipped at load time and reported through the
``runner.cache_invalidated`` telemetry counter, which is how an upgrade
shows up as a cold cache rather than as silence.

Storage is a single append-only JSON Lines file per cache directory
(default ``.repro-cache/flit-runs.jsonl``) — crash-tolerant (a torn
trailing line from an interrupt is skipped and counted) and trivially
inspectable with ``jq``.  Floats round-trip exactly through JSON
(``repr``-based encoding), so a cache replay is bit-identical to the
original computation; NaN statistics (e.g. ``mean_delay`` beyond
saturation) are preserved via JSON's non-strict ``NaN`` literal.

Telemetry: ``runner.cache_hit`` / ``runner.cache_miss`` per probe,
``runner.cache_store`` per write, ``runner.cache_invalidated`` /
``runner.cache_corrupt`` at load time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict

from repro.errors import RunnerError
from repro.flit.stats import FlitRunResult
from repro.obs.recorder import get_recorder

#: default cache directory (gitignored)
DEFAULT_CACHE_DIR = ".repro-cache"

#: version of the record payload shapes stored via :meth:`ResultCache.
#: put_record`; bump when a stored dict's fields change meaning so old
#: entries miss instead of being replayed into the new shape
RECORD_SCHEMA = 1

_FILENAME = "flit-runs.jsonl"


def _code_version() -> str:
    # Imported lazily: repro/__init__ transitively imports this module.
    from repro import __version__

    return __version__


def cache_key(parts: dict) -> str:
    """Content hash of a JSON-able dict of key parts.

    Canonicalized with sorted keys and compact separators so key
    equality is insensitive to dict construction order; non-JSON values
    fall back to ``repr``.
    """
    canon = json.dumps(parts, sort_keys=True, separators=(",", ":"),
                       default=repr)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ResultCache:
    """Append-only JSONL cache of :class:`FlitRunResult` values.

    >>> import tempfile
    >>> from repro.flit.stats import FlitRunResult
    >>> cache = ResultCache(tempfile.mkdtemp())
    >>> key = cache_key({"load": 0.2, "seed": 0})
    >>> cache.get(key) is None
    True
    >>> cache.put(key, FlitRunResult(0.2, 0.2, 0.19, 40.0, 55.0, 80.0,
    ...                              100, 100, 1000, 5000))
    >>> cache.get(key).throughput
    0.19

    The JSONL file is read once (lazily) per instance and indexed in
    memory; :meth:`put` appends to the file and updates the index, so a
    long sweep can interleave probes and stores freely.
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR, *,
                 version: str | None = None):
        self.directory = str(directory)
        if os.path.exists(self.directory) and not os.path.isdir(self.directory):
            raise RunnerError(
                f"cache directory {self.directory!r} exists and is not a "
                f"directory")
        self.version = version if version is not None else _code_version()
        self.path = os.path.join(self.directory, _FILENAME)
        self._index: dict[str, dict] | None = None
        #: entries skipped at load time because they were written by a
        #: different code version (0 until the file is first read)
        self.stale_entries = 0

    def __repr__(self) -> str:
        return f"ResultCache({self.directory!r}, version={self.version!r})"

    def _load(self) -> dict[str, dict]:
        if self._index is not None:
            return self._index
        index: dict[str, dict] = {}
        stale = 0
        corrupt = 0
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                        key = entry["key"]
                        result = entry["result"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        corrupt += 1  # torn tail write from an interrupt
                        continue
                    if entry.get("version") != self.version:
                        stale += 1
                        continue
                    index[key] = result
        self.stale_entries = stale
        rec = get_recorder()
        if stale:
            rec.count("runner.cache_invalidated", stale)
        if corrupt:
            rec.count("runner.cache_corrupt", corrupt)
        self._index = index
        return index

    def __len__(self) -> int:
        return len(self._load())

    def __contains__(self, key: str) -> bool:
        return self.record_key(key) in self._load()

    def record_key(self, key: str) -> str:
        """The on-disk key for a caller key: re-hashed together with the
        cache's code version and :data:`RECORD_SCHEMA`.

        Callers like the churn sweep hash only their own inputs; folding
        the version/schema in here means a library upgrade or a payload
        shape change invalidates *every* record, whether or not the call
        site remembered to include a version part.
        """
        return cache_key({"key": key, "version": self.version,
                          "schema": RECORD_SCHEMA})

    def get_record(self, key: str) -> dict | None:
        """The raw cached record for ``key``, or ``None`` on a miss.

        The generic layer under :meth:`get`: any JSON-able dict payload
        (flit run points, churn-sweep step MLOADs) shares the same file,
        index, versioning and telemetry.
        """
        entry = self._load().get(self.record_key(key))
        rec = get_recorder()
        if entry is None:
            rec.count("runner.cache_miss")
            return None
        rec.count("runner.cache_hit")
        return entry

    def put_record(self, key: str, record: dict) -> None:
        """Persist a raw JSON-able dict under ``key`` (idempotent)."""
        index = self._load()
        skey = self.record_key(key)
        if skey in index:
            return
        index[skey] = record
        os.makedirs(self.directory, exist_ok=True)
        line = json.dumps({"key": skey, "version": self.version,
                           "result": record})
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        get_recorder().count("runner.cache_store")

    def get(self, key: str) -> FlitRunResult | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        entry = self.get_record(key)
        if entry is None:
            return None
        return FlitRunResult(**entry)

    def put(self, key: str, result: FlitRunResult) -> None:
        """Persist ``result`` under ``key`` (idempotent)."""
        self.put_record(key, asdict(result))
