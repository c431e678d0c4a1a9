"""Execution layer for flit sweep grids: pools, result caching, fan-out.

``repro.runner`` is the wall-clock infrastructure under the paper's
flit-level artifacts:

* :class:`~repro.runner.pool.PersistentPool` — a reusable process pool
  whose workers receive large immutable payloads (flit simulators with
  their route tables) once per worker via spill-file contexts instead
  of once per task;
* :class:`~repro.runner.cache.ResultCache` — an on-disk JSONL cache of
  flit run results keyed by a content hash of every input plus the code
  version, making interrupted sweeps resumable;
* :func:`~repro.runner.sweep.run_sweeps` — the one path of offered-load
  sweeps over (scheme x load x repeat) grid points, inline or pooled,
  bit-identical either way for a fixed seed.
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache, cache_key
from repro.runner.pool import PersistentPool, load_context
from repro.runner.sweep import point_key, point_seed, run_sweeps

__all__ = [
    "PersistentPool",
    "load_context",
    "ResultCache",
    "cache_key",
    "DEFAULT_CACHE_DIR",
    "run_sweeps",
    "point_seed",
    "point_key",
]
