"""Execution layer for flit sweep grids: result caching and fan-out.

``repro.runner`` is the wall-clock infrastructure under the paper's
flit-level artifacts:

* :class:`~repro.runner.cache.ResultCache` — an on-disk JSONL cache of
  flit run results keyed by a content hash of every input plus the code
  version, making interrupted sweeps resumable;
* :func:`~repro.runner.sweep.run_sweeps` — the one path of offered-load
  sweeps over (scheme x load x repeat) grid points, inline or over one
  process pool that receives the grid's simulators once per worker,
  bit-identical either way for a fixed seed.
"""

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache, cache_key
from repro.runner.sweep import point_key, point_seed, run_sweeps

__all__ = [
    "ResultCache",
    "cache_key",
    "DEFAULT_CACHE_DIR",
    "run_sweeps",
    "point_seed",
    "point_key",
]
