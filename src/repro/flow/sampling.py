"""Adaptive permutation-load studies (the paper's flow-level protocol).

For a topology and a routing scheme, sample random permutations, measure
the maximum link load of each, and stop once the 99 % confidence interval
is within 1 % of the running average (doubling the sample count each
round, per Section 5).  Randomized routing schemes are averaged over
several seeds, matching "the results are the average of five random
seeds".

Engines
-------
With ``engine="compiled"`` the scheme is compiled once per study run
(:func:`repro.routing.compiled.compile_scheme`) and each adaptive round
is evaluated as one batched call
(:meth:`repro.flow.engine.BatchFlowEngine.permutation_mloads`); with
``n_jobs > 1`` the *compiled plan* — not the scheme — ships to the pool
workers, so workers skip route construction entirely.  Both engines
consume the identical permutation stream for a fixed seed, so their
samples agree to float tolerance.

Pool lifecycle
--------------
Parallel sampling runs on a :class:`repro.runner.pool.PersistentPool`:
one set of worker processes serves *every* adaptive round of a run (and
every run of a seed family), and the evaluation context — the compiled
plan or the (topology, scheme) pair — ships to each worker once per run
rather than once per task.  A study created without an external
``pool`` owns its pool and closes it when the outermost unit of work
finishes (the run, or the whole seed family); use the study as a
context manager to keep the pool warm across several ``run()`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.ci import ConfidenceInterval, confidence_interval
from repro.flow.engine import BatchFlowEngine
from repro.flow.metrics import permutation_optimal_load
from repro.flow.simulator import FlowSimulator, check_engine
from repro.obs.recorder import get_recorder, use_recorder
from repro.obs.trace import span
from repro.routing.base import RoutingScheme
from repro.routing.compiled import CompiledScheme, compile_scheme
from repro.runner.pool import PersistentPool, load_context
from repro.topology.xgft import XGFT
from repro.traffic.permutations import permutation_matrix, random_permutation
from repro.util.rng import as_generator


def _worker_mloads(xgft: XGFT, scheme: RoutingScheme, seed: int,
                   count: int) -> list[float]:
    """Process-pool worker: sample ``count`` permutation max loads.

    Module-level so it pickles; every argument is a plain picklable
    object (XGFT/schemes carry only tuples and ints).  Records into the
    ambient recorder — inert inline, the per-task recorder when run
    through :meth:`~repro.runner.pool.PersistentPool.submit_task`
    (which ships the snapshot back for the parent to merge).
    """
    sim = FlowSimulator(xgft)
    rng = np.random.default_rng(seed)
    rec = get_recorder()
    with rec.timer("flow.sampling.worker"):
        loads = [
            sim.max_load(scheme, permutation_matrix(
                random_permutation(xgft.n_procs, rng)))
            for _ in range(count)
        ]
    rec.count("flow.samples", count)
    return loads


def _worker_batch_mloads(plan: CompiledScheme, seed: int,
                         count: int) -> list[float]:
    """Compiled-engine pool worker: evaluate ``count`` permutations in
    one batched call against a precompiled routing plan.

    Draws the same permutation stream as :func:`_worker_mloads` for the
    same seed, so reference and compiled parallel runs agree sample for
    sample.  Recorder handling mirrors the reference worker exactly
    (same timer name, same ``flow.samples`` counter) so merged
    telemetry is engine-independent.
    """
    engine = BatchFlowEngine(plan)
    rng = np.random.default_rng(seed)
    n = plan.xgft.n_procs
    rec = get_recorder()
    with rec.timer("flow.sampling.worker"):
        perms = np.stack([random_permutation(n, rng) for _ in range(count)])
        loads = engine.permutation_mloads(perms).tolist()
    rec.count("flow.samples", count)
    return loads


def _pool_sample_task(token: str, seed: int, count: int) -> list[float]:
    """Persistent-pool worker: dispatch to the engine the study's
    context was built for.

    The context (compiled plan, or topology + scheme) crosses the
    process boundary at most once per worker
    (:func:`repro.runner.pool.load_context`); per-task arguments are
    three scalars.  Delegates to the classic workers so samples are
    identical to the historical per-round-pool implementation.
    """
    ctx = load_context(token)
    with span("flow.sample_chunk", engine=ctx["engine"], count=count):
        if ctx["engine"] == "compiled":
            return _worker_batch_mloads(ctx["plan"], seed, count)
        return _worker_mloads(ctx["xgft"], ctx["scheme"], seed, count)


@dataclass(frozen=True)
class PermutationStudyResult:
    """Average maximum permutation load for one scheme.

    ``samples`` holds every individual permutation's MLOAD so callers can
    re-analyze (histograms, ratios); ``interval`` is the final CI.
    ``optimal`` is the permutation OLOAD, computed once per study
    (invariant across samples — see
    :func:`repro.flow.metrics.permutation_optimal_load`).
    """

    scheme_label: str
    interval: ConfidenceInterval
    samples: np.ndarray
    converged: bool
    optimal: float = 0.0

    @property
    def mean(self) -> float:
        return self.interval.mean

    @property
    def mean_ratio(self) -> float:
        """Average ``PERF`` over the samples (1.0 when OLOAD unknown)."""
        return self.mean / self.optimal if self.optimal > 0 else 1.0


class PermutationStudy:
    """Runs the adaptive sampling protocol on one topology.

    Parameters
    ----------
    xgft:
        Topology under test.
    initial_samples:
        First-round sample count (doubles each round).
    rel_precision, confidence:
        Stopping rule: stop when the ``confidence`` CI half-width is below
        ``rel_precision`` of the mean (paper: 1 % at 99 %).
    max_samples:
        Hard cap so studies terminate on noisy configurations; the result
        reports ``converged=False`` when the cap bites.
    n_jobs:
        Worker processes for sampling.  1 (default) runs inline;
        more spread each round's samples over a process pool — useful on
        the 3456-node panels where one sample costs milliseconds.
        Results are reproducible for a fixed ``(seed, n_jobs)`` pair.
        The pool persists across adaptive rounds (and across the runs of
        a seed family); see the module docstring for its lifecycle.
    pool:
        Optional externally owned
        :class:`~repro.runner.pool.PersistentPool` shared with other
        studies or runners.  The study never closes an external pool.
        Chunking (and therefore the sample stream) is still governed by
        ``n_jobs``, not by the pool's worker count.
    engine:
        ``"reference"`` evaluates one permutation at a time through
        :class:`FlowSimulator`; ``"compiled"`` compiles the scheme once
        per :meth:`run` and evaluates whole rounds as single batched
        calls (ships the compiled plan to pool workers).
    recorder:
        Optional :class:`repro.obs.Recorder`.  ``None`` (default) uses
        the ambient recorder (:func:`repro.obs.get_recorder`) at run
        time.  When recording is enabled, each adaptive round emits a
        ``convergence_round`` event (scheme, samples, running mean, CI
        half-width) and pool workers merge their recorder state back
        into this one.
    """

    def __init__(
        self,
        xgft: XGFT,
        *,
        initial_samples: int = 64,
        rel_precision: float = 0.01,
        confidence: float = 0.99,
        max_samples: int = 4096,
        seed=None,
        n_jobs: int = 1,
        engine: str = "reference",
        recorder=None,
        pool: PersistentPool | None = None,
    ):
        if initial_samples < 2:
            raise ValueError("need at least 2 initial samples for a CI")
        if max_samples < initial_samples:
            raise ValueError("max_samples must be >= initial_samples")
        if n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        check_engine(engine)
        self.xgft = xgft
        self.sim = FlowSimulator(xgft)
        self.initial_samples = initial_samples
        self.rel_precision = rel_precision
        self.confidence = confidence
        self.max_samples = max_samples
        self.n_jobs = n_jobs
        self.engine = engine
        self._seed = seed
        self._recorder = recorder
        self._perm_optimal: float | None = None
        self._external_pool = pool
        self._owned_pool: PersistentPool | None = None
        self._scope_depth = 0
        self._ctx_token: str | None = None

    @property
    def permutation_optimal(self) -> float:
        """Permutation-traffic OLOAD, computed once per study and shared
        by every sample (hoisted out of the per-matrix work)."""
        if self._perm_optimal is None:
            self._perm_optimal = permutation_optimal_load(self.xgft)
        return self._perm_optimal

    # -- pool lifecycle ------------------------------------------------
    def _study_pool(self) -> PersistentPool:
        """The pool parallel rounds submit to (external wins; an owned
        one is created lazily and reused until :meth:`close`)."""
        if self._external_pool is not None:
            return self._external_pool
        if self._owned_pool is None:
            self._owned_pool = PersistentPool(self.n_jobs)
        return self._owned_pool

    def close(self) -> None:
        """Shut down the study-owned worker pool (external pools are the
        caller's to close).  Idempotent; a later run re-creates it."""
        if self._owned_pool is not None:
            self._owned_pool.close()
            self._owned_pool = None

    def __enter__(self) -> "PermutationStudy":
        """Keep the owned pool warm across several ``run()`` calls."""
        self._scope_depth += 1
        return self

    def __exit__(self, *exc) -> None:
        self._scope_depth -= 1
        if self._scope_depth == 0:
            self.close()

    def _mload_samples(self, scheme: RoutingScheme, count: int, rng,
                       rec, batch: BatchFlowEngine | None) -> list[float]:
        if count <= 0:
            return []
        if self.n_jobs == 1:
            # Both engines consume the identical permutation stream.
            perms = [random_permutation(self.xgft.n_procs, rng)
                     for _ in range(count)]
            if batch is not None:
                out = batch.permutation_mloads(np.stack(perms)).tolist()
            else:
                out = [self.sim.max_load(scheme, permutation_matrix(p))
                       for p in perms]
            rec.count("flow.samples", count)
            return out
        # Parallel: split the round into per-worker chunks with
        # independent child seeds drawn from the study's stream.  The
        # chunk/seed arithmetic is what fixes the sample stream for a
        # given (seed, n_jobs) — the persistent pool underneath carries
        # no randomness, so it matches the historical per-round pools.
        jobs = min(self.n_jobs, count)
        base, extra = divmod(count, jobs)
        chunks = [base + (1 if i < extra else 0) for i in range(jobs)]
        seeds = [int(rng.integers(0, 2**62)) for _ in chunks]
        out = []
        pool = self._study_pool()
        futures = [
            pool.submit_task(_pool_sample_task, self._ctx_token, seed, chunk)
            for seed, chunk in zip(seeds, chunks) if chunk
        ]
        for future in futures:
            loads, snapshot = future.result()
            out.extend(loads)
            if snapshot is not None:
                rec.merge(snapshot)
        return out

    def run(self, scheme: RoutingScheme | CompiledScheme) -> PermutationStudyResult:
        """Average max permutation load of ``scheme`` under the adaptive
        stopping rule."""
        rec = self._recorder if self._recorder is not None else get_recorder()
        rng = as_generator(self._seed)
        samples: list[float] = []
        target = self.initial_samples
        round_index = 0
        try:
            with use_recorder(rec), span("flow.study", scheme=scheme.label):
                batch = None
                if self.engine == "compiled" or isinstance(scheme, CompiledScheme):
                    # Compile once; every round reuses the plan.
                    batch = BatchFlowEngine(compile_scheme(self.xgft, scheme))
                if self.n_jobs > 1:
                    # Ship the evaluation context to the pool once per
                    # run; every round's tasks reference it by token.
                    ctx = ({"engine": "compiled", "plan": batch.plan}
                           if batch is not None else
                           {"engine": "reference", "xgft": self.xgft,
                            "scheme": scheme})
                    self._ctx_token = self._study_pool().put_context(ctx)
                optimal = self.permutation_optimal
                while True:
                    with rec.timer("flow.sampling.round"):
                        samples.extend(self._mload_samples(
                            scheme, target - len(samples), rng, rec, batch))
                    interval = confidence_interval(samples, self.confidence)
                    if rec.enabled:
                        rec.event(
                            "convergence_round",
                            scheme=scheme.label,
                            round=round_index,
                            n_samples=interval.n_samples,
                            mean=interval.mean,
                            half_width=interval.half_width,
                            rel_half_width=interval.relative_half_width,
                        )
                    round_index += 1
                    if interval.meets(self.rel_precision):
                        converged = True
                        break
                    if len(samples) >= self.max_samples:
                        converged = False
                        break
                    target = min(2 * len(samples), self.max_samples)
        finally:
            self._ctx_token = None
            if self._scope_depth == 0:
                self.close()
        if rec.enabled:
            rec.count("flow.studies", 1)
        return PermutationStudyResult(
            scheme.label, interval, np.asarray(samples), converged,
            optimal=optimal,
        )

    def run_seed_family(
        self,
        make_scheme: Callable[[int], RoutingScheme],
        seeds: Sequence[int] = (0, 1, 2, 3, 4),
    ) -> PermutationStudyResult:
        """Average a randomized scheme over several routing seeds.

        Each seed's scheme runs the full adaptive protocol; the pooled
        samples form the reported result (the paper averages five seeds).
        """
        all_samples: list[float] = []
        label = None
        converged = True
        with self:  # one worker pool spans every seed's run
            for seed in seeds:
                scheme = make_scheme(seed)
                label = scheme.label
                result = self.run(scheme)
                converged = converged and result.converged
                all_samples.extend(result.samples.tolist())
        interval = confidence_interval(all_samples, self.confidence)
        return PermutationStudyResult(
            label or "random", interval, np.asarray(all_samples), converged,
            optimal=self.permutation_optimal,
        )
