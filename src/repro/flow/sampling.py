"""Adaptive permutation-load studies (the paper's flow-level protocol).

For a topology and a routing scheme, sample random permutations, measure
the maximum link load of each, and stop once the 99 % confidence interval
is within 1 % of the running average (doubling the sample count each
round, per Section 5).  Randomized routing schemes are averaged over
several seeds, matching "the results are the average of five random
seeds".

Engines
-------
Each adaptive round is one batched evaluation
(:func:`~repro.flow.loads.permutation_mloads`, no traffic matrices
built): by default through
:meth:`repro.flow.simulator.FlowSimulator.permutation_mloads`; with
``engine="compiled"`` each study run takes one plan of the scheme
(:func:`~repro.routing.compiled.compile_scheme`), which selects a pair
the first time a round names it, and every round goes to
:meth:`repro.flow.engine.BatchFlowEngine.permutation_mloads` over that
plan.  Both engines consume the identical permutation stream for a
fixed seed, so their samples are bit-identical.  Sampling is serial: a
study's sample stream is a function of its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from repro.analysis.ci import ConfidenceInterval, confidence_interval
from repro.flow.engine import BatchFlowEngine
from repro.flow.metrics import permutation_optimal_load
from repro.flow.simulator import FlowSimulator, check_engine
from repro.obs.recorder import get_recorder, use_recorder
from repro.routing.base import RoutingScheme
from repro.routing.compiled import compile_scheme
from repro.topology.xgft import XGFT
from repro.traffic.permutations import random_permutation
from repro.util.rng import as_generator


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
    engine:
        ``"reference"`` evaluates each round with one closed-form call
        through :class:`FlowSimulator`; ``"compiled"`` takes one plan of
        the scheme per :meth:`run` and evaluates each round with the
        same call over it, so a pair named again is not selected again.
    recorder:
        Optional :class:`repro.obs.Recorder`.  ``None`` (default) uses
        the ambient recorder (:func:`repro.obs.get_recorder`) at run
        time.  When recording is enabled, each adaptive round emits a
        ``convergence_round`` event (scheme, routing seed, samples,
        running mean, CI half-width, seconds since the study began).
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
        engine: str = "reference",
        recorder=None,
    ):
        if initial_samples < 2:
            raise ValueError("need at least 2 initial samples for a CI")
        if max_samples < initial_samples:
            raise ValueError("max_samples must be >= initial_samples")
        check_engine(engine)
        self.xgft = xgft
        self.sim = FlowSimulator(xgft)
        self.initial_samples = initial_samples
        self.rel_precision = rel_precision
        self.confidence = confidence
        self.max_samples = max_samples
        self.engine = engine
        self._seed = seed
        self._recorder = recorder
        self._perm_optimal: float | None = None

    @property
    def permutation_optimal(self) -> float:
        """Permutation-traffic OLOAD, computed once per study and shared
        by every sample (hoisted out of the per-matrix work)."""
        if self._perm_optimal is None:
            self._perm_optimal = permutation_optimal_load(self.xgft)
        return self._perm_optimal

    def _mload_samples(self, evaluate, count: int, rng, rec) -> list[float]:
        if count <= 0:
            return []
        # Both engines consume the identical permutation stream.
        out = evaluate(np.stack([random_permutation(self.xgft.n_procs, rng)
                                 for _ in range(count)]))
        rec.count("flow.samples", count)
        return out.tolist()

    def run(self, scheme: RoutingScheme) -> PermutationStudyResult:
        """Average max permutation load of ``scheme`` under the adaptive
        stopping rule."""
        rec = self._recorder if self._recorder is not None else get_recorder()
        rng = as_generator(self._seed)
        samples: list[float] = []
        target = self.initial_samples
        round_index = 0
        t0 = perf_counter()
        with use_recorder(rec):
            evaluate = partial(self.sim.permutation_mloads, scheme)
            if self.engine == "compiled":
                # One plan per run: every round reuses its filled rows.
                evaluate = BatchFlowEngine(
                    compile_scheme(self.xgft, scheme)).permutation_mloads
            optimal = self.permutation_optimal
            while True:
                with rec.timer("flow.sampling.round"):
                    samples.extend(self._mload_samples(
                        evaluate, target - len(samples), rng, rec))
                interval = confidence_interval(samples, self.confidence)
                if rec.enabled:
                    rec.event(
                        "convergence_round",
                        scheme=scheme.label,
                        seed=getattr(scheme, "seed", None),
                        round=round_index,
                        n_samples=interval.n_samples,
                        mean=interval.mean,
                        half_width=interval.half_width,
                        rel_half_width=interval.relative_half_width,
                        elapsed_s=perf_counter() - t0,
                    )
                round_index += 1
                if interval.meets(self.rel_precision):
                    converged = True
                    break
                if len(samples) >= self.max_samples:
                    converged = False
                    break
                target = min(2 * len(samples), self.max_samples)
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

        Each seed's scheme runs the full adaptive protocol; the combined
        samples form the reported result (the paper averages five seeds).
        """
        all_samples: list[float] = []
        label = None
        converged = True
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
