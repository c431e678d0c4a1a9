"""Adaptive permutation study: stopping rule, reproducibility, seed families."""

import numpy as np
import pytest

from repro.flow.sampling import PermutationStudy
from repro.routing.factory import make_scheme
from repro.routing.heuristics import RandomMultipath, UMulti
from repro.topology.variants import m_port_n_tree


@pytest.fixture
def study(tree8x2):
    return PermutationStudy(tree8x2, initial_samples=8, max_samples=64,
                            rel_precision=0.05, seed=123)


class TestRun:
    def test_umulti_converges_instantly(self, tree8x2, study):
        # UMULTI's max load is optimal; still a random variable, but with
        # small spread -> convergence within the cap on this small tree.
        res = study.run(UMulti(tree8x2))
        assert res.interval.n_samples <= 64
        assert res.mean >= 1.0

    def test_sample_doubling_respects_cap(self, tree8x2):
        # A negative precision target can never be met, forcing the cap.
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=10,
                                 rel_precision=-1.0, seed=0)
        res = study.run(make_scheme(tree8x2, "d-mod-k"))
        assert not res.converged
        assert res.interval.n_samples == 10

    def test_reproducible_with_seed(self, tree8x2):
        def go():
            return PermutationStudy(tree8x2, initial_samples=8, max_samples=16,
                                    rel_precision=0.5, seed=9).run(
                make_scheme(tree8x2, "d-mod-k"))

        a, b = go(), go()
        assert np.array_equal(a.samples, b.samples)

    def test_scheme_ordering_dmodk_worst(self, tree8x2):
        """On permutations, avg max load: d-mod-k >= disjoint(2) >= umulti."""
        study = PermutationStudy(tree8x2, initial_samples=32, max_samples=32,
                                 rel_precision=1.0, seed=3)
        dmodk = study.run(make_scheme(tree8x2, "d-mod-k")).mean
        dj2 = study.run(make_scheme(tree8x2, "disjoint:2")).mean
        um = study.run(make_scheme(tree8x2, "umulti")).mean
        assert dmodk > dj2 > um
        assert um == pytest.approx(np.mean(study.run(UMulti(tree8x2)).samples))

    def test_result_label(self, tree8x2, study):
        assert study.run(make_scheme(tree8x2, "disjoint:2")).scheme_label == \
            "disjoint(2)"


class TestSeedFamily:
    def test_pools_all_seeds(self, tree8x2):
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=4,
                                 rel_precision=1.0, seed=1)
        res = study.run_seed_family(
            lambda seed: RandomMultipath(tree8x2, 2, seed=seed), seeds=(0, 1, 2)
        )
        assert res.interval.n_samples == 12  # 3 seeds x 4 samples
        assert res.scheme_label == "random(2)"


class TestValidation:
    def test_bad_parameters(self, tree8x2):
        with pytest.raises(ValueError):
            PermutationStudy(tree8x2, initial_samples=1)
        with pytest.raises(ValueError):
            PermutationStudy(tree8x2, initial_samples=8, max_samples=4)


class TestTelemetry:
    def test_convergence_trace(self, tree8x2):
        from repro.obs import Recorder

        rec = Recorder()
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=16,
                                 rel_precision=-1.0, seed=5, recorder=rec)
        res = study.run(make_scheme(tree8x2, "d-mod-k"))
        rounds = rec.events_of("convergence_round")
        # 4 -> 8 -> 16 samples: one event per adaptive round.
        assert [e["n_samples"] for e in rounds] == [4, 8, 16]
        assert [e["round"] for e in rounds] == [0, 1, 2]
        assert rounds[-1]["mean"] == pytest.approx(res.mean)
        assert rounds[-1]["half_width"] == pytest.approx(
            res.interval.half_width)
        assert all(e["scheme"] == "d-mod-k" for e in rounds)
        assert all(e["seed"] is None for e in rounds)  # not randomized
        elapsed = [e["elapsed_s"] for e in rounds]
        assert 0 < elapsed[0] <= elapsed[1] <= elapsed[2]
        assert rec.counters["flow.samples"] == 16
        assert "flow.sampling.round" in rec.timers
        assert rec.timers["flow.sampling.round"][1] == 3

        study.run(make_scheme(tree8x2, "random:2", seed=3))
        assert {e["seed"] for e in rec.events_of("convergence_round")[3:]} \
            == {3}

    def test_reference_round_batch_telemetry(self, tree8x2):
        from repro.obs import Recorder

        rec = Recorder()
        study = PermutationStudy(tree8x2, initial_samples=4, max_samples=8,
                                 rel_precision=-1.0, seed=7, recorder=rec)
        study.run(make_scheme(tree8x2, "disjoint:2"))
        # one batched evaluation per round (4 then 4 more samples)
        assert rec.counters["flow.batch_permutations"] == 8
        assert rec.counters["flow.batch_eval_calls"] == 2
        # nested under the sampling-round timer
        assert rec.timers["flow.sampling.round/flow.batch_eval"][1] == 2
        assert "flow.max_load" not in rec.timers

    def test_compiled_serial_batch_telemetry(self, tree8x2):
        from repro.obs import Recorder

        rec = Recorder()
        study = PermutationStudy(tree8x2, initial_samples=8, max_samples=8,
                                 rel_precision=1.0, seed=7, engine="compiled",
                                 recorder=rec)
        study.run(make_scheme(tree8x2, "disjoint:2"))
        assert rec.counters["flow.batch_permutations"] == 8
        assert rec.counters["flow.batch_eval_calls"] >= 1
        # Nested under the sampling-round span.
        assert any("flow.batch_eval" in name for name in rec.timers)
