"""Experiment registry and the theorem/resource experiments."""

import pytest

from repro.errors import ReproError
from repro.experiments.registry import (
    EXPERIMENTS,
    OPTIONS,
    get_experiment,
    keywords,
    run_experiment,
    run_instrumented,
)

#: option -> the experiments that accept it; every other pair is
#: rejected.  churn-sweep no longer takes --jobs (it ignored it before).
SUPPORT = {
    "engine": {"figure4a", "figure4b", "figure4c", "figure4d", "ratios",
               "fault-sweep", "table1", "figure5"},
    "fault_rate": {"fault-sweep"},
    "fault_links": {"fault-sweep"},
    "fault_seed": {"fault-sweep"},
    "churn_events": {"churn-sweep"},
    "churn_seed": {"churn-sweep"},
    "jobs": {"table1", "figure5"},
    "cache": {"table1", "figure5", "churn-sweep"},
}


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        for name in ("figure4a", "figure4b", "figure4c", "figure4d",
                     "table1", "figure5", "theorems", "resources"):
            assert name in EXPERIMENTS

    def test_get_unknown_raises(self):
        with pytest.raises(ReproError):
            get_experiment("figure9")

    def test_descriptions_nonempty(self):
        for exp in EXPERIMENTS.values():
            assert exp.description


def engine_aware(name):
    return OPTIONS["engine"] in keywords(get_experiment(name).load())


class TestEngineForwarding:
    def test_flow_level_experiments_are_engine_aware(self):
        for name in ("figure4a", "figure4b", "figure4c", "figure4d", "ratios"):
            assert engine_aware(name), name

    def test_flit_experiments_are_engine_aware(self):
        # table1/figure5 accept --engine {reference,batched}
        for name in ("table1", "figure5"):
            assert engine_aware(name), name

    def test_exact_experiments_are_not_engine_aware(self):
        for name in ("theorems", "resources", "exact-ratios"):
            assert not engine_aware(name), name

    @pytest.mark.parametrize("option", sorted(OPTIONS))
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_runner_signature_matches_support_matrix(self, name, option):
        """A keyword added to (or dropped from) a runner must not widen
        (or narrow) what the CLI accepts unnoticed."""
        runner = get_experiment(name).load()
        assert (OPTIONS[option] in keywords(runner)) == (name in SUPPORT[option])

    def test_catch_all_kwargs_support_nothing(self):
        assert keywords(lambda *args, **kwargs: None) == frozenset()

    @pytest.mark.parametrize("option, value, flag", [
        ("engine", "compiled", "--engine"),
        ("fault_rate", (0.1,), "--fault-rate"),
        ("fault_links", (1,), "--fault-links"),
        ("fault_seed", 3, "--fault-seed"),
        ("churn_events", 2, "--churn-events"),
        ("churn_seed", 3, "--churn-seed"),
        ("jobs", 2, "--jobs"),
        ("cache", True, "--cache"),
    ])
    def test_unsupported_option_names_its_flag(self, option, value, flag):
        with pytest.raises(ReproError,
                           match=f"'resources' does not support {flag}$"):
            run_instrumented("resources", **{option: value})

    def test_unaware_experiment_rejects_compiled_engine(self):
        with pytest.raises(ReproError, match="does not support"):
            run_instrumented("resources", engine="compiled")

    def test_unaware_experiment_accepts_reference_engine(self):
        run = run_instrumented("resources", engine="reference")
        assert run.result is not None


class TestTheoremsExperiment:
    def test_runs_and_holds(self):
        result = run_experiment("theorems", samples=2)
        assert result.all_hold
        assert "ALL HOLD" in result.render()


class TestResourcesExperiment:
    def test_runs_and_reports_infeasibility(self):
        result = run_experiment("resources")
        text = result.render()
        assert "144" in text
        assert "NO" in text  # at least one infeasible row
        assert "distinct paths" in text
