"""CLI tests via the in-process entry point."""

import pytest

from repro.cli import main, parse_topology
from repro.errors import ReproError
from repro.topology.variants import k_ary_n_tree, m_port_n_tree
from repro.topology.xgft import XGFT


class TestParseTopology:
    def test_mport(self):
        assert parse_topology("mport:8x3") == m_port_n_tree(8, 3)

    def test_kary(self):
        assert parse_topology("kary:4x2") == k_ary_n_tree(4, 2)

    def test_explicit_xgft(self):
        assert parse_topology("xgft:3;4,4,4;1,4,2") == XGFT(3, (4, 4, 4), (1, 4, 2))

    @pytest.mark.parametrize("bad", ["mport:8", "xgft:2;4", "torus:3x3", "mport:axb"])
    def test_bad_specs(self, bad):
        with pytest.raises(ReproError):
            parse_topology(bad)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "mport:8x2"]) == 0
        out = capsys.readouterr().out
        assert "XGFT(2; 4,8; 1,4)" in out
        assert "32" in out

    def test_route_figure3_example(self, capsys):
        assert main(["route", "xgft:3;4,4,4;1,4,2", "disjoint:4", "0", "63"]) == 0
        out = capsys.readouterr().out
        assert "Path 7" in out and "Path 5" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "disjoint" in out

    def test_resources_experiment(self, capsys):
        assert main(["resources"]) == 0
        assert "LID budget" in capsys.readouterr().out

    def test_error_path_returns_2(self, capsys):
        assert main(["info", "bogus:1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_route_error(self, capsys):
        assert main(["route", "mport:8x2", "nosuchscheme", "0", "1"]) == 2

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["below", "above"])
    def test_route_seed_out_of_range(self, capsys, seed):
        argv = ["route", "mport:4x3", "random:2", "0", "15", "--seed", str(seed)]
        assert main(argv) == 2
        assert f"error: routing seed {seed} out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["zero", "max"])
    def test_route_seed_at_range_ends(self, capsys, seed):
        argv = ["route", "mport:4x3", "random:2", "0", "15", "--seed", str(seed)]
        assert main(argv) == 0
        assert "2 path(s)" in capsys.readouterr().out

    def test_engine_flag_on_aware_experiment(self, capsys):
        # ratios is engine-aware: --engine compiled must run end to end.
        assert main(["ratios", "--engine", "compiled", "--quiet"]) == 0

    def test_engine_flag_rejected_for_unaware_experiment(self, capsys):
        # resources has no flow-level permutation loop; a non-reference
        # engine request is an error, not a silent no-op.
        assert main(["resources", "--engine", "compiled"]) == 2
        assert "does not support" in capsys.readouterr().err

    def test_reference_engine_is_always_accepted(self, capsys):
        assert main(["resources", "--engine", "reference", "--quiet"]) == 0

    def test_churn_flags_forwarded_to_aware_experiment(self, capsys):
        # churn-sweep is churn-aware: the flags must reach the runner
        # (2 events -> pristine baseline + 2 trajectory points).
        assert main(["churn-sweep", "--fidelity", "fast",
                     "--churn-events", "2", "--churn-seed", "3",
                     "--quiet"]) == 0

    def test_churn_flags_rejected_for_unaware_experiment(self, capsys):
        assert main(["table1", "--churn-events", "2"]) == 2
        assert "does not support --churn-events" in capsys.readouterr().err
        assert main(["fault-sweep", "--churn-seed", "1"]) == 2
        assert "does not support --churn-seed" in capsys.readouterr().err

    def test_jobs_rejected_for_churn_sweep(self, capsys):
        # the churn replay is serial; --jobs 2 must not be a silent no-op
        assert main(["churn-sweep", "--fidelity", "fast", "--jobs", "2",
                     "--quiet"]) == 2
        assert "does not support --jobs" in capsys.readouterr().err

    def test_fault_rate_and_fault_links_together_rejected(self, capsys):
        # the explicit cables would silently replace the rate grid
        assert main(["fault-sweep", "--fidelity", "fast", "--fault-rate",
                     "0.05,0.1", "--fault-links", "256", "--quiet"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_batched_engine_accepted_for_flit_experiments(self, capsys):
        assert main(["table1", "--fidelity", "fast",
                     "--engine", "batched", "--quiet"]) == 0

    def test_batched_engine_rejected_for_unaware_experiment(self, capsys):
        assert main(["resources", "--engine", "batched"]) == 2
        assert "does not support" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["figure4a", "fault-sweep", "ratios"])
    def test_flit_engine_rejected_for_flow_experiments(self, name, capsys):
        assert main([name, "--fidelity", "fast", "--engine", "batched",
                     "--quiet"]) == 2
        assert "unknown flow engine 'batched'" in capsys.readouterr().err


class TestArgumentValidation:
    """Bad numeric flags die at parse time with a typed argparse error
    (exit 2 + a message naming the flag), not deep in a runner."""

    @pytest.mark.parametrize("rate", ["1.5", "-0.1", "0.2,7"])
    def test_fault_rate_outside_unit_interval(self, rate, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fault-sweep", "--fault-rate", rate])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--fault-rate" in err and "0" in err and "1" in err

    def test_fault_rate_non_numeric(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fault-sweep", "--fault-rate", "lots"])
        assert exc.value.code == 2
        assert "--fault-rate" in capsys.readouterr().err

    @pytest.mark.parametrize("links", ["-3", "1,-2"])
    def test_fault_links_negative(self, links, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fault-sweep", "--fault-links", links])
        assert exc.value.code == 2
        assert "--fault-links" in capsys.readouterr().err

    @pytest.mark.parametrize("events", ["-5", "2.5", "many"])
    def test_churn_events_must_be_nonnegative_int(self, events, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["churn-sweep", "--churn-events", events])
        assert exc.value.code == 2
        assert "--churn-events" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_must_be_positive_int(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_engine_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table1", "--engine", "turbo"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_valid_boundary_values_accepted(self, capsys):
        # 0.0 and 1.0 are inside the closed interval; jobs 1 is the
        # serial path; 0 churn events is the pristine baseline alone.
        assert main(["fault-sweep", "--fidelity", "fast",
                     "--fault-rate", "0.0", "--quiet"]) == 0
        assert main(["churn-sweep", "--fidelity", "fast",
                     "--churn-events", "0", "--quiet"]) == 0


class TestGlobalOptions:
    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_quiet_suppresses_render(self, capsys):
        assert main(["theorems", "--quiet"]) == 0
        assert "ALL HOLD" not in capsys.readouterr().out

    def test_profile_report(self, capsys):
        assert main(["theorems", "--profile", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "run telemetry" in out
        assert "experiment.theorems" in out
        assert "routing.schemes_built" in out

    def test_log_json_run_log(self, tmp_path, capsys):
        """The acceptance path: a manifest line plus per-round
        convergence events that parse as JSON and match the result."""
        import json

        from repro.obs import RunManifest

        path = tmp_path / "run.jsonl"
        assert main(["figure4a", "--fidelity", "fast", "--seed", "3",
                     "--log-json", str(path)]) == 0
        rendered = capsys.readouterr().out
        assert "Figure 4(a)" in rendered

        lines = [json.loads(line) for line in path.read_text().splitlines()]
        manifest = RunManifest.from_dict(lines[0])
        assert lines[0]["type"] == "manifest"
        assert manifest.experiment == "figure4a"
        assert manifest.fidelity == "fast"
        assert manifest.seed == 3
        assert manifest.replay_command() == (
            "xgft-repro figure4a --fidelity fast --seed 3")
        assert manifest.argv is not None and "--seed" in manifest.argv
        assert manifest.wall_time_s > 0
        assert manifest.samples_used > 0
        assert "d-mod-k" in manifest.schemes

        rounds = [l for l in lines if l["type"] == "convergence_round"]
        assert rounds, "expected per-round convergence events"
        # The d-mod-k study's final running mean is the printed value.
        dmodk_mean = [r["mean"] for r in rounds if r["scheme"] == "d-mod-k"][-1]
        assert f"{dmodk_mean:.3f}" in rendered
        assert lines[-1]["type"] == "metrics"
        assert lines[-1]["counters"]["flow.samples"] == manifest.samples_used

    def test_seed_recorded_and_plumbed(self, tmp_path):
        import json

        def manifest_for(seed):
            path = tmp_path / f"run{seed}.jsonl"
            assert main(["theorems", "--seed", str(seed), "--quiet",
                         "--log-json", str(path)]) == 0
            return json.loads(path.read_text().splitlines()[0])

        assert manifest_for(1)["seed"] == 1
        assert manifest_for(2)["seed"] == 2

    def test_manifest_omits_options_the_runner_ignores(self, tmp_path):
        """``theorems`` takes a seed but no fidelity, and ``resources``
        neither: the manifest and its replay command name only what
        reached the runner."""
        import json

        from repro.obs import RunManifest

        def manifest_for(argv):
            path = tmp_path / f"{argv[0]}.jsonl"
            assert main([*argv, "--quiet", "--log-json", str(path)]) == 0
            return RunManifest.from_dict(
                json.loads(path.read_text().splitlines()[0]))

        theorems = manifest_for(["theorems", "--fidelity", "full",
                                 "--seed", "4"])
        assert (theorems.fidelity, theorems.seed) == (None, 4)
        assert theorems.replay_command() == "xgft-repro theorems --seed 4"
        resources = manifest_for(["resources", "--fidelity", "fast",
                                  "--seed", "1"])
        assert (resources.fidelity, resources.seed) == (None, None)
        assert resources.replay_command() == "xgft-repro resources"


class TestReportCommand:
    @pytest.fixture()
    def log_dir(self, tmp_path):
        for seed in (1, 2):
            assert main(["resources", "--seed", str(seed), "--quiet",
                         "--log-json",
                         str(tmp_path / f"run{seed}.jsonl")]) == 0
        return tmp_path

    def test_text_report_over_directory(self, log_dir, capsys):
        assert main(["report", str(log_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "resources" in out
        assert "run1.jsonl" in out and "run2.jsonl" in out

    def test_json_format(self, log_dir, capsys):
        import json

        assert main(["report", str(log_dir), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["runs"]) == 2
        assert isinstance(data["merged"], dict)

    def test_unknown_format_is_a_usage_error(self, log_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", str(log_dir), "--format", "prometheus"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_no_logs_is_an_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "no run logs" in capsys.readouterr().err

    @pytest.mark.parametrize("content,where", [
        (None, "bad.jsonl"),
        ('{"type": "manifest"}\n{"type": "ev', "bad.jsonl:2:"),
        ('{"type": "manifest"}\nnot json\n', "bad.jsonl:2:"),
        ('"just a string"\n', "bad.jsonl:1:"),
    ], ids=["missing", "torn", "malformed", "not-an-object"])
    def test_unreadable_log_is_an_error(self, tmp_path, capsys, content,
                                        where):
        log = tmp_path / "bad.jsonl"
        if content is not None:
            log.write_text(content)
        assert main(["report", str(log)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err
