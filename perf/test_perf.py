"""Tests of the perf ledger itself.

    PYTHONPATH=src python -m pytest perf -q

The smoke ledger runs every workload body on 4- and 6-port trees, plus
the traced pass, in fresh interpreters.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    return run.measure(list(workloads.WORKLOADS), reps=1, small=True,
                       probes=2, out_dir=str(out))


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    """In-process set-up on the small trees (kernel cache kept private)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_KERNEL_CACHE", str(tmp_path_factory.mktemp("kernel")))
        context = workloads.setup(True)
        yield context
    shutil.rmtree(context["tmp"], ignore_errors=True)


FIG4 = workloads.WORKLOADS["fig4-compiled"]


def test_benchmark_json_matches_the_catalogue():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            == {k: run.END_TO_END[k] for k in run.GATED})
    assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
            == layers.LAYER_UNITS)


def test_smoke_emits_every_metric_with_its_unit(smoke):
    for name, w in smoke["workloads"].items():
        assert w["failed"] == 0, w["failures"]
        applies = set(run.END_TO_END) - (
            set() if name == "table1-native" else {"paper_err_pp"})
        assert set(w["metrics"]) == applies
        assert all(s["unit"] == run.END_TO_END[k] and s["n"] >= 1
                   for k, s in w["metrics"].items())
        assert ({k: m["unit"] for k, m in w["layers"].items()}
                == layers.LAYER_UNITS)
        one = {"workloads": {name: w}}
        assert set(run.result_line(one, trace=False)["metrics"]) == set(run.GATED)
        assert set(run.result_line(one, trace=True)["metrics"]) == set(layers.LAYER_UNITS)


def test_smoke_workloads_drive_their_layers(smoke):
    def value(workload, metric):
        return smoke["workloads"][workload]["layers"][metric]["value"]

    assert value("fig4-compiled", "routing.compile_calls") > 0
    for other in ("flow-ref-faults", "table1-native", "fig5-python"):
        assert value(other, "routing.compile_calls") == 0
    assert value("flow-ref-faults", "flow.ref_evals") > 0
    assert value("flow-ref-faults", "faults.pairs_recomputed") > 0
    assert value("table1-native", "flit.runs") > 0
    assert value("fig5-python", "runner.cache_hit_ratio") == 0.5
    assert value("fig5-python", "obs.log_bytes") > 0
    assert value("fig5-python", "flit.runs") > 0


def test_a_perturbed_expected_value_is_caught_and_counted(ctx):
    p = child.run_pass(FIG4, ctx, 5)
    expected = {o["op"]: copy.deepcopy(o["values"]) for o in p["ops"]}
    assert run.verify(FIG4, [p, p], expected) == []

    expected["figure4c"]["dmodk"] *= 1 + 1e-12  # inside the tolerance
    assert run.verify(FIG4, [p, p], expected) == []
    expected["figure4c"]["dmodk"] *= 1 + 1e-6
    failures = run.verify(FIG4, [p, p], expected)
    assert len(failures) == 2
    assert all("figure4c" in f and "dmodk" in f for f in failures)

    # without expected values every pass must match the first
    drifted = copy.deepcopy(p)
    drifted["ops"][0]["values"]["series"]["random"][0] += 0.5
    assert len(run.verify(FIG4, [p, drifted], None)) == 1
    # a pass that died fails all its operations
    faults = workloads.WORKLOADS["flow-ref-faults"]
    assert len(run.verify(faults, [{"error": "killed by SIGKILL"}], None)) == 3


def test_untraced_passes_never_install_wrappers(ctx, monkeypatch):
    def forbidden(tracer):
        raise AssertionError("an untraced pass installed wrappers")

    monkeypatch.setattr(layers, "install", forbidden)
    p = child.run_pass(FIG4, ctx, 3)
    assert all(o["ok"] for o in p["ops"])


def test_traced_pass_restores_targets_and_repeats_its_counts(ctx):
    def originals():
        out = []
        for module, attribute, _, _ in layers.TARGETS:
            owner, attr = layers._owner(module, attribute)
            out.append(vars(owner)[attr])
        return out

    before = originals()
    counts = []
    for _ in range(2):
        tracer = layers.Tracer()
        p = child.run_pass(FIG4, ctx, 3, tracer)
        m = layers.layer_metrics(tracer.spans, p["wall_s"])
        counts.append({k: m[k] for k, u in layers.LAYER_UNITS.items()
                       if u == "count" and k in m})
    assert all(a is b for a, b in zip(before, originals()))
    assert counts[0] == counts[1]
    assert counts[0]["routing.compile_calls"] > 0


@pytest.mark.parametrize("base, new, bound, better, want", [
    ([10.0, 10.1, 9.9], [10.1, 10.2, 10.3], 0.1, "lower", "ok"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], 0.1, "lower", "regressed"),
    ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], 0.1, "lower", "improved"),
    ([10.0, 14.0, 7.0], [8.0, 10.0, 13.0], 0.1, "lower", "unresolved"),
    ([10.0, 14.0, 7.0], [5.0, 5.5, 6.0], 0.1, "lower", "improved"),
    ([1.0, 1.0], [2.0, 2.0], 0.1, "higher", "improved"),
    ([0.0], [0.25], 0.0, "lower", "regressed"),
    ([3.9], [3.9], 0.0, "lower", "ok"),
])
def test_compare_verdicts(base, new, bound, better, want):
    assert compare.verdict(base, new, bound, better) == want


def _results(wall: list[float], failed: float = 0.0, native: bool = True):
    metrics = {"wall_s": run.summarize(wall),
               "failed_frac": run.summarize([failed])}
    for key, stats in metrics.items():
        stats["unit"] = run.END_TO_END[key]
    return {"fingerprint": {"python": "3", "numpy": "2", "cpu_count": 2,
                            "native_kernel": native, "repro": "1",
                            "git_rev": None},
            "workloads": {"table1-native": {"metrics": metrics}}}


def test_compare_main_gates_on_regressions_and_fingerprints(tmp_path, capsys):
    def write(name, results):
        path = tmp_path / name
        path.write_text(json.dumps(results))
        return str(path)

    base = write("a.json", _results([10.0, 10.1, 9.9]))
    same = write("b.json", {**_results([10.1, 10.0, 9.9]),
                            "fingerprint": {**_results([1.0])["fingerprint"],
                                            "git_rev": "abc"}})
    assert compare.main([base, same]) == 0
    assert compare.main([base, write("c.json", _results([10.0] * 3, 0.5))]) == 1
    assert "failed_frac" in capsys.readouterr().out
    assert compare.main([base, write("d.json", _results([13.0, 13.1, 12.9]))]) == 1
    other_host = write("e.json", _results([10.0] * 3, native=False))
    assert compare.main([base, other_host]) == 2
