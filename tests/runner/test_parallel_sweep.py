"""Parallel/cached flit sweeps: bit-parity with serial, cache replay,
and pooled runs that stop at once on an error or ^C."""

import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, astuple
from pathlib import Path

import pytest

import repro
from repro.errors import ReproError, RunnerError
from repro.experiments import figure5, table1
from repro.experiments.registry import run_instrumented
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator
from repro.flit.sweep import load_sweep
from repro.flit.workload import UniformRandom
from repro.obs.recorder import Recorder, use_recorder
from repro.routing.factory import make_scheme
from repro.runner.cache import ResultCache, cache_key
from repro.runner.sweep import point_key, point_seed, run_sweeps
from repro.topology.variants import m_port_n_tree

CFG = FlitConfig(warmup_cycles=100, measure_cycles=500, drain_cycles=500,
                 seed=11)
LOADS = (0.2, 0.6)


@pytest.fixture(scope="module")
def tree():
    return m_port_n_tree(4, 2)


def _python_env() -> dict:
    """The environment of a child interpreter that imports this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


#: a pooled ``run_sweeps`` on the 4-port 2-tree under the start method
#: named by ``argv[1]``, for the scheme specs, ``FlitConfig`` fields and
#: loads in the JSON of ``argv[2]``; prints each sweep's runs as field tuples
_POOLED_SWEEP = """
import multiprocessing, json, sys
from dataclasses import astuple
from repro.flit.config import FlitConfig
from repro.routing.factory import make_scheme
from repro.runner.sweep import run_sweeps
from repro.topology.variants import m_port_n_tree

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    grid = json.loads(sys.argv[2])
    tree = m_port_n_tree(4, 2)
    out = run_sweeps(tree, {spec: make_scheme(tree, spec)
                            for spec in grid["specs"]},
                     FlitConfig(**grid["config"]), loads=grid["loads"],
                     n_jobs=2)
    print(repr({key: [astuple(run) for run in sweep.runs]
                for key, sweep in out.items()}))
"""


class _RefusingFactory:
    """A workload factory that leaves one marker file in ``directory``
    per call, raises on the ``refused`` load and takes 100 ms on any
    other (module-level, so it pickles into pool workers)."""

    def __init__(self, directory, refused: float):
        self.directory, self.refused = str(directory), refused

    def __call__(self, load: float):
        fd, _ = tempfile.mkstemp(dir=self.directory)
        os.close(fd)
        if load == self.refused:
            raise ValueError(f"load {load} refused")
        time.sleep(0.1)
        return UniformRandom(load)


def _runs_equal(a, b):
    """Bit-exact SweepResult comparison that treats NaN == NaN."""
    if a.scheme_label != b.scheme_label or len(a.runs) != len(b.runs):
        return False
    for ra, rb in zip(a.runs, b.runs):
        for field in ra.__dataclass_fields__:
            va, vb = getattr(ra, field), getattr(rb, field)
            if va != vb and not (va != va and vb != vb):
                return False
    return True


class TestParity:
    def test_parallel_bit_identical_to_serial(self, tree):
        scheme = make_scheme(tree, "d-mod-k")
        serial = load_sweep(tree, scheme, CFG, loads=LOADS, repeats=2)
        par = run_sweeps(tree, {"d": scheme}, CFG, loads=LOADS, repeats=2,
                         n_jobs=2)["d"]
        assert _runs_equal(serial, par)

    def test_point_seed_matches_serial_formula(self):
        assert point_seed(CFG, 0) == CFG.seed
        assert point_seed(CFG, 3) == CFG.seed + 3000

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_start_method_matches_inline(self, tree, method):
        """Spawn and forkserver workers unpickle the grid once each (fork
        workers, the default on Linux, inherit it): same results."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        specs = ("d-mod-k", "shift-1:2")
        inline = run_sweeps(tree, {spec: make_scheme(tree, spec)
                                   for spec in specs}, CFG, loads=LOADS)
        grid = {"specs": specs, "config": asdict(CFG), "loads": LOADS}
        child = subprocess.run(
            [sys.executable, "-c", _POOLED_SWEEP, method, json.dumps(grid)],
            env=_python_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == repr(
            {key: [astuple(run) for run in sweep.runs]
             for key, sweep in inline.items()})

    def test_multi_scheme_grid_matches_per_scheme_serial(self, tree):
        schemes = {spec: make_scheme(tree, spec)
                   for spec in ("d-mod-k", "shift-1:2")}
        grid = run_sweeps(tree, schemes, CFG, loads=LOADS, n_jobs=2)
        for spec, scheme in schemes.items():
            serial = load_sweep(tree, scheme, CFG, loads=LOADS)
            assert _runs_equal(grid[spec], serial)


class TestCacheReplay:
    def test_warm_cache_runs_zero_simulations(self, tree, tmp_path):
        scheme = make_scheme(tree, "d-mod-k")
        serial = load_sweep(tree, scheme, CFG, loads=LOADS, repeats=2)
        cold_rec = Recorder()
        with use_recorder(cold_rec):
            cold = run_sweeps(tree, {"d": scheme}, CFG, loads=LOADS,
                              repeats=2, cache=ResultCache(tmp_path))["d"]
        n_points = len(LOADS) * 2
        assert cold_rec.counters["runner.cache_miss"] == n_points
        assert cold_rec.counters["runner.cache_store"] == n_points
        assert cold_rec.counters["runner.points_computed"] == n_points

        warm_rec = Recorder()
        with use_recorder(warm_rec):
            warm = run_sweeps(tree, {"d": scheme}, CFG, loads=LOADS,
                              repeats=2, cache=ResultCache(tmp_path),
                              n_jobs=2)["d"]
        assert warm_rec.counters["runner.cache_hit"] == n_points
        assert "runner.points_computed" not in warm_rec.counters
        assert "runner.pool_workers" not in warm_rec.counters
        assert "flit.build" not in warm_rec.timers  # no route table built
        assert _runs_equal(warm, serial) and _runs_equal(cold, serial)

    def test_partial_cache_computes_only_missing_points(self, tree, tmp_path):
        scheme = make_scheme(tree, "d-mod-k")
        cache = ResultCache(tmp_path)
        run_sweeps(tree, {"d": scheme}, CFG, loads=LOADS[:1], cache=cache)
        rec = Recorder()
        with use_recorder(rec):
            resumed = run_sweeps(tree, {"d": scheme}, CFG, loads=LOADS,
                                 cache=ResultCache(tmp_path))["d"]
        assert rec.counters["runner.cache_hit"] == 1
        assert rec.counters["runner.points_computed"] == 1
        serial = load_sweep(tree, scheme, CFG, loads=LOADS)
        assert _runs_equal(resumed, serial)

    def test_interrupted_sweep_keeps_finished_points(self, tree, tmp_path,
                                                     monkeypatch):
        """Kill a cached sweep mid-grid: the points it finished are on
        disk, and the rerun computes only the rest."""
        # the reference engine: its run method is the one interrupted
        kwargs = dict(fidelity_name="fast", topology=tree,
                      loads=(0.2, 0.4, 0.6, 0.8), config=CFG,
                      curves=("d-mod-k",), engine="reference")
        serial = figure5.run(**kwargs).sweeps["d-mod-k"]
        real_run, finished = FlitSimulator.run, []

        def interrupted_at_third_load(self, workload, **run_kwargs):
            if len(finished) == 2:
                raise KeyboardInterrupt
            finished.append(real_run(self, workload, **run_kwargs))
            return finished[-1]

        monkeypatch.setattr(FlitSimulator, "run", interrupted_at_third_load)
        with pytest.raises(KeyboardInterrupt):
            figure5.run(cache=ResultCache(tmp_path), **kwargs)
        monkeypatch.undo()
        assert len(ResultCache(tmp_path)) == 2
        rec = Recorder()
        with use_recorder(rec):
            resumed = figure5.run(cache=ResultCache(tmp_path), **kwargs)
        assert rec.counters["runner.cache_hit"] == 2
        assert rec.counters["runner.points_computed"] == 2
        assert _runs_equal(resumed.sweeps["d-mod-k"], serial)

    def test_point_key_distinguishes_inputs(self, tree):
        scheme = make_scheme(tree, "d-mod-k")
        base = point_key(tree, scheme, CFG, 0.2, 0)
        assert point_key(tree, scheme, CFG, 0.4, 0) != base
        assert point_key(tree, scheme, CFG, 0.2, 1) != base
        other = make_scheme(tree, "shift-1:2")
        assert point_key(tree, other, CFG, 0.2, 0) != base

    def test_point_key_distinguishes_routing_seeds(self, tree):
        a = make_scheme(tree, "random:2", seed=0)
        b = make_scheme(tree, "random:2", seed=1)
        assert point_key(tree, a, CFG, 0.2, 0) != point_key(tree, b, CFG, 0.2, 0)

    def test_point_key_hashes_the_documented_parts(self, tree):
        """The key table in docs/performance.md, part for part: a cache
        written by an earlier version of the sweep code stays warm."""
        scheme = make_scheme(tree, "random:2", seed=3)
        assert point_key(tree, scheme, CFG, 0.6, 2) == cache_key({
            "kind": "flit_run",
            "code_version": repro.__version__,
            "topology": repr(tree),
            "scheme": "random(2)",
            "scheme_repr": repr(scheme),
            "scheme_seed": 3,
            "config": asdict(CFG),
            "workload": "UniformRandom",
            "load": 0.6,
            "seed": CFG.seed + 2000,
        })


class TestPoolSharing:
    def test_owned_pool_closed_after_call(self, tree):
        rec = Recorder()
        with use_recorder(rec):
            run_sweeps(tree, {"d-mod-k": make_scheme(tree, "d-mod-k")}, CFG,
                       loads=LOADS[:1], n_jobs=2)
        assert rec.counters["runner.pool_workers"] == 2

    def test_zero_jobs_rejected(self, tree):
        """A pool size below one is refused before any point is planned
        or any worker starts."""
        for n_jobs in (0, -1):
            rec = Recorder()
            with use_recorder(rec), pytest.raises(RunnerError,
                                                  match="n_jobs"):
                run_sweeps(tree, {"d-mod-k": make_scheme(tree, "d-mod-k")},
                           CFG, loads=LOADS[:1], n_jobs=n_jobs)
            assert "runner.points_total" not in rec.counters
            assert "runner.pool_workers" not in rec.counters

    def test_validation(self, tree):
        schemes = {"d-mod-k": make_scheme(tree, "d-mod-k")}
        with pytest.raises(RunnerError, match="repeats"):
            run_sweeps(tree, schemes, CFG, repeats=0)
        with pytest.raises(RunnerError, match="n_jobs"):
            run_sweeps(tree, schemes, CFG, n_jobs=0)
        with pytest.raises(ReproError, match="unknown flit engine"):
            run_sweeps(tree, schemes, CFG, engine="turbo")


class TestStops:
    def test_failing_point_cancels_the_queued_points(self, tree, tmp_path):
        """The first load raises in the workers; the error reaches the
        caller and the queued points never start (a pool whose exit
        waited for its queue would run all 40)."""
        loads = tuple(0.1 * i for i in range(1, 11))
        factory = _RefusingFactory(tmp_path, refused=loads[0])
        with pytest.raises(ValueError, match="refused"):
            run_sweeps(tree, {"d-mod-k": make_scheme(tree, "d-mod-k")}, CFG,
                       loads=loads, repeats=4, workload_factory=factory,
                       n_jobs=2)
        deadline = time.monotonic() + 30
        while multiprocessing.active_children():  # the points under way
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert len(os.listdir(tmp_path)) <= 12  # of 10 loads x 4 repeats

    @pytest.mark.skipif(os.name != "posix",
                        reason="needs process groups and SIGINT")
    def test_interrupt_stops_a_pooled_run(self, tmp_path):
        """^C (SIGINT to the process group), then a second SIGINT to the
        parent: the run ends at once instead of finishing its grid."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "figure5", "--fidelity", "full",
             "--jobs", "2", "--cache-dir", str(tmp_path)],
            env=_python_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            deadline = time.monotonic() + 120
            while not (tmp_path / "flit-runs.jsonl").exists():
                assert proc.poll() is None, "the run ended before any point"
                assert time.monotonic() < deadline, "no point stored"
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)
            time.sleep(0.3)
            proc.send_signal(signal.SIGINT)  # a no-op once it has exited
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pytest.fail("the pooled run outlived two SIGINTs by 10 s")
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


class TestExperiments:
    def test_figure5_parallel_matches_serial(self, tree):
        kwargs = dict(fidelity_name="fast", topology=tree, loads=LOADS,
                      config=CFG, curves=("d-mod-k", "random:1"))
        serial = figure5.run(**kwargs)
        par = figure5.run(n_jobs=2, **kwargs)
        assert set(par.sweeps) == set(serial.sweeps)
        for spec in serial.sweeps:
            assert _runs_equal(par.sweeps[spec], serial.sweeps[spec])

    def test_figure5_pooled_manifest_lists_serial_schemes(self, tree):
        """The manifest names the schemes that ran, never the pool's
        internal grid keys (``random:1``)."""
        kwargs = dict(fidelity_name="fast", topology=tree, loads=LOADS,
                      config=CFG, curves=("d-mod-k", "random:1"))
        serial = run_instrumented("figure5", recorder=Recorder(), **kwargs)
        pooled = run_instrumented("figure5", recorder=Recorder(), jobs=2,
                                  **kwargs)
        assert serial.manifest.schemes == ("d-mod-k", "random(1)")
        assert pooled.manifest.schemes == serial.manifest.schemes

    def test_table1_parallel_and_cached_matches_serial(self, tree, tmp_path):
        kwargs = dict(fidelity_name="fast", topology=tree,
                      loads=(0.5, 0.8), ks=(1, 2), random_seeds=(0, 1))
        serial = table1.run(**kwargs)
        par = table1.run(n_jobs=2, cache=ResultCache(tmp_path), **kwargs)
        assert par.rows() == serial.rows()
        rec = Recorder()
        with use_recorder(rec):
            warm = table1.run(cache=ResultCache(tmp_path), **kwargs)
        assert warm.rows() == serial.rows()
        assert "runner.points_computed" not in rec.counters

    def test_table1_random_seeds_get_distinct_cells(self, tree, tmp_path):
        """random(K)@seed cells must not collapse onto one cache entry."""
        res = table1.run(fidelity_name="fast", topology=tree,
                         loads=(0.6,), ks=(2,), random_seeds=(0, 1),
                         cache=ResultCache(tmp_path))
        # d-mod-k + shift+disjoint + two random seeds = 5 sweeps x 1 point
        assert len(ResultCache(tmp_path)) == 5
        assert not math.isnan(res.cells["random"][0])


class TestRegistryForwarding:
    def test_jobs_rejected_for_non_runner_aware(self):
        with pytest.raises(ReproError, match="--jobs"):
            run_instrumented("theorems", jobs=4)

    def test_cache_rejected_for_non_runner_aware(self, tmp_path):
        with pytest.raises(ReproError, match="--cache"):
            run_instrumented("theorems", cache=True)
        with pytest.raises(ReproError, match="--cache"):
            run_instrumented("theorems", cache_dir=str(tmp_path))

    def test_noop_values_accepted_everywhere(self):
        run = run_instrumented("resources", jobs=1, cache=False)
        assert run.result is not None

    def test_cache_dir_implies_cache(self, tree, tmp_path):
        run = run_instrumented(
            "figure5", fidelity_name="fast", cache_dir=str(tmp_path),
            topology=tree, loads=(0.3,), config=CFG, curves=("d-mod-k",),
        )
        assert len(ResultCache(tmp_path)) == 1
        assert run.result.sweeps["d-mod-k"].runs[0].messages_measured > 0
