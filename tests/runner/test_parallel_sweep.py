"""Parallel/cached flit sweeps: bit-parity with serial, cache replay."""

import math

import pytest

from repro.errors import ReproError, RunnerError
from repro.experiments import figure5, table1
from repro.experiments.registry import run_instrumented
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator
from repro.flit.sweep import load_sweep
from repro.obs.recorder import Recorder, use_recorder
from repro.routing.factory import make_scheme
from repro.runner.cache import ResultCache
from repro.runner.pool import PersistentPool
from repro.runner.sweep import point_key, point_seed, run_sweeps
from repro.topology.variants import m_port_n_tree

CFG = FlitConfig(warmup_cycles=100, measure_cycles=500, drain_cycles=500,
                 seed=11)
LOADS = (0.2, 0.6)


@pytest.fixture(scope="module")
def tree():
    return m_port_n_tree(4, 2)


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
        par = load_sweep(tree, scheme, CFG, loads=LOADS, repeats=2, n_jobs=2)
        assert _runs_equal(serial, par)

    def test_point_seed_matches_serial_formula(self):
        assert point_seed(CFG, 0) == CFG.seed
        assert point_seed(CFG, 3) == CFG.seed + 3000

    def test_multi_scheme_grid_matches_per_scheme_serial(self, tree):
        sims = {spec: FlitSimulator(tree, make_scheme(tree, spec), CFG)
                for spec in ("d-mod-k", "shift-1:2")}
        grid = run_sweeps(sims, loads=LOADS, n_jobs=2)
        for spec, sim in sims.items():
            serial = load_sweep(tree, sim.scheme, CFG, loads=LOADS)
            assert _runs_equal(grid[spec], serial)


class TestCacheReplay:
    def test_warm_cache_runs_zero_simulations(self, tree, tmp_path):
        scheme = make_scheme(tree, "d-mod-k")
        serial = load_sweep(tree, scheme, CFG, loads=LOADS, repeats=2)
        cold_rec = Recorder()
        with use_recorder(cold_rec):
            cold = load_sweep(tree, scheme, CFG, loads=LOADS, repeats=2,
                              cache=ResultCache(tmp_path))
        n_points = len(LOADS) * 2
        assert cold_rec.counters["runner.cache_miss"] == n_points
        assert cold_rec.counters["runner.cache_store"] == n_points
        assert cold_rec.counters["runner.points_computed"] == n_points

        warm_rec = Recorder()
        with use_recorder(warm_rec):
            warm = load_sweep(tree, scheme, CFG, loads=LOADS, repeats=2,
                              cache=ResultCache(tmp_path))
        assert warm_rec.counters["runner.cache_hit"] == n_points
        assert "runner.points_computed" not in warm_rec.counters
        assert "runner.pool_created" not in warm_rec.counters
        assert _runs_equal(warm, serial) and _runs_equal(cold, serial)

    def test_partial_cache_computes_only_missing_points(self, tree, tmp_path):
        scheme = make_scheme(tree, "d-mod-k")
        load_sweep(tree, scheme, CFG, loads=LOADS[:1],
                   cache=ResultCache(tmp_path))
        rec = Recorder()
        with use_recorder(rec):
            resumed = load_sweep(tree, scheme, CFG, loads=LOADS,
                                 cache=ResultCache(tmp_path))
        assert rec.counters["runner.cache_hit"] == 1
        assert rec.counters["runner.points_computed"] == 1
        serial = load_sweep(tree, scheme, CFG, loads=LOADS)
        assert _runs_equal(resumed, serial)

    def test_point_key_distinguishes_inputs(self, tree):
        sim = FlitSimulator(tree, make_scheme(tree, "d-mod-k"), CFG)
        base = point_key(sim, 0.2, 0)
        assert point_key(sim, 0.4, 0) != base
        assert point_key(sim, 0.2, 1) != base
        other = FlitSimulator(tree, make_scheme(tree, "shift-1:2"), CFG)
        assert point_key(other, 0.2, 0) != base

    def test_point_key_distinguishes_routing_seeds(self, tree):
        a = FlitSimulator(tree, make_scheme(tree, "random:2", seed=0), CFG)
        b = FlitSimulator(tree, make_scheme(tree, "random:2", seed=1), CFG)
        assert point_key(a, 0.2, 0) != point_key(b, 0.2, 0)


class TestPoolSharing:
    def test_external_pool_spans_schemes_and_survives(self, tree):
        sims = {spec: FlitSimulator(tree, make_scheme(tree, spec), CFG)
                for spec in ("d-mod-k", "shift-1:2")}
        rec = Recorder()
        with use_recorder(rec), PersistentPool(2) as pool:
            run_sweeps(sims, loads=LOADS, n_jobs=2, pool=pool)
            run_sweeps(sims, loads=LOADS[:1], n_jobs=2, pool=pool)
            assert pool.running  # run_sweeps never closes external pools
        assert rec.counters["runner.pool_created"] == 1

    def test_owned_pool_closed_after_call(self, tree):
        sims = {"d-mod-k": FlitSimulator(tree, make_scheme(tree, "d-mod-k"),
                                         CFG)}
        rec = Recorder()
        with use_recorder(rec):
            run_sweeps(sims, loads=LOADS[:1], n_jobs=2)
        assert rec.counters["runner.pool_created"] == 1

    def test_validation(self, tree):
        sims = {"d-mod-k": FlitSimulator(tree, make_scheme(tree, "d-mod-k"),
                                         CFG)}
        with pytest.raises(RunnerError, match="repeats"):
            run_sweeps(sims, repeats=0)
        with pytest.raises(RunnerError, match="n_jobs"):
            run_sweeps(sims, n_jobs=0)
        # A from_tables simulator has no scheme to key cached points by.
        tables = {"t": FlitSimulator.from_tables(
            2, 2, {1: [(0,)], 2: [(1,)]}, CFG)}
        with pytest.raises(RunnerError, match="no routing scheme"):
            run_sweeps(tables, loads=LOADS[:1])


class TestExperiments:
    def test_figure5_parallel_matches_serial(self, tree):
        kwargs = dict(fidelity_name="fast", topology=tree, loads=LOADS,
                      config=CFG, curves=("d-mod-k", "random:1"))
        serial = figure5.run(**kwargs)
        par = figure5.run(n_jobs=2, **kwargs)
        assert set(par.sweeps) == set(serial.sweeps)
        for spec in serial.sweeps:
            assert _runs_equal(par.sweeps[spec], serial.sweeps[spec])

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
