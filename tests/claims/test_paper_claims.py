"""The paper's claims, checked on the experiment runners.

Each runner runs on the paper's topologies, at ``fast`` fidelity or its
own defaults.  Figure 4 averages two routing seeds instead of five, and
Table 1 and Figure 5 sweep fewer loads and seeds than the CLI does, so
that the module takes a few seconds.
"""

import pytest

from repro.analysis.exact_ratio import exact_oblivious_ratio
from repro.experiments import figure4, figure5, ratios, resources, table1, theorems
from repro.routing.factory import make_scheme
from repro.topology.variants import m_port_n_tree


@pytest.fixture(scope="module", params=sorted(figure4.PANELS))
def panel(request):
    # two routing seeds for the random heuristic keep panel (d) at ~2 s
    return figure4.run_panel(request.param, fidelity_name="fast",
                             random_seeds=(0, 1))


class TestFigure4:
    def test_every_heuristic_meets_umulti_at_k_max(self, panel):
        for name, series in panel.series.items():
            assert series[-1] <= series[0] + 1e-9, name

    def test_multipath_beats_single_path(self, panel):
        """Disjoint at the first K >= 4 is already below d-mod-k."""
        k4 = min(i for i, k in enumerate(panel.ks) if k >= 4)
        assert panel.series["disjoint"][k4] < panel.dmodk


@pytest.fixture(scope="module")
def table():
    return table1.run(fidelity_name="fast", loads=(0.6, 0.8, 1.0),
                      random_seeds=(0,))


class TestTable1:
    def test_random_single_path_trails_dmodk(self, table):
        assert table.cells["random"][table.ks.index(1)] < table.dmodk

    def test_disjoint_two_paths_matches_dmodk(self, table):
        assert table.cells["disjoint"][table.ks.index(2)] > table.dmodk * 0.98

    def test_k8_not_below_k1(self, table):
        k1, k8 = table.ks.index(1), table.ks.index(8)
        for name in table1.HEURISTICS:
            assert table.cells[name][k8] >= table.cells[name][k1] * 0.97, name


@pytest.fixture(scope="module")
def curves():
    return figure5.run(fidelity_name="fast", loads=(0.2, 0.4, 0.6, 0.8))


class TestFigure5:
    def test_delay_grows_with_load(self, curves):
        for spec, sweep in curves.sweeps.items():
            delays = [d for d in sweep.delays if d == d]
            assert delays[0] < delays[-1], spec

    def test_multipath_saturates_no_earlier(self, curves):
        dmodk = curves.sweeps["d-mod-k"].saturation_load()
        assert curves.sweeps["disjoint:8"].saturation_load() >= dmodk - 0.21


def test_theorems_all_hold():
    """Lemma 1 and Theorem 1 on every traffic matrix ``repro theorems``
    tries, and Theorem 2 on its three constructions."""
    assert theorems.run().all_hold


class TestObliviousRatios:
    @pytest.fixture(scope="class")
    def bounds(self):
        result = ratios.run(ks=(2, 4), permutation_samples=40)
        return {row[0]: row[1] for row in result.rows}

    def test_umulti_is_optimal(self, bounds):
        assert bounds["umulti"] == 1.0

    def test_dmodk_worst_case(self, bounds):
        assert bounds["d-mod-k"] >= 2.0

    def test_multipath_shrinks_the_worst_case(self, bounds):
        assert bounds["disjoint(4)"] <= bounds["disjoint(2)"] + 1e-9
        assert bounds["disjoint(2)"] < bounds["d-mod-k"]


@pytest.mark.parametrize("spec, ratio", [
    ("disjoint:2", 2.0), ("disjoint:3", 4 / 3), ("shift-1:3", 4 / 3),
], ids=["disjoint(2)", "disjoint(3)", "shift-1(3)"])
def test_exact_ratio_is_w2_over_k(spec, ratio):
    """``repro exact-ratios``' 2-level law below K = w_2: on the 8-port
    2-tree (w_2 = 4) both d-mod-k-based heuristics have exact oblivious
    ratio w_2 / K."""
    xgft = m_port_n_tree(8, 2)
    result = exact_oblivious_ratio(xgft, make_scheme(xgft, spec))
    assert result.ratio == pytest.approx(ratio, abs=1e-6)


def test_disjoint_keeps_nca2_diversity():
    """Disjoint keeps every path of an NCA-2 pair in its LID
    realization; shift-1 loses some (``repro resources``' second
    table)."""
    nca2 = {(s, k): v for s, k, level, v in resources.run().diversity_rows
            if level == 2}
    for k in (2, 4, 8):
        assert nca2[("disjoint", k)] >= nca2[("shift-1", k)]
    assert nca2[("disjoint", 4)] == 4 and nca2[("shift-1", 4)] < 4
