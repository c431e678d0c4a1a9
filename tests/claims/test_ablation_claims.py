"""What each of ``repro ablations``' seven tables shows.

One recorded run of the experiment, as ``python -m repro ablations
--profile`` makes it, serves every check.
"""

import pytest

from repro.experiments.registry import run_instrumented
from repro.flit.batched import kernels_ran
from repro.obs import Recorder


@pytest.fixture(scope="module")
def run():
    return run_instrumented("ablations", recorder=Recorder())


@pytest.fixture(scope="module")
def tables(run):
    return run.result.tables


class TestSwitchModel:
    def test_output_queued_multipath_holds(self, tables):
        """Output-queued switches, the paper's regime: disjoint(8)
        delivers at least 97 % of d-mod-k's maximum throughput."""
        oq = tables["switch_model"].rows[0]
        assert oq[0] == "output-queued" and oq[2] >= oq[1] * 0.97

    def test_input_fifo_reverses(self, tables):
        """Input-FIFO switches: d-mod-k's destination-private down-paths
        confine head-of-line blocking, so over five workload seeds it
        leads disjoint(8), by under 1 % at these windows."""
        fifo = tables["switch_model"].rows[1]
        assert fifo[0] == "input-fifo" and fifo[1] > fifo[2]


class TestVirtualChannels:
    def test_vcs_relieve_hol(self, tables):
        dmodk = tables["virtual_channels"].column("d-mod-k")
        disjoint = tables["virtual_channels"].column("disjoint(8)")
        assert dmodk[4] > dmodk[1]
        assert disjoint[4] > disjoint[1] * 1.2

    def test_vcs_close_the_concentration_gap(self, tables):
        dmodk = tables["virtual_channels"].column("d-mod-k")
        disjoint = tables["virtual_channels"].column("disjoint(8)")
        assert dmodk[4] - disjoint[4] < dmodk[1] - disjoint[1]


class TestBufferDepth:
    def test_deeper_buffers_help(self, tables):
        thr = tables["buffer_depth"].column("max throughput")
        assert thr[4] > thr[1]

    def test_diminishing_returns(self, tables):
        thr = tables["buffer_depth"].column("max throughput")
        assert thr[8] >= thr[4] * 0.93


class TestFractionRealization:
    def test_packet_spreading_beats_per_message(self, tables):
        """Packet-granular spreading, random or round-robin, disperses
        message bursts that per-message routing keeps together."""
        thr = tables["fraction_realization"].column("max throughput")
        assert max(thr["per-packet"], thr["round-robin"]) >= (
            thr["per-message"] * 0.97)


class TestTrafficPatterns:
    def test_umulti_optimal_on_every_pattern(self, tables):
        """Theorem 1 on structured traffic."""
        ratios = tables["traffic_patterns"].column("umulti")
        assert ratios and all(r == pytest.approx(1.0) for r in ratios.values())

    def test_disjoint_never_worse_than_dmodk(self, tables):
        table = tables["traffic_patterns"]
        disjoint, dmodk = table.column("disjoint:4"), table.column("d-mod-k")
        for pattern in disjoint:
            assert disjoint[pattern] <= dmodk[pattern] + 1e-9, pattern


class TestSlimmedTrees:
    def test_slimming_raises_every_load(self, tables):
        full, *_, slimmest = tables["slimmed_trees"].rows
        for before, after in zip(full[1:], slimmest[1:]):
            assert after >= before - 1e-9

    def test_order_persists(self, tables):
        """disjoint(2) sits between d-mod-k and the optimal UMULTI at
        every slimming level (Theorem 1 holds on slimmed trees too)."""
        for _, dmodk, disjoint, umulti in tables["slimmed_trees"].rows:
            assert umulti <= disjoint <= dmodk + 1e-9


class TestCrossValidation:
    def test_flow_max_load_order(self, tables):
        mload = tables["cross_validation"].column("flow max load")
        assert mload["umulti"] <= mload["disjoint:4"] <= mload["d-mod-k"]

    def test_flit_throughput_follows_flow_order(self, tables):
        """Lower flow-level contention, higher delivered throughput."""
        thr = tables["cross_validation"].column("flit max throughput")
        assert thr["disjoint:4"] >= thr["d-mod-k"] * 0.95
        assert thr["umulti"] >= thr["d-mod-k"] * 0.95


def test_render_prints_seven_tables(run, tables):
    text = run.result.render()
    assert len(tables) == 7 and text.count("\n\n") == 6
    for table in tables.values():
        assert table.title in text


def test_manifest_says_what_ran(run):
    """The runner takes no ``engine`` keyword; its manifest still says
    which path its batched flit runs took."""
    ran = run.manifest.extra["flit_kernel"]
    assert ran == kernels_ran(run.recorder.timers) is not None
