"""Round-robin path selection state and ``from_tables`` validation.

Round-robin rotation is observed from the outside: on a hand-built
channel graph with one short path A = (0,) and one long path B = (1, 2),
each message's delay reveals which path(s) its packets took, so traces
of 1, 2 and 3 well-separated messages pin down the rotation order and
the modular carry of ``rr_state`` across messages.
"""

import pytest

from repro.errors import SimulationError
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator
from repro.flit.traces import TraceEntry

#: pair key 0 -> 1 on a 2-host graph
PAIR = 0 * 2 + 1

SHORT = (0,)          # path A: one channel
LONG = (1, 2)         # path B: two channels (strictly slower)


def _sim(paths, *, packets_per_message=1, path_selection="round-robin"):
    routes = {PAIR: list(paths), 1 * 2 + 0: [(0,)]}
    cfg = FlitConfig(
        packet_flits=4, packets_per_message=packets_per_message,
        wire_delay=1, routing_delay=1,
        warmup_cycles=0, measure_cycles=10_000, drain_cycles=10_000,
        path_selection=path_selection,
    )
    return FlitSimulator.from_tables(2, 3, routes, cfg)


def _trace(n, gap=500):
    return [TraceEntry(10 + i * gap, 0, 1) for i in range(n)]


def _delay(sim, n_messages):
    result = sim.run_trace(_trace(n_messages))
    assert result.messages_completed == n_messages
    return result


class TestRoundRobinRotation:
    """packets_per_message = 1: message i rides paths[i % len(paths)]."""

    def test_rotates_through_paths_across_messages(self):
        d_short = _delay(_sim([SHORT, LONG]), 1).mean_delay
        d_long = _delay(_sim([LONG, SHORT]), 1).mean_delay
        assert d_long > d_short  # the graph distinguishes the paths

        two = _delay(_sim([SHORT, LONG]), 2)
        assert two.mean_delay == pytest.approx((d_short + d_long) / 2)
        assert two.max_delay == d_long

        three = _delay(_sim([SHORT, LONG]), 3)  # third wraps back to A
        assert three.mean_delay == pytest.approx((2 * d_short + d_long) / 3)

    def test_single_path_degenerates_to_constant(self):
        result = _delay(_sim([SHORT]), 3)
        assert result.max_delay == result.mean_delay


class TestRoundRobinWrap:
    """packets_per_message > len(paths): the packet index wraps within a
    message and the carry ``(base + ppm) % len(paths)`` offsets the next
    message."""

    def test_state_carries_across_messages(self):
        # ppm=3 over 2 paths: message 1 stripes (A,B,A), leaving base=1,
        # so message 2 stripes (B,A,B) — exactly what a fresh simulator
        # with the route order reversed produces for its first message.
        fwd = _delay(_sim([SHORT, LONG], packets_per_message=3), 1).mean_delay
        rev = _delay(_sim([LONG, SHORT], packets_per_message=3), 1).mean_delay
        assert rev > fwd  # (B,A,B) carries more long-path packets

        two = _delay(_sim([SHORT, LONG], packets_per_message=3), 2)
        assert two.mean_delay == pytest.approx((fwd + rev) / 2)
        assert two.max_delay == rev
        # Were rr_state reset per message, both messages would stripe
        # (A,B,A) and the mean would collapse to `fwd`.
        assert two.mean_delay != pytest.approx(fwd)

    def test_full_cycle_realigns(self):
        # ppm=4 over 2 paths: every message stripes (A,B,A,B) and the
        # carry (0+4) % 2 == 0 realigns, so all messages are identical.
        result = _delay(_sim([SHORT, LONG], packets_per_message=4), 3)
        assert result.max_delay == result.mean_delay


class TestPerMessageParityAtK1:
    def test_identical_results_with_single_path_routes(self):
        # With one path per pair both modes pick paths[0] every time;
        # traces remove workload randomness, so the runs must agree bit
        # for bit (per-message's rng.randrange(1) consumes entropy but
        # cannot change anything).
        trace = [TraceEntry(10 + 40 * i, i % 2, (i + 1) % 2)
                 for i in range(12)]
        runs = {
            mode: _sim([SHORT], packets_per_message=2, path_selection=mode)
            .run_trace(trace)
            for mode in ("per-message", "round-robin")
        }
        assert runs["per-message"] == runs["round-robin"]


class TestFromTablesValidation:
    def _cfg(self):
        return FlitConfig(warmup_cycles=0, measure_cycles=100,
                          drain_cycles=100)

    def test_accepts_valid_table(self):
        sim = FlitSimulator.from_tables(2, 3, {PAIR: [SHORT, LONG]},
                                        self._cfg())
        assert sim.run_trace(_trace(1)).messages_completed == 1

    def test_rejects_negative_key(self):
        with pytest.raises(SimulationError, match="pair key -1"):
            FlitSimulator.from_tables(2, 3, {-1: [SHORT]}, self._cfg())

    def test_rejects_key_beyond_pair_space(self):
        with pytest.raises(SimulationError, match=r"pair key 4 outside"):
            FlitSimulator.from_tables(2, 3, {4: [SHORT]}, self._cfg())

    def test_rejects_empty_path_list(self):
        with pytest.raises(SimulationError, match="no paths"):
            FlitSimulator.from_tables(2, 3, {PAIR: []}, self._cfg())

    def test_rejects_empty_path(self):
        # an empty path would send the kernel past its packet's route
        with pytest.raises(SimulationError,
                           match="pair key 1 has an empty path"):
            FlitSimulator.from_tables(2, 3, {PAIR: [SHORT, ()]}, self._cfg())

    def test_rejects_channel_out_of_range(self):
        with pytest.raises(SimulationError, match=r"channel 3 outside"):
            FlitSimulator.from_tables(2, 3, {PAIR: [(0, 3)]}, self._cfg())

    def test_names_the_pair_of_a_bad_channel(self):
        routes = {PAIR: [SHORT], 1 * 2 + 0: [SHORT, (1, 2, 7)]}
        with pytest.raises(SimulationError,
                           match=r"pair key 2 references channel 7 outside"):
            FlitSimulator.from_tables(2, 3, routes, self._cfg())

    def test_rejects_negative_channel(self):
        with pytest.raises(SimulationError, match=r"channel -2 outside"):
            FlitSimulator.from_tables(2, 3, {PAIR: [(-2,)]}, self._cfg())

    def test_rejects_empty_dimensions(self):
        with pytest.raises(SimulationError, match="at least one"):
            FlitSimulator.from_tables(0, 3, {}, self._cfg())
        with pytest.raises(SimulationError, match="at least one"):
            FlitSimulator.from_tables(2, 0, {}, self._cfg())
