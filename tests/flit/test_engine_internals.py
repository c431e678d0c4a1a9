"""Edge cases of the engine's small data structures.

``_Fifo`` and ``free_vc`` sit on the reference engine's hot path, and
``kernel.c`` mirrors ``free_vc``; their corner behaviour (empty queues,
exhausted credit lanes) is what the stall accounting relies on.
"""

import pytest

from repro.flit.engine import _Fifo, free_vc


class TestFifo:
    def test_fifo_order(self):
        q = _Fifo()
        for i in range(5):
            q.push(i)
        assert [q.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_len_tracks_head(self):
        q = _Fifo()
        assert len(q) == 0
        q.push("a")
        q.push("b")
        assert len(q) == 2
        q.pop()
        assert len(q) == 1
        q.pop()
        assert len(q) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            _Fifo().pop()

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            _Fifo().peek()

    def test_pop_past_end_raises(self):
        q = _Fifo()
        q.push(1)
        q.pop()
        with pytest.raises(IndexError):
            q.pop()

    def test_peek_does_not_consume(self):
        q = _Fifo()
        q.push("x")
        assert q.peek() == "x"
        assert q.peek() == "x"
        assert len(q) == 1
        assert q.pop() == "x"

    def test_compaction_preserves_order(self):
        # Push enough and pop past the compaction threshold (head > 64
        # and more than half consumed) so the trim branch runs.
        q = _Fifo()
        for i in range(100):
            q.push(i)
        got = [q.pop() for _ in range(80)]
        assert got == list(range(80))
        assert q.head < 80 and len(q) == 20  # trim branch ran
        q.push(100)
        assert [q.pop() for _ in range(21)] == list(range(80, 101))


class TestFreeVc:
    def test_prefers_lane_zero(self):
        credits = [2, 1]  # channel 0, 2 VCs, both stocked
        assert free_vc(credits, 0, 2) == 0

    def test_falls_through_to_next_lane(self):
        credits = [0, 1]
        assert free_vc(credits, 0, 2) == 1

    def test_all_lanes_exhausted(self):
        assert free_vc([0, 0, 0], 0, 3) == -1

    def test_single_vc(self):
        # 1 VC: the sub-channel index equals the channel index.
        credits = [0, 3]
        assert free_vc(credits, 0, 1) == -1
        assert free_vc(credits, 1, 1) == 1

    def test_indexes_relative_to_channel_base(self):
        # channel 1 of 2, 2 VCs: lanes live at credits[2:4]
        credits = [0, 0, 0, 5]
        assert free_vc(credits, 1, 2) == 3
        credits[2] = 1
        assert free_vc(credits, 1, 2) == 2
