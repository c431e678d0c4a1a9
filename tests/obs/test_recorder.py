"""Recorder semantics: counters, timer nesting, events, merging,
and on/off parity with the null recorder."""

import numpy as np
import pytest

from repro.flow.sampling import PermutationStudy
from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    use_recorder,
)
from repro.routing.factory import make_scheme


class TestCounters:
    def test_accumulate(self):
        rec = Recorder()
        rec.count("a")
        rec.count("a", 2)
        rec.count("b", 0.5)
        assert rec.counters == {"a": 3.0, "b": 0.5}

    def test_reading_is_a_copy(self):
        rec = Recorder()
        rec.count("a")
        rec.counters["a"] = 99
        assert rec.counters["a"] == 1.0


class TestTimers:
    def test_records_total_and_calls(self):
        rec = Recorder()
        for _ in range(3):
            with rec.timer("t"):
                pass
        total, calls = rec.timers["t"]
        assert calls == 3
        assert total >= 0.0

    def test_nesting_qualifies_names(self):
        rec = Recorder()
        with rec.timer("outer"):
            with rec.timer("inner"):
                pass
            with rec.timer("inner"):
                pass
        with rec.timer("inner"):
            pass
        assert set(rec.timers) == {"outer", "outer/inner", "inner"}
        assert rec.timers["outer/inner"][1] == 2
        assert rec.timers["inner"][1] == 1

    def test_nesting_unwinds_on_exception(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.timer("outer"):
                raise RuntimeError("boom")
        with rec.timer("after"):
            pass
        assert "after" in rec.timers  # not "outer/after"
        assert rec.timers["outer"][1] == 1  # span still recorded


class TestEvents:
    def test_ordered_stream(self):
        rec = Recorder()
        rec.event("a", x=1)
        rec.event("b", x=2)
        rec.event("a", x=3)
        assert [e["x"] for e in rec.events] == [1, 2, 3]
        assert [e["x"] for e in rec.events_of("a")] == [1, 3]


class TestMerge:
    def test_merge_snapshot(self):
        a, b = Recorder(), Recorder()
        a.count("n", 1)
        b.count("n", 2)
        b.count("only_b")
        with a.timer("t"):
            pass
        with b.timer("t"):
            pass
        b.event("ev", x=1)
        a.merge(b.snapshot())
        assert a.counters["n"] == 3.0
        assert a.counters["only_b"] == 1.0
        assert a.timers["t"][1] == 2
        assert a.events_of("ev") == [{"type": "ev", "x": 1}]

    def test_merge_is_json_transportable(self):
        import json

        rec = Recorder()
        rec.count("n", 2)
        with rec.timer("t"):
            pass
        rec.event("ev", x=1.5)
        wire = json.loads(json.dumps(rec.snapshot()))
        other = Recorder()
        other.merge(wire)
        assert other.snapshot() == rec.snapshot()


class TestActiveRecorder:
    def test_default_is_null(self):
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_restores(self):
        rec = Recorder()
        with use_recorder(rec):
            assert get_recorder() is rec
            with use_recorder(None):
                assert get_recorder() is NULL_RECORDER
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER


class TestNullRecorder:
    def test_api_is_inert(self):
        null = NullRecorder()
        null.count("a")
        with null.timer("t"):
            pass
        null.event("e", x=1)
        null.merge({"counters": {"a": 5}})
        assert null.counters == {}
        assert null.timers == {}
        assert null.events == []
        assert not null.enabled

    def test_on_off_parity(self, tree8x2):
        """The same study yields identical samples with and without a
        recorder — instrumentation never touches the RNG stream."""
        def go(recorder):
            study = PermutationStudy(
                tree8x2, initial_samples=8, max_samples=16,
                rel_precision=0.5, seed=42)
            with use_recorder(recorder):
                return study.run(make_scheme(tree8x2, "d-mod-k"))

        off = go(None)
        rec = Recorder()
        on = go(rec)
        assert np.array_equal(off.samples, on.samples)
        assert rec.counters["flow.samples"] == len(on.samples)
        assert rec.events_of("convergence_round")
