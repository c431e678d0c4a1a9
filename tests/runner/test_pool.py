"""PersistentPool: lifecycle, context shipping, telemetry."""

import pytest

from repro.errors import RunnerError
from repro.obs.recorder import Recorder, use_recorder
from repro.runner.pool import PersistentPool, load_context


def _ctx_plus(token, x):
    """Module-level so it pickles into pool workers."""
    return load_context(token)["base"] + x


def _token_seen(token):
    """Resolve a context and report the worker saw it."""
    return load_context(token)["base"]


class TestValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(RunnerError, match="n_jobs"):
            PersistentPool(0)

    def test_unknown_token(self):
        with pytest.raises(RunnerError, match="unknown pool context"):
            load_context("c999g999")


class TestContexts:
    def test_inline_roundtrip(self):
        with PersistentPool(1) as pool:
            token = pool.put_context({"base": 40})
            assert load_context(token)["base"] == 40

    def test_tokens_unique_across_puts_and_pools(self):
        with PersistentPool(1) as a, PersistentPool(1) as b:
            tokens = {a.put_context(1), a.put_context(2), b.put_context(3)}
            assert len(tokens) == 3

    def test_close_drops_contexts(self):
        pool = PersistentPool(1)
        token = pool.put_context({"base": 1})
        pool.close()
        with pytest.raises(RunnerError):
            load_context(token)


class TestExecution:
    def test_submit_resolves_context_in_worker(self):
        with PersistentPool(2) as pool:
            token = pool.put_context({"base": 40})
            futures = [pool.submit_task(_ctx_plus, token, x)
                       for x in range(6)]
            assert [f.result() for f in futures] == [
                (40 + x, None) for x in range(6)]

    def test_executor_created_once_across_many_submits(self):
        rec = Recorder()
        with use_recorder(rec), PersistentPool(2) as pool:
            token = pool.put_context({"base": 0})
            for _ in range(3):  # three "rounds" of tasks, one executor
                futures = [pool.submit_task(_token_seen, token)
                           for _ in range(4)]
                assert all(f.result()[0] == 0 for f in futures)
        assert rec.counters["runner.pool_created"] == 1
        assert rec.counters["runner.pool_tasks"] == 12
        assert rec.counters["runner.context_spilled"] == 1

    def test_reusable_after_close(self):
        rec = Recorder()
        pool = PersistentPool(1)
        with use_recorder(rec):
            t1 = pool.put_context({"base": 1})
            assert pool.submit_task(_ctx_plus, t1, 0).result()[0] == 1
            pool.close()
            assert not pool.running
            t2 = pool.put_context({"base": 2})
            assert pool.submit_task(_ctx_plus, t2, 0).result()[0] == 2
            pool.close()
        assert rec.counters["runner.pool_created"] == 2

    def test_context_registered_after_start(self):
        """Late contexts reach already-running workers via the spill file."""
        with PersistentPool(1) as pool:
            early = pool.put_context({"base": 1})
            assert pool.submit_task(_ctx_plus, early, 0).result() == (1, None)
            late = pool.put_context({"base": 2})
            assert pool.submit_task(_ctx_plus, late, 0).result() == (2, None)

    def test_running_property(self):
        pool = PersistentPool(1)
        assert not pool.running
        pool.put_context({"base": 0})  # registering alone starts nothing
        assert not pool.running
        pool.submit_task(_token_seen, pool.put_context({"base": 0}))
        assert pool.running
        pool.close()
        assert not pool.running
