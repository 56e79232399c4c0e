"""The parallel sweep engine: job resolution, fan-out, determinism.

The headline guarantee is that ``jobs=N`` produces *bit-identical*
results to ``jobs=1`` — sweeps are pure functions of their derived
seeds, and the engine reassembles worker results in submission order.
The metrics fan-in (worker snapshots merged into the parent registry)
is covered both at the unit level and through a real sweep.
"""

import os

import pytest

from repro.analysis.experiments import sweep_overpayment
from repro.analysis.parallel import (
    get_pool,
    resolve_jobs,
    run_tasks,
    shutdown_pool,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry


def _square(x, offset=0):
    return x * x + offset


def _crash(x):
    # kill the worker process outright -> BrokenProcessPool in the parent
    os._exit(13)


def _counting(x):
    REGISTRY.add("test_parallel.calls", 1)
    with REGISTRY.timed("test_parallel.time"):
        pass
    return x


class TestResolveJobs:
    @pytest.mark.parametrize("jobs,expected", [(None, 1), (0, 1), (1, 1),
                                               (3, 3), (7, 7)])
    def test_plain_values(self, jobs, expected):
        assert resolve_jobs(jobs) == expected

    def test_all_cores(self):
        assert resolve_jobs(-1) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("jobs", [-2, -17])
    def test_bad_values(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(jobs)


class TestRunTasks:
    def test_serial_order(self):
        tasks = [((i,), {"offset": 1}) for i in range(8)]
        assert run_tasks(_square, tasks, jobs=1) == [i * i + 1 for i in range(8)]

    def test_parallel_order_matches_serial(self):
        tasks = [((i,), {}) for i in range(13)]
        serial = run_tasks(_square, tasks, jobs=1)
        parallel = run_tasks(_square, tasks, jobs=3)
        assert parallel == serial

    def test_single_task_stays_inline(self):
        # one task never pays pool start-up, whatever jobs says
        assert run_tasks(_square, [((5,), {})], jobs=4) == [25]

    def test_empty(self):
        assert run_tasks(_square, [], jobs=4) == []

    def test_worker_metrics_merged(self):
        REGISTRY.reset()
        REGISTRY.enable()
        try:
            run_tasks(_counting, [((i,), {}) for i in range(6)], jobs=2)
            snap = REGISTRY.snapshot().flat()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert snap["test_parallel.calls"] == 6
        assert snap["test_parallel.time.count"] == 6

    def test_disabled_registry_collects_nothing(self):
        REGISTRY.reset()
        run_tasks(_counting, [((i,), {}) for i in range(4)], jobs=2)
        assert not REGISTRY.snapshot().flat()


class TestPersistentPool:
    def setup_method(self):
        shutdown_pool()

    def teardown_method(self):
        shutdown_pool()

    def test_pool_is_reused_across_calls(self):
        tasks = [((i,), {}) for i in range(6)]
        run_tasks(_square, tasks, jobs=2)
        first = get_pool(2)
        run_tasks(_square, tasks, jobs=2)
        assert get_pool(2) is first

    def test_wider_request_replaces_pool(self):
        narrow = get_pool(1)
        wide = get_pool(3)
        assert wide is not narrow
        # and a narrower request reuses the wide pool as-is
        assert get_pool(2) is wide

    def test_pool_reuse_metric(self):
        REGISTRY.reset()
        REGISTRY.enable()
        try:
            tasks = [((i,), {}) for i in range(4)]
            run_tasks(_square, tasks, jobs=2)  # creates the pool
            run_tasks(_square, tasks, jobs=2)  # reuses it
            run_tasks(_square, tasks, jobs=2)  # reuses it again
            snap = REGISTRY.snapshot().flat()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert snap["parallel.pool_reuses"] == 2

    def test_shutdown_pool_is_idempotent(self):
        get_pool(2)
        shutdown_pool()
        shutdown_pool()  # second call must be a no-op

    def test_broken_pool_raises_and_recovers(self):
        from concurrent.futures.process import BrokenProcessPool

        tasks = [((i,), {}) for i in range(4)]
        with pytest.raises(BrokenProcessPool):
            run_tasks(_crash, tasks, jobs=2)
        # the poisoned pool was discarded; the next call works
        assert run_tasks(_square, tasks, jobs=2) == [0, 1, 4, 9]


class TestChunksize:
    def test_auto_chunksize_formula(self, monkeypatch):
        """Chunks are max(1, tasks // (4*workers)) tasks long."""
        from repro.analysis import parallel as par

        seen = {}

        class _FakePool:
            def map(self, fn, payloads, chunksize):
                seen["chunksize"] = chunksize
                return [fn(p) for p in list(payloads)]

        monkeypatch.setattr(par, "get_pool", lambda workers: _FakePool())
        for n_tasks, jobs, expected in [(32, 2, 4), (7, 2, 1), (40, 3, 3)]:
            run_tasks(_square, [((i,), {}) for i in range(n_tasks)],
                      jobs=jobs)
            assert seen["chunksize"] == expected

    def test_auto_chunksize_results_match_serial(self):
        tasks = [((i,), {"offset": 2}) for i in range(33)]
        serial = run_tasks(_square, tasks, jobs=1)
        assert run_tasks(_square, tasks, jobs=3) == serial


class TestMergeSnapshot:
    def test_counters_gauges_timers(self):
        a = MetricsRegistry()
        a.enable()
        a.add("c", 2)
        a.set_gauge("g", 1.5)
        with a.timed("t"):
            pass
        b = MetricsRegistry()
        b.enable()
        b.add("c", 3)
        b.set_gauge("g", 4.5)
        with b.timed("t"):
            pass
        a.merge_snapshot(b.snapshot())
        flat = a.snapshot().flat()
        assert flat["c"] == 5
        assert flat["g"] == 4.5  # last write wins for gauges
        assert flat["t.count"] == 2


class TestSweepDeterminism:
    def test_jobs4_bit_identical_to_serial(self):
        kwargs = dict(label="test", kind="udg", n_values=(24, 36), kappa=2.0,
                      instances=3, base_seed=77, collect_hops=True)
        serial = sweep_overpayment(**kwargs, jobs=1)
        parallel = sweep_overpayment(**kwargs, jobs=4)
        # repr round-trips floats exactly and treats NaN as equal text, so
        # this is a bit-identity check even when a degenerate instance
        # yields NaN ratios (where dataclass == would be false vs itself)
        assert repr(parallel) == repr(serial)

    def test_jobs2_dataclass_equal_on_nan_free_sweep(self):
        kwargs = dict(label="test", kind="udg", n_values=(60,), kappa=2.0,
                      instances=4, base_seed=5)
        serial = sweep_overpayment(**kwargs, jobs=1)
        parallel = sweep_overpayment(**kwargs, jobs=2)
        # dataclass equality covers every point, ratio and hop bucket
        assert parallel == serial

    def test_sweep_metrics_survive_fanout(self):
        REGISTRY.reset()
        REGISTRY.enable()
        try:
            sweep_overpayment("test", "udg", (20,), 2.0, instances=4,
                              base_seed=3, jobs=2)
            snap = REGISTRY.snapshot().flat()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        assert snap["experiments.instances"] == 4
        assert snap["experiments.instance_time.count"] == 4
