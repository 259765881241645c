"""Unit tests for wait-queue schedulers and MPL controllers."""

import pytest

from repro.core.interfaces import StaticMpl
from repro.core.manager import WaitQueue, WorkloadManager
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.scheduling.mpl import FeedbackMpl, QueueingModelMpl
from repro.scheduling.queues import MultiQueueScheduler, by_priority, shortest_job

from tests.conftest import make_query


def _manager(sim, scheduler, **kwargs):
    kwargs.setdefault(
        "machine", MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096)
    )
    return WorkloadManager(sim, scheduler=scheduler, **kwargs)


class TestFCFS:
    def test_dispatch_order_is_arrival_order(self, sim):
        scheduler = WaitQueue(1)
        manager = _manager(sim, scheduler)
        first = make_query(cpu=1.0, io=0.0)
        second = make_query(cpu=0.1, io=0.0)
        manager.submit(first)
        manager.submit(second)
        assert first.state is QueryState.RUNNING
        assert second.state is QueryState.QUEUED

    def test_unlimited_dispatches_everything(self, sim):
        scheduler = WaitQueue()
        manager = _manager(sim, scheduler)
        for _ in range(10):
            manager.submit(make_query(cpu=1.0, io=0.0))
        assert manager.running_count == 10

    def test_queue_introspection(self, sim):
        scheduler = WaitQueue(1)
        manager = _manager(sim, scheduler)
        manager.submit(make_query(cpu=5.0, io=0.0))
        waiting = make_query(cpu=5.0, io=0.0)
        manager.submit(waiting)
        assert scheduler.queued_count() == 1
        assert scheduler.queued_queries() == [waiting]
        assert scheduler.queue.remove(waiting.query_id) is waiting
        assert scheduler.queue.remove(99999) is None


class TestPriority:
    def test_higher_priority_dispatches_first(self, sim):
        scheduler = WaitQueue(1, key=by_priority)
        manager = _manager(sim, scheduler)
        blocker = make_query(cpu=1.0, io=0.0)
        manager.submit(blocker)
        low = make_query(cpu=1.0, io=0.0, priority=1)
        high = make_query(cpu=1.0, io=0.0, priority=5)
        manager.submit(low)
        manager.submit(high)
        sim.run_until(1.0)  # blocker finishes, one slot frees
        assert high.state is QueryState.RUNNING
        assert low.state is QueryState.QUEUED

    def test_fifo_within_priority_level(self, sim):
        scheduler = WaitQueue(1, key=by_priority)
        manager = _manager(sim, scheduler)
        manager.submit(make_query(cpu=1.0, io=0.0))
        first = make_query(cpu=1.0, io=0.0, priority=2)
        second = make_query(cpu=1.0, io=0.0, priority=2)
        manager.submit(first)
        manager.submit(second)
        sim.run_until(1.0)
        assert first.state is QueryState.RUNNING
        assert second.state is QueryState.QUEUED


class TestSJF:
    def test_shortest_estimated_job_first(self, sim):
        scheduler = WaitQueue(1, key=shortest_job())
        manager = _manager(sim, scheduler)
        manager.submit(make_query(cpu=1.0, io=0.0))
        big = make_query(cpu=10.0, io=0.0)
        small = make_query(cpu=0.5, io=0.0)
        manager.submit(big)
        manager.submit(small)
        sim.run_until(1.0)
        assert small.state is QueryState.RUNNING
        assert big.state is QueryState.QUEUED

    def test_decision_uses_estimates(self, sim):
        scheduler = WaitQueue(1, key=shortest_job())
        manager = _manager(sim, scheduler)
        manager.submit(make_query(cpu=1.0, io=0.0))
        # true cost tiny but estimate huge -> treated as big
        lying = make_query(cpu=0.1, io=0.0, est_cpu=50.0)
        honest = make_query(cpu=2.0, io=0.0)
        manager.submit(lying)
        manager.submit(honest)
        sim.run_until(1.0)
        assert honest.state is QueryState.RUNNING

    def test_aging_prevents_starvation(self, sim):
        scheduler = WaitQueue(1, key=shortest_job(aging_weight=100.0))
        manager = _manager(sim, scheduler)
        manager.submit(make_query(cpu=1.0, io=0.0))
        big_old = make_query(cpu=10.0, io=0.0)
        manager.submit(big_old)
        sim.run_until(0.9)
        small_new = make_query(cpu=0.5, io=0.0)
        manager.submit(small_new)
        sim.run_until(1.0)
        # with heavy aging, the long-waiting big query goes first
        assert big_old.state is QueryState.RUNNING


class TestMultiQueue:
    def test_per_workload_mpl(self, sim):
        scheduler = MultiQueueScheduler(per_workload_mpl={"bi": 1})
        manager = _manager(sim, scheduler)
        a = make_query(cpu=10.0, io=0.0, sql="bi:q")
        b = make_query(cpu=10.0, io=0.0, sql="bi:q")
        c = make_query(cpu=10.0, io=0.0, sql="oltp:q")
        for query in (a, b, c):
            manager.submit(query)
        assert a.state is QueryState.RUNNING
        assert b.state is QueryState.QUEUED
        assert c.state is QueryState.RUNNING
        assert scheduler.queued_queries() == [b]

    def test_global_mpl_applies_across_workloads(self, sim):
        scheduler = MultiQueueScheduler(global_mpl=2)
        manager = _manager(sim, scheduler)
        for tag in ("a:q", "b:q", "c:q"):
            manager.submit(make_query(cpu=10.0, io=0.0, sql=tag))
        assert manager.running_count == 2
        assert scheduler.queued_count() == 1

    def test_priority_sweep_order(self, sim):
        scheduler = MultiQueueScheduler(global_mpl=1)
        manager = _manager(sim, scheduler)
        blocker = make_query(cpu=1.0, io=0.0, sql="x:q")
        manager.submit(blocker)
        low = make_query(cpu=1.0, io=0.0, sql="low:q", priority=1)
        high = make_query(cpu=1.0, io=0.0, sql="high:q", priority=5)
        manager.submit(low)
        manager.submit(high)
        sim.run_until(1.0)
        assert high.state is QueryState.RUNNING
        assert low.state is QueryState.QUEUED

    def test_default_workload_mpl(self, sim):
        scheduler = MultiQueueScheduler(default_workload_mpl=1)
        manager = _manager(sim, scheduler)
        a = make_query(cpu=10.0, io=0.0, sql="w:q")
        b = make_query(cpu=10.0, io=0.0, sql="w:q")
        manager.submit(a)
        manager.submit(b)
        assert manager.running_count == 1

    def test_remove_searches_all_queues(self, sim):
        scheduler = MultiQueueScheduler(global_mpl=0 or 1)
        manager = _manager(sim, scheduler)
        manager.submit(make_query(cpu=10.0, io=0.0, sql="a:q"))
        waiting = make_query(cpu=10.0, io=0.0, sql="b:q")
        manager.submit(waiting)
        assert scheduler.queue.remove(waiting.query_id) is waiting


class TestAttachIdempotency:
    def test_reattach_does_not_double_count_completions(self, sim):
        """Regression: every attach used to add a fresh engine-exit
        listener, so dynamic MPL controllers saw 2x, 3x… throughput
        after a manager rebuild or scheduler swap.  Exits now reach the
        scheduler through the manager (``Scheduler.notify_exit``)."""
        mpl = FeedbackMpl(initial=4)
        scheduler = WaitQueue(mpl)
        manager = _manager(sim, scheduler)
        for _ in range(3):
            scheduler.attach(manager)  # e.g. node reactivation
        manager.submit(make_query(cpu=0.5, io=0.0))
        sim.run_until(4.0)  # before the controller's adjust interval
        assert mpl._completions == 1

    def test_reattach_multiqueue_is_idempotent_too(self, sim):
        mpl = FeedbackMpl(initial=4)
        scheduler = MultiQueueScheduler(global_mpl=mpl)
        manager = _manager(sim, scheduler)
        scheduler.attach(manager)
        scheduler.attach(manager)
        manager.submit(make_query(cpu=0.5, io=0.0))
        sim.run_until(4.0)  # before the controller's adjust interval
        assert mpl._completions == 1

    def test_distinct_engines_each_get_a_listener(self):
        """One scheduler under two managers hears of both engines' exits."""
        mpl = FeedbackMpl(initial=4)
        scheduler = WaitQueue(mpl)
        sims = Simulator(seed=31), Simulator(seed=32)
        for sim in sims:
            _manager(sim, scheduler).submit(make_query(cpu=0.5, io=0.0))
        for sim in sims:
            sim.run_until(4.0)  # before the controller's adjust interval
        assert mpl._completions == 2


class TestMplControllers:
    def test_static_mpl(self, sim):
        manager = _manager(sim, WaitQueue())
        controller = StaticMpl(3)
        assert controller.current_limit(manager) == 3
        assert StaticMpl(None).current_limit(manager) is None

    def test_static_mpl_validation(self):
        with pytest.raises(ValueError):
            StaticMpl(0)

    def test_queueing_model_memory_bound(self, sim):
        scheduler = WaitQueue(QueueingModelMpl())
        manager = _manager(
            sim,
            scheduler,
            machine=MachineSpec(cpu_capacity=100, disk_capacity=100, memory_mb=1000),
        )
        # queries each want 500MB -> memory fits only 2
        for _ in range(6):
            manager.submit(make_query(cpu=5.0, io=5.0, mem=500.0))
        assert manager.running_count <= 2

    def test_queueing_model_rate_bound(self, sim):
        controller = QueueingModelMpl(utilization_target=1.0)
        scheduler = WaitQueue(controller)
        manager = _manager(
            sim,
            scheduler,
            machine=MachineSpec(cpu_capacity=2, disk_capacity=2, memory_mb=1e9),
        )
        # cpu-only queries, 1 core each when alone: N* = duration/share
        for _ in range(10):
            manager.submit(make_query(cpu=4.0, io=0.0, mem=1.0))
        # bottleneck demand per query = 4/2 cores*s per progress unit;
        # limit = duration(4) / bottleneck(2) = 2 concurrent
        assert manager.running_count == 2

    def test_queueing_model_empty_system_returns_ceiling(self, sim):
        controller = QueueingModelMpl(ceiling=42)
        manager = _manager(sim, WaitQueue())
        assert controller.current_limit(manager) == 42

    def test_feedback_mpl_adjusts(self, sim):
        controller = FeedbackMpl(initial=4, interval=1.0, step=1, hysteresis=0.0)
        manager = _manager(sim, WaitQueue(controller))
        controller._last_throughput = 100.0
        controller._completions = 0  # collapse -> reverse direction
        controller._adjust(manager)
        assert controller.limit == 3

    def test_feedback_mpl_validation(self):
        with pytest.raises(ConfigurationError):
            FeedbackMpl(initial=0)
        with pytest.raises(ConfigurationError):
            FeedbackMpl(step=0)
