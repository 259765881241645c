"""Unit tests for wait-queue schedulers and MPL controllers."""

from functools import partial

import pytest

from repro.core.interfaces import StaticMpl, decisions_by
from repro.core.manager import WaitQueue, WorkloadManager
from repro.core.policy import ThresholdKind
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.execution.suspend_resume import SuspendResumeController
from repro.parallel.digest import outcome_digest
from repro.scenarios import get_policy, get_scenario, runner
from repro.scenarios.runner import arm_scenario
from repro.scheduling.mpl import FeedbackMpl, QueueingModelMpl
from repro.scheduling.queues import (
    MultiQueueScheduler,
    TenantShareScheduler,
    by_priority,
    shortest_job,
)
from repro.scheduling.restructuring import RestructuringScheduler
from repro.systems.teradata import (
    QueryResourceFilter,
    TeradataASMConfig,
    TeradataException,
    TeradataWorkloadDefinition,
)
from repro.workloads.generator import Scenario, bi_workload, oltp_workload

from tests.conftest import make_query, staged_plan


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
        scheduler = MultiQueueScheduler(global_mpl=1)
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


# ----------------------------------------------------------------------
# the running tally against the recount
# ----------------------------------------------------------------------
class RecountingSweep:
    """The reference sweep: every call recounts the engine's running set
    by bucket and sorts every non-empty bucket's head."""

    def next_batch(self, context):
        queue = self.queue
        if not len(queue):
            return []
        limit = self.global_mpl.current_limit(context)
        room = float("inf") if limit is None else limit - context.engine.running_count
        running = {}
        for query in context.engine.running_queries():
            name = queue.key(query)
            running[name] = running.get(name, 0) + 1
        caps, default = self.per_workload_mpl, self.default_workload_mpl
        batch = []
        progressed = True
        while progressed:
            progressed = False
            heads = sorted(
                (-heap[0][2].priority, index, name)
                for index, (name, heap) in enumerate(queue.buckets.items())
                if heap
            )
            for _, _, name in heads:
                if room <= 0:
                    return batch
                cap = caps.get(name, default)
                if cap is not None and running.get(name, 0) >= cap:
                    continue
                batch.append(queue.pop(name))
                running[name] = running.get(name, 0) + 1
                room -= 1
                progressed = True
        return batch


class RecountingMultiQueue(RecountingSweep, MultiQueueScheduler):
    pass


class RecountingTenantShare(RecountingSweep, TenantShareScheduler):
    pass


def _log_dispatch(scheduler, log, tags):
    """Append ``(time, manager tag, request)`` to ``log`` for every request
    ``scheduler`` hands out; ``tags`` maps ``id(manager)`` to its tag."""
    sweep = scheduler.next_batch

    def next_batch(context):
        batch = sweep(context)
        log.extend(
            (context.now, tags[id(context)], q.workload_name, q.submit_time, q.restarts)
            for q in batch
        )
        return batch

    scheduler.next_batch = next_batch


#: ``teradata_mix``'s shape: tactical OLTP, throttled analytics that the
#: regulator demotes at 10 s and aborts at 40 s, a global MPL of 48.
TERADATA = TeradataASMConfig(
    definitions=(
        TeradataWorkloadDefinition(
            name="tactical", application="order-entry", priority=3, allocation_weight=4.0
        ),
        TeradataWorkloadDefinition(
            name="analytics",
            application="analytics",
            priority=1,
            allocation_weight=1.0,
            throttle=6,
            exceptions=(
                TeradataException(ThresholdKind.ELAPSED_TIME, 10.0, "demote"),
                TeradataException(ThresholdKind.ELAPSED_TIME, 40.0, "abort"),
            ),
        ),
    ),
    resource_filters=(QueryResourceFilter("no-monsters", max_estimated_work=30.0),),
    global_mpl=48,
)
MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)


def _teradata_manager(scheduler_cls=MultiQueueScheduler, seed=11):
    bundle = TERADATA.build()
    bundle.scheduler = scheduler_cls(
        global_mpl=48, per_workload_mpl=bundle.scheduler.per_workload_mpl
    )
    manager = bundle.create_manager(Simulator(seed=seed), machine=MACHINE, control_period=0.5)
    scenario = Scenario(
        specs=(
            oltp_workload(rate=60.0, priority=3),
            bi_workload(
                rate=0.4, priority=1, median_cpu=4.0, median_io=8.0, sigma=0.8,
                memory_low=100.0, memory_high=300.0,
            ),
        ),
        horizon=70.0,
    )
    generator = scenario.build(manager.sim, manager.submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    return manager


def _teradata_run(scheduler_cls):
    manager = _teradata_manager(scheduler_cls)
    log = []
    _log_dispatch(manager.scheduler, log, {id(manager): "m"})
    manager.run(70.0, drain=0.0)
    return manager, log


def _suspend_resume_run(scheduler_cls):
    controller = SuspendResumeController(
        min_victim_work=1.0, resume_when_idle_below=6, velocity_floor=0.5
    )
    manager = WorkloadManager(
        Simulator(seed=3),
        machine=MACHINE,
        scheduler=scheduler_cls(global_mpl=12, per_workload_mpl={"bi": 3, "oltp": 6}),
        execution_controllers=[controller],
        control_period=0.5,
    )
    scenario = Scenario(
        specs=(
            oltp_workload(rate=30.0),
            bi_workload(rate=0.5, median_cpu=4.0, median_io=6.0, memory_low=50.0,
                        memory_high=200.0),
        ),
        horizon=60.0,
    )
    generator = scenario.build(manager.sim, manager.submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    log = []
    _log_dispatch(manager.scheduler, log, {id(manager): "m"})
    manager.run(60.0, drain=0.0)
    return manager, log


def _crashed_tenant_run(scheduler_cls, monkeypatch):
    monkeypatch.setattr(runner, "TenantShareScheduler", scheduler_cls)
    result = arm_scenario(get_scenario("churn"), get_policy("full-isolation"), seed=7)
    log = []
    for node in result.dispatcher.nodes:
        _log_dispatch(node.manager.scheduler, log, {id(node.manager): node.name})
    result.run()
    return result, log


def _shared_run(scheduler_cls):
    sim = Simulator(seed=5)
    scheduler = scheduler_cls(global_mpl=5, per_workload_mpl={"bi": 2, "oltp": 3})
    managers = [_manager(sim, scheduler), _manager(sim, scheduler)]
    log = []
    _log_dispatch(scheduler, log, {id(m): index for index, m in enumerate(managers)})
    rng = Simulator(seed=6).rng("arrivals")
    for index in range(120):
        tag = "bi" if index % 3 == 0 else "oltp"
        query = make_query(cpu=rng.uniform(0.1, 2.0), io=rng.uniform(0.0, 1.0), sql=f"{tag}:q")
        sim.schedule(0.05 * index, partial(managers[index % 2].submit, query))
    sim.run_until(60.0)
    return managers, log


def _sliced_run(scheduler_cls):
    """A report sliced into pieces beside an analytics query that
    suspend/resume evicts and restarts: each slice's exit pumps (the
    restructuring scheduler releases the next slice) before the
    scheduler hears of that exit, while the restarted query runs."""
    inner = scheduler_cls(per_workload_mpl={"bi": 1, "rep": 1})
    manager = WorkloadManager(
        Simulator(seed=1),
        machine=MachineSpec(cpu_capacity=2, disk_capacity=4, memory_mb=4096),
        scheduler=RestructuringScheduler(inner, slice_threshold=20.0, slice_work=2.0),
        execution_controllers=[
            SuspendResumeController(min_victim_work=1.0, resume_when_idle_below=10)
        ],
        control_period=0.5,
    )
    log = []
    _log_dispatch(inner, log, {id(manager): "m"})
    arrivals = (
        (0.0, make_query(cpu=10.0, io=0.0, sql="bi:q", plan=staged_plan())),
        (0.1, make_query(cpu=40.0, io=0.0, priority=2, sql="rep:q")),
        (1.0, make_query(cpu=1.0, io=0.0, priority=3, sql="vip:q")),
        (1.1, make_query(cpu=1.0, io=0.0, priority=3, sql="vip:q")),
        (4.0, make_query(cpu=10.0, io=0.0, sql="bi:q", plan=staged_plan())),
    )
    for at, query in arrivals:
        manager.sim.schedule(at, partial(manager.submit, query))
    manager.sim.run_until(200.0)
    return manager, log


def _requeued_run(scheduler_cls):
    """A suspended request put back in the queue by hand, then dispatched
    again under its workload's cap of one."""
    manager = _manager(Simulator(seed=2), scheduler_cls(per_workload_mpl={"bi": 1}))
    sim, scheduler = manager.sim, manager.scheduler
    log = []
    _log_dispatch(scheduler, log, {id(manager): "m"})
    first, second, third = (make_query(cpu=2.0, io=0.0, sql="bi:q") for _ in range(3))
    manager.submit(first)
    sim.run_until(0.5)
    manager.engine.remove_suspended(first.query_id)
    manager.submit(second)
    first.transition(QueryState.QUEUED)
    scheduler.enqueue(first, manager)
    manager.submit(third)
    sim.run_until(20.0)
    return manager, log


class TestRunningTally:
    """The tally-driven sweep dispatches exactly as a recount would."""

    def test_teradata_mix_shape(self):
        manager, log = _teradata_run(MultiQueueScheduler)
        reference, want = _teradata_run(RecountingMultiQueue)
        assert log == want and len(log) > 4000
        assert outcome_digest(manager) == outcome_digest(reference)
        # the regulator acted: demotions and aborts both shaped the run
        assert decisions_by(manager.decisions, action="demote")
        assert decisions_by(manager.decisions, controller="QueryKillController")

    def test_a_request_suspend_resume_restarts(self):
        manager, log = _suspend_resume_run(MultiQueueScheduler)
        reference, want = _suspend_resume_run(RecountingMultiQueue)
        assert log == want and len(log) > 1000
        assert outcome_digest(manager) == outcome_digest(reference)
        assert decisions_by(manager.decisions, "SuspendResumeController", "resume")

    def test_tenant_nodes_whose_work_a_crash_aborts(self, monkeypatch):
        result, log = _crashed_tenant_run(TenantShareScheduler, monkeypatch)
        reference, want = _crashed_tenant_run(RecountingTenantShare, monkeypatch)
        assert log == want and len(log) > 400
        assert [outcome_digest(n.manager) for n in result.dispatcher.nodes] == [
            outcome_digest(n.manager) for n in reference.dispatcher.nodes
        ]
        assert result.dispatcher.metrics.resubmissions > 0

    def test_a_pump_between_an_exit_and_its_notice(self):
        manager, log = _sliced_run(MultiQueueScheduler)
        reference, want = _sliced_run(RecountingMultiQueue)
        assert log == want and len(log) == 24
        assert outcome_digest(manager) == outcome_digest(reference)
        assert decisions_by(manager.decisions, "SuspendResumeController", "resume")

    def test_a_suspended_request_queued_again(self):
        manager, log = _requeued_run(MultiQueueScheduler)
        reference, want = _requeued_run(RecountingMultiQueue)
        assert log == want and len(log) == 4
        assert outcome_digest(manager) == outcome_digest(reference)

    def test_one_scheduler_under_two_managers(self):
        managers, log = _shared_run(MultiQueueScheduler)
        reference, want = _shared_run(RecountingMultiQueue)
        assert log == want and {entry[1] for entry in log} == {0, 1}
        assert [outcome_digest(m) for m in managers] == [
            outcome_digest(m) for m in reference
        ]


def test_a_capped_backlog_is_swept_without_reading_the_running_set():
    """A standing analytics backlog at its throttle of 6 with no controller
    that starts work: no sweep reads the engine's running set."""
    manager = _teradata_manager()
    scheduler, engine = manager.scheduler, manager.engine
    sweep, running_queries = scheduler.next_batch, engine.running_queries
    counts = {"sweeps": 0, "capped": 0, "reads": 0}
    inside = []

    def counted_read():
        counts["reads"] += bool(inside)
        return running_queries()

    def counted_sweep(context):
        inside.append(True)
        try:
            batch = sweep(context)
        finally:
            inside.pop()
        counts["sweeps"] += 1
        counts["capped"] += not batch and scheduler.queued_count() > 0
        return batch

    engine.running_queries = counted_read
    scheduler.next_batch = counted_sweep
    manager.run(70.0, drain=0.0)
    completions = sum(
        manager.metrics.stats_for(name).completions for name in manager.metrics.workloads()
    )
    assert completions > 4000
    assert counts["capped"] > 0.5 * completions  # the backlog stood capped
    assert counts["sweeps"] <= 4 * completions
    assert counts["reads"] == 0
