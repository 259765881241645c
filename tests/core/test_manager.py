"""Integration tests for the WorkloadManager pipeline."""

from functools import partial

import pytest

from repro.admission.threshold import ThresholdAdmission
from repro.core.interfaces import (
    AdmissionController,
    AdmissionDecision,
    Characterizer,
    ExecutionController,
    MplController,
)
from repro.core.manager import FCFSDispatcher, WaitQueue, WorkloadManager
from repro.core.policy import AdmissionPolicy
from repro.core.sla import SLASet, response_time_sla
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec, ResourceKind
from repro.errors import ConfigurationError
from repro.workloads.traces import QueryLog

from tests.conftest import make_query, next_instant
from tests.scheduling.test_queues import _teradata_manager


def _manager(sim, **kwargs):
    kwargs.setdefault(
        "machine", MachineSpec(cpu_capacity=2.0, disk_capacity=2.0, memory_mb=2048)
    )
    return WorkloadManager(sim, **kwargs)


class TestSubmission:
    def test_submit_runs_and_completes(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=1.0, io=0.0, sql="wl:txn")
        manager.submit(query)
        manager.run(horizon=0.0, drain=5.0)
        assert query.state is QueryState.COMPLETED
        assert manager.metrics.stats_for("wl").completions == 1

    def test_tag_characterizer_assigns_workload(self, sim):
        manager = _manager(sim)
        query = make_query(sql="sales:lookup")
        manager.submit(query)
        assert query.workload_name == "sales"

    def test_tag_characterizer_without_tag(self, sim):
        manager = _manager(sim)
        query = make_query(sql="")
        manager.submit(query)
        assert query.workload_name is None

    def test_workload_without_sla_keeps_the_query_priority(self, sim):
        manager = _manager(sim)
        query = make_query(sql="vip:q", priority=5)
        manager.submit(query)
        assert query.workload_name == "vip" and query.priority == 5

    def test_sla_importance_sets_priority(self, sim):
        slas = SLASet([response_time_sla("gold", average=1.0, importance=4)])
        manager = _manager(sim, slas=slas)
        query = make_query(sql="gold:q")
        manager.submit(query)
        assert query.priority == 4

    def test_submit_time_stamped(self, sim):
        manager = _manager(sim)
        sim.schedule_at(3.0, lambda: manager.submit(make_query(cpu=0.1, io=0.0)))
        sim.run_until(3.0)
        assert manager.submitted_count == 1


class TestRejection:
    class _RejectAll(AdmissionController):
        def decide(self, query, context):
            return AdmissionDecision.reject("no")

    def test_rejection_recorded_and_terminal(self, sim):
        manager = _manager(sim, admission=self._RejectAll())
        notified = []
        manager.add_completion_listener(lambda q: notified.append(q.query_id))
        query = make_query(sql="wl:q")
        decision = manager.submit(query)
        assert decision.outcome.value == "reject"
        assert query.state is QueryState.REJECTED
        assert manager.rejected_count == 1
        assert manager.metrics.stats_for("wl").rejections == 1
        assert notified == [query.query_id]


class TestDelay:
    class _DelayOnce(AdmissionController):
        def __init__(self):
            self.calls = 0

        def decide(self, query, context):
            self.calls += 1
            if self.calls == 1:
                return AdmissionDecision.delay("wait")
            return AdmissionDecision.accept("go")

    def test_delayed_query_retried_on_tick(self, sim):
        admission = self._DelayOnce()
        manager = _manager(sim, admission=admission, control_period=0.5)
        query = make_query(cpu=0.2, io=0.0)
        manager.submit(query)
        assert manager.queued_count == 1
        manager.run(horizon=2.0, drain=5.0)
        assert query.state is QueryState.COMPLETED
        assert admission.calls == 2


class TestDispatch:
    def test_fcfs_mpl_limits_concurrency(self, sim):
        manager = _manager(sim, scheduler=FCFSDispatcher(max_concurrency=2))
        for _ in range(5):
            manager.submit(make_query(cpu=1.0, io=0.0))
        assert manager.running_count == 2
        assert manager.queued_count == 3
        manager.run(horizon=0.0, drain=30.0)
        assert manager.metrics.stats_for(None).completions == 5

    def test_invalid_mpl_rejected(self):
        with pytest.raises(ConfigurationError):
            FCFSDispatcher(max_concurrency=0)

    def test_weight_fn_uses_priority_by_default(self, sim):
        manager = _manager(sim)
        high = make_query(cpu=10.0, io=0.0, priority=4)
        low = make_query(cpu=10.0, io=0.0, priority=1)
        manager.submit(high)
        manager.submit(low)
        assert manager.engine.weight_of(high.query_id) == 4.0
        assert manager.engine.weight_of(low.query_id) == 1.0

    def test_custom_weight_fn(self, sim):
        manager = _manager(sim, weight_fn=lambda q: 7.0)
        query = make_query(cpu=1.0, io=0.0)
        manager.submit(query)
        assert manager.engine.weight_of(query.query_id) == 7.0

    def test_scheduler_remove_supports_kill_in_queue(self, sim):
        manager = _manager(sim, scheduler=FCFSDispatcher(max_concurrency=1))
        first = make_query(cpu=5.0, io=0.0)
        second = make_query(cpu=5.0, io=0.0)
        manager.submit(first)
        manager.submit(second)
        removed = manager.scheduler.queue.remove(second.query_id)
        assert removed is second
        assert manager.queued_count == 0


class TestObservedState:
    """What a monitor reads of a live manager (paper §4.1): the engine's
    running set, each query's progress and speed, the scheduler's queue
    and each workload's recorded outcomes."""

    @pytest.fixture
    def loaded(self, sim):
        """Two OLTP requests finished; three BI requests run and one
        waits behind them."""
        manager = WorkloadManager(
            sim,
            machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096),
            scheduler=FCFSDispatcher(max_concurrency=3),
        )
        for _ in range(2):
            manager.submit(make_query(cpu=0.1, io=0.0, sql="oltp:t"))
        sim.run_until(1.0)
        for _ in range(4):
            manager.submit(make_query(cpu=50.0, io=0.0, sql="bi:q"))
        sim.run_until(2.0)
        return manager

    def test_the_running_snapshot_matches_the_running_count(self, loaded):
        running = loaded.engine.running_queries()
        assert len(running) == loaded.running_count == 3
        assert {q.workload_name for q in running} == {"bi"}
        assert all(q.start_time == 1.0 for q in running)

    def test_progress_is_a_fraction_the_query_object_agrees_with(self, loaded):
        for query in loaded.engine.running_queries():
            progress = loaded.engine.progress_of(query.query_id)
            assert 0.0 < progress < 1.0
            assert query.progress == progress

    def test_speeds_add_up_to_the_cpu_utilization(self, loaded):
        engine = loaded.engine
        used = sum(
            engine.speed_of(q.query_id) * q.true_cost.cpu_seconds
            for q in engine.running_queries()
        )
        assert used == pytest.approx(
            engine.utilization(ResourceKind.CPU) * engine.machine.cpu_capacity
        )
        assert used == pytest.approx(3.0)

    def test_the_queue_holds_the_waiting_request(self, loaded):
        queued = loaded.scheduler.queued_queries()
        assert [q.workload_name for q in queued] == ["bi"]
        assert loaded.queued_count == 1

    def test_a_finished_workload_has_its_outcomes_and_a_running_one_none(
        self, loaded
    ):
        assert loaded.metrics.workloads() == ["oltp"]
        oltp = loaded.metrics.stats_for("oltp")
        assert oltp.completions == 2
        assert oltp.mean_response_time() == pytest.approx(0.1)
        assert oltp.overall_throughput(loaded.sim.now) == pytest.approx(1.0)
        bi = loaded.metrics.stats_for("bi")
        assert bi.completions == 0 and bi.mean_response_time() is None

    def test_an_idle_manager_reads_empty(self, sim):
        manager = WorkloadManager(sim)
        assert manager.engine.running_queries() == []
        assert manager.scheduler.queued_queries() == []
        assert manager.metrics.workloads() == []
        assert manager.metrics.stats_for("bi").overall_throughput(sim.now) == 0.0


class TestPumpRefill:
    """A batch is everything dispatchable now: the manager asks its
    scheduler again only after a pump re-entered and was suppressed."""

    def test_a_request_that_finishes_inside_start_refills_in_the_same_pump(self, sim):
        manager = _manager(sim, scheduler=WaitQueue(max_concurrency=1))
        blocker = make_query(cpu=0.5, io=0.0)
        instant = make_query(cpu=0.0, io=0.0)
        behind = make_query(cpu=1.0, io=0.0)
        for query in (blocker, instant, behind):
            manager.submit(query)
        assert instant.true_cost.nominal_duration <= 1e-9
        assert manager.queued_count == 2
        pumps = []  # (instant, re-entered) per pump call
        pump = manager.pump

        def counted():
            pumps.append((sim.now, manager._pumping))
            pump()

        manager.pump = counted
        sim.run_until(0.5)  # the blocker's exit; the first tick is at 1.0
        assert instant.state is QueryState.COMPLETED and instant.end_time == 0.5
        # the instant request's exit pumped while its batch was starting;
        # that suppressed pump is what lets the one outer pump refill
        assert pumps == [(0.5, False), (0.5, True)]
        assert behind.state is QueryState.RUNNING and behind.start_time == 0.5

    def test_the_scheduler_is_asked_at_most_once_per_pump(self):
        manager = _teradata_manager()
        calls = {"pump": 0, "next_batch": 0}
        pump, sweep = manager.pump, manager.scheduler.next_batch

        def counted_pump():
            calls["pump"] += 1  # suppressed re-entries count too
            pump()

        def counted_sweep(context):
            calls["next_batch"] += 1
            return sweep(context)

        manager.pump = counted_pump
        manager.scheduler.next_batch = counted_sweep
        manager.run(70.0, drain=0.0)
        assert manager.metrics.stats_for("tactical").completions > 1000
        assert 0 < calls["next_batch"] <= calls["pump"]


class TestAbortResubmission:
    def test_wait_die_victims_are_resubmitted_and_finish(self, sim):
        from repro.engine.executor import EngineConfig

        manager = WorkloadManager(
            sim,
            machine=MachineSpec(cpu_capacity=4.0, disk_capacity=4.0, memory_mb=2048),
            engine_config=EngineConfig(hot_set_size=1),
        )
        first = make_query(cpu=5.0, io=0.0, locks=1)
        manager.submit(first)
        sim.run_until(2.6)
        second = make_query(cpu=1.0, io=0.0, locks=1)
        manager.submit(second)
        manager.run(horizon=3.0, drain=30.0)
        assert first.state is QueryState.COMPLETED
        assert second.state is QueryState.COMPLETED
        assert second.restarts >= 1
        assert manager.metrics.stats_for(None).aborts >= 1


class TestControlTick:
    class _Recorder(ExecutionController):
        def __init__(self):
            self.ticks = []

        def control(self, context: WorkloadManager) -> None:
            self.ticks.append(context.now)

    def test_controllers_run_each_period(self, sim):
        recorder = self._Recorder()
        manager = _manager(
            sim, execution_controllers=[recorder], control_period=1.0
        )
        manager.run(horizon=3.5, drain=0.0)
        assert recorder.ticks == [1.0, 2.0, 3.0]

    def test_system_samples_collected(self, sim):
        manager = _manager(sim, control_period=1.0)
        manager.submit(make_query(cpu=10.0, io=0.0))
        manager.run(horizon=2.0, drain=0.0)
        sample = manager.metrics.latest_sample()
        assert sample is not None
        assert sample.running == 1
        assert sample.cpu_utilization > 0

    def test_add_execution_controller_later(self, sim):
        manager = _manager(sim)
        recorder = self._Recorder()
        manager.add_execution_controller(recorder)
        manager.run(horizon=1.0, drain=0.0)
        assert recorder.ticks == [1.0]

    def test_shutdown_stops_tick(self, sim):
        manager = _manager(sim, control_period=1.0)
        manager.shutdown()
        sim.run()
        assert sim.now < 1.0


class TestListeners:
    def test_completion_listener_called_for_completed(self, sim):
        manager = _manager(sim)
        done = []
        manager.add_completion_listener(lambda q: done.append(q.state))
        manager.submit(make_query(cpu=0.1, io=0.0))
        manager.run(horizon=0.0, drain=2.0)
        assert done == [QueryState.COMPLETED]

    def test_kill_notifies_listeners(self, sim):
        manager = _manager(sim)
        done = []
        manager.add_completion_listener(lambda q: done.append(q.state))
        query = make_query(cpu=100.0, io=0.0)
        manager.submit(query)
        sim.run_until(1.0)
        manager.engine.kill(query.query_id)
        assert done == [QueryState.KILLED]
        assert manager.metrics.stats_for(None).kills == 1


class TestQueryLogListener:
    """A manager keeps one outcome record per request, its metrics; a
    DBQL trace is a :class:`QueryLog` a caller attaches as a listener."""

    class _RejectHogs(AdmissionController):
        def decide(self, query, context):
            if query.workload_name == "hog":
                return AdmissionDecision.reject("hog")
            return AdmissionDecision.accept()

    def _run(self, sim, *listeners):
        """Three completions, one rejection and one kill; returns the
        manager and its requests in the order it finalized them."""
        manager = _manager(sim, admission=self._RejectHogs())
        for listener in listeners:
            manager.add_completion_listener(listener)
        finalized = []
        manager.add_completion_listener(finalized.append)
        victim = make_query(cpu=50.0, io=0.0, sql="wl:long")
        for cpu in (0.3, 0.1, 0.2):
            manager.submit(make_query(cpu=cpu, io=0.0, sql="wl:q"))
        manager.submit(victim)
        manager.submit(make_query(cpu=0.1, io=0.0, sql="hog:q"))
        sim.schedule_at(2.0, partial(manager.engine.kill, victim.query_id))
        manager.run(horizon=0.0, drain=5.0)
        states = [q.state for q in finalized]
        assert states == [QueryState.REJECTED] + [QueryState.COMPLETED] * 3 + [
            QueryState.KILLED
        ]
        return manager, finalized

    def test_a_run_writes_no_log(self, sim, monkeypatch):
        def refuse(log, query):
            raise AssertionError("the manager wrote a query log record")

        monkeypatch.setattr(QueryLog, "record_query", refuse)
        manager, _ = self._run(sim)
        assert manager.metrics.stats_for("wl").completions == 3
        assert manager.metrics.stats_for("wl").kills == 1
        assert manager.metrics.stats_for("hog").rejections == 1

    def test_an_attached_log_records_each_outcome_once_in_order(self, sim):
        log = QueryLog()
        manager, finalized = self._run(sim, log.record_query)
        assert [(r.query_id, r.final_state) for r in log] == [
            (q.query_id, q.state) for q in finalized
        ]
        assert len(log) == manager.submitted_count


class TestBacklogListener:
    """``add_backlog_listener``: running or queued may have changed.

    A listener that snapshots ``(running_count, queued_count)`` on every
    ping must hold the live pair once any public manager call returns —
    the contract the cluster's ranked node index is fed by.
    """

    class _DelayUntilOpen(AdmissionController):
        open = False

        def decide(self, query, context):
            if self.open:
                return AdmissionDecision.accept("go")
            return AdmissionDecision.delay("wait")

    class _Scripted(ExecutionController):
        """Runs one queued action per tick against the engine."""

        def __init__(self):
            self.actions = []

        def control(self, context: WorkloadManager) -> None:
            if self.actions:
                self.actions.pop(0)(context.engine)

    def _watched(self, sim, **kwargs):
        manager = _manager(sim, control_period=1.0, **kwargs)
        seen = []
        manager.add_backlog_listener(
            lambda: seen.append((manager.running_count, manager.queued_count))
        )

        def check(expected=None):
            live = (manager.running_count, manager.queued_count)
            assert seen and seen[-1] == live, f"listener holds {seen[-1:]}, live {live}"
            if expected is not None:
                assert live == expected

        return manager, check

    def test_submit_reports_the_pump(self, sim):
        # The exits (t=2.25, 4.5) miss the 1 s tick grid: a tick at the
        # same instant would report for an exit that did not.
        manager, check = self._watched(sim, scheduler=FCFSDispatcher(max_concurrency=1))
        manager.submit(make_query(cpu=2.25, io=0.0))
        check((1, 0))  # queued -> running kept the sum; the parent saw (0, 1)
        manager.submit(make_query(cpu=2.25, io=0.0))
        check((1, 1))
        while fired := next_instant(sim):  # every exit (and the pump behind it) is reported
            assert fired == 1, f"{fired} events share t={sim.now}"
            check()
            if not manager.outstanding_work():
                break
        check((0, 0))

    def test_delayed_admission_retry_on_tick(self, sim):
        admission = self._DelayUntilOpen()
        manager, check = self._watched(sim, admission=admission)
        manager.submit(make_query(cpu=5.0, io=0.0))
        check((0, 1))
        admission.open = True
        sim.run_until(1.0)  # the tick retries the held query and pumps it
        check((1, 0))

    def test_abort_resubmission(self, sim):
        from repro.engine.executor import EngineConfig

        # The holder's exit (t=4.75) misses the 1 s tick grid, as above.
        manager, check = self._watched(sim, engine_config=EngineConfig(hot_set_size=1))
        manager.submit(make_query(cpu=4.75, io=0.0, locks=1))
        sim.run_until(2.6)
        victim = make_query(cpu=1.0, io=0.0, locks=1)
        manager.submit(victim)
        while manager.outstanding_work() or victim.state is not QueryState.COMPLETED:
            assert next_instant(sim) == 1, f"events share t={sim.now}"
            check()
        assert victim.restarts >= 1

    def test_controller_kill_suspend_resume(self, sim):
        script = self._Scripted()
        manager, check = self._watched(sim, execution_controllers=[script])
        first = make_query(cpu=50.0, io=0.0)
        second = make_query(cpu=50.0, io=0.0)
        manager.submit(first)
        manager.submit(second)
        script.actions = [
            lambda engine: engine.kill(first.query_id),
            lambda engine: engine.remove_suspended(second.query_id),
            lambda engine: engine.start(second),  # resume: no exit, no submit
        ]
        for expected in [(1, 0), (0, 0), (1, 0)]:
            sim.run_until(sim.now + 1.0)
            check(expected)

    def test_evacuate_queued(self, sim):
        manager, check = self._watched(sim, scheduler=FCFSDispatcher(max_concurrency=1))
        for _ in range(3):
            manager.submit(make_query(cpu=5.0, io=0.0))
        check((1, 2))
        assert len(manager.evacuate_queued()) == 2
        check((1, 0))

    def test_evacuate_queued_withdraws_admission_holds(self, sim):
        # "held" waits in admission (an MPL of 0), the rest in the queue
        admission = ThresholdAdmission(per_workload={"held": AdmissionPolicy(max_concurrency=0)})
        manager, check = self._watched(
            sim, admission=admission, scheduler=FCFSDispatcher(max_concurrency=1)
        )
        queries = [make_query(cpu=5.0, io=0.0, sql=sql) for sql in ("wl:q", "held:q") * 3]
        for query in queries:
            manager.submit(query)
        check((1, 5))
        assert manager.evacuate_queued() == queries[2::2] + queries[1::2]
        check((1, 0))
        assert all(query.state is QueryState.QUEUED for query in queries[1:])
        sim.run_until(1.0)  # the tick's retry finds no hold left to admit
        check((1, 0))


class TestEveryControlIsHandedItsManager:
    """Each socket's every hook receives the manager it is plugged into
    as ``context``: no second object stands between a control and it."""

    def test_every_hook_sees_the_manager(self, sim):
        seen = []

        def saw(hook, context):
            seen.append((hook, context))

        class Identify(Characterizer):
            def identify(self, query, context):
                saw("identify", context)
                return None

            def attach(self, context):
                saw("identify.attach", context)

        class Admit(AdmissionController):
            def decide(self, query, context):
                saw("decide", context)
                return AdmissionDecision.accept()

            def notify_exit(self, query, context):
                saw("decide.notify_exit", context)

            def attach(self, context):
                saw("decide.attach", context)

        class Limit(MplController):
            def current_limit(self, context):
                saw("current_limit", context)
                return 1

            def attach(self, context):
                saw("current_limit.attach", context)

        class Queue(WaitQueue):
            def enqueue(self, query, context):
                saw("enqueue", context)
                super().enqueue(query, context)

            def next_batch(self, context):
                saw("next_batch", context)
                return super().next_batch(context)

            def notify_exit(self, query, context):
                saw("next_batch.notify_exit", context)
                super().notify_exit(query, context)

        class Control(ExecutionController):
            def control(self, context):
                saw("control", context)

            def notify_exit(self, query, context):
                saw("control.notify_exit", context)

            def attach(self, context):
                saw("control.attach", context)

        manager = _manager(
            sim,
            characterizer=Identify(),
            admission=Admit(),
            scheduler=Queue(max_concurrency=Limit()),
            execution_controllers=[Control()],
        )
        manager.submit(make_query(cpu=0.5, io=0.0))
        manager.run(horizon=1.5)
        assert {hook for hook, _ in seen} == {
            "identify", "identify.attach",
            "decide", "decide.notify_exit", "decide.attach",
            "current_limit", "current_limit.attach",
            "enqueue", "next_batch", "next_batch.notify_exit",
            "control", "control.notify_exit", "control.attach",
        }
        assert all(context is manager for _, context in seen)
