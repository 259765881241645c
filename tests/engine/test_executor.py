"""Unit/integration tests for the execution engine."""

from unittest import mock

import pytest

from repro.engine.executor import CompletionOutcome, EngineConfig, ExecutionEngine
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec, ResourceKind
from repro.engine.runstore import RunStore
from repro.errors import ConfigurationError, QueryStateError

from tests.conftest import submitted_query


def _engine(sim, cpu=4.0, disk=4.0, mem=4096.0, hot_set=500, spill=3.0):
    return ExecutionEngine(
        sim,
        MachineSpec(cpu_capacity=cpu, disk_capacity=disk, memory_mb=mem),
        EngineConfig(hot_set_size=hot_set, spill_penalty=spill),
    )


@pytest.mark.parametrize(
    "field, value",
    [
        ("hot_set_size", 0),
        ("spill_penalty", -2.0),
        ("lock_stream", ""),
    ],
)
def test_engine_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigurationError, match=field):
        EngineConfig(**{field: value})


class TestBasicExecution:
    def test_single_query_finishes_at_nominal_duration(self, sim):
        engine = _engine(sim)
        done = []
        engine.on_exit(lambda q, o: done.append((q.query_id, o, sim.now)))
        query = submitted_query(sim, cpu=2.0, io=6.0)
        engine.start(query)
        sim.run()
        assert done[0][1] is CompletionOutcome.COMPLETED
        assert done[0][2] == pytest.approx(6.0)  # max(cpu, io)
        assert query.state is QueryState.COMPLETED
        assert query.end_time == pytest.approx(6.0)

    def test_zero_cost_query_completes_immediately(self, sim):
        engine = _engine(sim)
        done = []
        engine.on_exit(lambda q, o: done.append(o))
        engine.start(submitted_query(sim, cpu=0.0, io=0.0))
        assert done == [CompletionOutcome.COMPLETED]

    def test_contention_halves_speed(self, sim):
        engine = _engine(sim, cpu=1.0, disk=8.0)
        ends = []
        engine.on_exit(lambda q, o: ends.append(sim.now))
        for _ in range(2):
            engine.start(submitted_query(sim, cpu=4.0, io=0.0))
        sim.run()
        assert ends == pytest.approx([8.0, 8.0])

    def test_weight_gives_proportional_speed(self, sim):
        engine = _engine(sim, cpu=1.0, disk=8.0)
        ends = {}
        engine.on_exit(lambda q, o: ends.update({q.query_id: sim.now}))
        fast = submitted_query(sim, cpu=4.0, io=0.0)
        slow = submitted_query(sim, cpu=4.0, io=0.0)
        engine.start(fast, weight=3.0)
        engine.start(slow, weight=1.0)
        sim.run()
        # fast: 0.75 cores -> 5.333s; slow finishes the rest afterwards
        assert ends[fast.query_id] == pytest.approx(16.0 / 3.0)
        assert ends[slow.query_id] == pytest.approx(8.0)

    def test_start_twice_rejected(self, sim):
        engine = _engine(sim)
        query = submitted_query(sim, cpu=5.0)
        engine.start(query)
        with pytest.raises(QueryStateError):
            engine.start(query)

    def test_running_introspection(self, sim):
        engine = _engine(sim)
        query = submitted_query(sim, cpu=10.0, io=0.0)
        engine.start(query, weight=2.0)
        assert engine.running_count == 1
        assert engine.is_running(query.query_id)
        assert engine.weight_of(query.query_id) == 2.0
        assert query in engine.running_queries()

    def test_progress_advances_with_time(self, sim):
        engine = _engine(sim)
        query = submitted_query(sim, cpu=10.0, io=0.0)
        engine.start(query)
        sim.run_until(5.0)
        assert engine.progress_of(query.query_id) == pytest.approx(0.5)

    def test_start_time_recorded_once(self, sim):
        engine = _engine(sim)
        query = submitted_query(sim, cpu=1.0, io=0.0)
        query.start_time = 0.25  # pre-set (e.g. resumed query)
        sim.run_until(1.0)
        engine.start(query)
        assert query.start_time == 0.25


class TestControls:
    def test_throttle_halves_speed(self, sim):
        engine = _engine(sim)
        query = submitted_query(sim, cpu=4.0, io=0.0)
        engine.start(query)
        engine.set_throttle(query.query_id, 0.5)
        done = []
        engine.on_exit(lambda q, o: done.append(sim.now))
        sim.run()
        assert done == pytest.approx([8.0])

    def test_speed_ceiling_covers_all_work_and_stacks_with_throttle(self, sim):
        engine = _engine(sim)
        first = submitted_query(sim, cpu=4.0, io=0.0)
        engine.start(first)
        sim.run_until(1.0)  # a quarter done at full speed
        engine.set_speed(0.5)
        second = submitted_query(sim, cpu=1.0, io=0.0)
        engine.start(second)
        engine.set_throttle(second.query_id, 0.5)
        assert engine.throttle_of(first.query_id) == 1.0
        assert engine.speed_of(first.query_id) == pytest.approx(0.5 / 4.0)
        assert engine.speed_of(second.query_id) == pytest.approx(0.25)
        done = {}
        engine.on_exit(lambda q, o: done.setdefault(q.query_id, sim.now))
        sim.run()
        assert done == {
            first.query_id: pytest.approx(1.0 + 3.0 / 0.5),
            second.query_id: pytest.approx(1.0 + 1.0 / 0.25),
        }

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5])
    def test_invalid_speed_rejected(self, sim, factor):
        with pytest.raises(ValueError):
            _engine(sim).set_speed(factor)

    def test_pause_and_resume(self, sim):
        engine = _engine(sim)
        query = submitted_query(sim, cpu=4.0, io=0.0)
        engine.start(query)
        sim.run_until(1.0)
        engine.pause(query.query_id)
        sim.run_until(11.0)
        assert engine.progress_of(query.query_id) == pytest.approx(0.25)
        engine.resume(query.query_id)
        done = []
        engine.on_exit(lambda q, o: done.append(sim.now))
        sim.run()
        assert done == pytest.approx([14.0])

    def test_a_milestone_armed_for_one_attempt_never_fires_for_the_next(self, sim):
        engine = _engine(sim)
        query = submitted_query(sim, cpu=1.0, io=0.0)  # due at t = 1.0

        def restart():  # at t = 1.0, ahead of the milestone armed at t = 0
            engine.abort(query.query_id)
            query.transition(QueryState.SUBMITTED)
            engine.start(query)

        sim.schedule_at(1.0, restart)
        engine.start(query)
        done = []
        engine.on_exit(lambda q, outcome: done.append((outcome, sim.now)))
        sim.run()
        assert done == [
            (CompletionOutcome.ABORTED, 1.0),
            (CompletionOutcome.COMPLETED, pytest.approx(2.0)),
        ]

    def test_a_tick_throttling_three_queries_solves_once(self, sim):
        engine = _engine(sim)
        queries = [submitted_query(sim, cpu=10.0, io=0.0) for _ in range(3)]
        for query in queries:
            engine.start(query)
        sim.run_until(1.0)
        settles = []
        settle = RunStore.settle

        def counted(store, now):
            settles.append(len(store))
            return settle(store, now)

        def tick():  # one event: a controller throttling every query
            for query in queries:
                engine.set_throttle(query.query_id, 0.5)

        sim.schedule_at(2.0, tick)
        with mock.patch.object(RunStore, "settle", counted):
            sim.run_until(2.0)
            assert settles == [3]  # one settle over the three rows, not one per change
            for query in queries:
                assert engine.speed_of(query.query_id) == pytest.approx(0.05)
            assert settles == [3]

    def test_invalid_throttle_rejected(self, sim):
        engine = _engine(sim)
        query = submitted_query(sim, cpu=4.0)
        engine.start(query)
        with pytest.raises(ValueError):
            engine.set_throttle(query.query_id, 1.5)

    def test_set_weight_reallocates(self, sim):
        engine = _engine(sim, cpu=1.0, disk=8.0)
        a = submitted_query(sim, cpu=4.0, io=0.0)
        b = submitted_query(sim, cpu=4.0, io=0.0)
        engine.start(a)
        engine.start(b)
        engine.set_weight(a.query_id, 4.0)
        assert engine.speed_of(a.query_id) > engine.speed_of(b.query_id)

    def test_kill_releases_resources_immediately(self, sim):
        engine = _engine(sim, cpu=1.0, disk=8.0)
        victim = submitted_query(sim, cpu=100.0, io=0.0, mem=100.0)
        other = submitted_query(sim, cpu=4.0, io=0.0)
        engine.start(victim)
        engine.start(other)
        outcomes = []
        engine.on_exit(lambda q, o: outcomes.append((q.query_id, o, sim.now)))
        sim.run_until(1.0)
        engine.kill(victim.query_id)
        assert engine.buffer_pool.committed_mb < 100.0
        sim.run()
        ends = dict((qid, t) for qid, o, t in outcomes)
        # other had 0.5 cores for 1s (progress 1/8), then full speed
        assert ends[other.query_id] == pytest.approx(1.0 + 3.5)
        assert victim.state is QueryState.KILLED
        assert engine.killed_count == 1

    def test_kill_nonrunning_rejected(self, sim):
        engine = _engine(sim)
        with pytest.raises(QueryStateError):
            engine.kill(12345)

    def test_remove_suspended_keeps_progress(self, sim):
        engine = _engine(sim)
        query = submitted_query(sim, cpu=10.0, io=0.0)
        engine.start(query)
        sim.run_until(4.0)
        removed = engine.remove_suspended(query.query_id)
        assert removed is query
        assert query.state is QueryState.SUSPENDED
        assert query.progress == pytest.approx(0.4)
        assert query.suspend_count == 1
        assert engine.running_count == 0

    def test_suspended_query_restartable_with_progress(self, sim):
        engine = _engine(sim)
        query = submitted_query(sim, cpu=10.0, io=0.0)
        engine.start(query)
        sim.run_until(4.0)
        engine.remove_suspended(query.query_id)
        done = []
        engine.on_exit(lambda q, o: done.append(sim.now))
        engine.start(query)  # resume at 40%
        sim.run()
        assert done == pytest.approx([10.0])  # 6 more seconds


class TestMemoryPressure:
    def test_oversubscription_inflates_io(self, sim):
        engine = _engine(sim, cpu=8.0, disk=1.0, mem=100.0)
        ends = []
        engine.on_exit(lambda q, o: ends.append(sim.now))
        for _ in range(4):
            engine.start(submitted_query(sim, cpu=0.1, io=1.0, mem=50.0))
        sim.run()
        # pressure 2.0 -> inflation 4: 4 queries x 4 io-s on 1 disk
        assert ends == pytest.approx([16.0] * 4)

    def test_memory_pressure_metric(self, sim):
        engine = _engine(sim, mem=100.0)
        engine.start(submitted_query(sim, cpu=1.0, io=1.0, mem=150.0))
        assert engine.memory_pressure() == pytest.approx(1.5)

    def test_utilization_reports_usage(self, sim):
        engine = _engine(sim, cpu=4.0, disk=4.0)
        engine.start(submitted_query(sim, cpu=10.0, io=0.0))
        assert engine.utilization(ResourceKind.CPU) == pytest.approx(0.25)
        assert engine.utilization(ResourceKind.DISK) == pytest.approx(0.0)

    def test_memory_has_no_utilization(self, sim):
        # memory is a space resource: its use is memory_pressure()
        with pytest.raises(KeyError):
            _engine(sim).utilization(ResourceKind.MEMORY)


class TestLockingIntegration:
    def test_conflicting_transactions_serialize(self, sim):
        engine = _engine(sim, hot_set=1)
        ends = {}
        engine.on_exit(lambda q, o: ends.update({q.query_id: (o, sim.now)}))
        older = submitted_query(sim, cpu=1.0, io=0.0, locks=1)
        engine.start(older)
        sim.run_until(0.2)
        younger = submitted_query(sim, cpu=1.0, io=0.0, locks=1)
        engine.start(younger)
        sim.run()
        # whoever hit the conflict either waited or died; both eventually
        # leave the engine and the lock table ends empty
        assert engine.lock_manager.locks_held() == 0
        assert len(ends) >= 1

    def test_wait_die_abort_surfaces_as_aborted(self, sim):
        engine = _engine(sim, hot_set=1)
        outcomes = []
        engine.on_exit(lambda q, o: outcomes.append(o))
        first = submitted_query(sim, cpu=5.0, io=0.0, locks=1)
        engine.start(first)
        sim.run_until(2.6)  # first holds its lock (point at 0.5 progress)
        second = submitted_query(sim, cpu=1.0, io=0.0, locks=1)
        engine.start(second)  # younger -> dies at its lock point (t=3.1)
        sim.run()
        assert CompletionOutcome.ABORTED in outcomes
        assert engine.aborted_count == 1

    def test_blocked_query_resumes_after_holder_finishes(self, sim):
        engine = _engine(sim, hot_set=1)
        ends = {}
        engine.on_exit(lambda q, o: ends.update({q.query_id: sim.now}))
        younger_first = submitted_query(sim, cpu=1.0, io=0.0, locks=1)
        older_wait = submitted_query(sim, cpu=1.0, io=0.0, locks=1)
        # register the *older* one first in the engine but delay its
        # lock point by letting the younger grab the item... simplest:
        # start older later is wrong (timestamps). Start older first,
        # pause it, let younger take the lock, then resume older.
        engine.start(older_wait)
        engine.pause(older_wait.query_id)
        sim.run_until(0.1)
        engine.start(younger_first)
        sim.run_until(0.7)  # younger holds the single item's lock
        engine.resume(older_wait.query_id)
        sim.run()
        assert older_wait.query_id in ends
        assert younger_first.query_id in ends
        assert ends[older_wait.query_id] >= ends[younger_first.query_id]
        assert engine.lock_manager.locks_held() == 0

    def test_read_only_queries_take_no_locks(self, sim):
        engine = _engine(sim, hot_set=1)
        for _ in range(3):
            engine.start(submitted_query(sim, cpu=0.5, io=0.0, locks=0))
        sim.run()
        assert engine.lock_manager.stats.requests == 0
        assert engine.completed_count == 3


class TestSimultaneousCompletions:
    def test_identical_queries_all_complete(self, sim):
        engine = _engine(sim, cpu=2.0, disk=1.0, mem=100.0)
        done = []
        engine.on_exit(lambda q, o: done.append(o))
        for _ in range(5):
            engine.start(submitted_query(sim, cpu=0.1, io=1.0, mem=50.0))
        sim.run()
        assert done.count(CompletionOutcome.COMPLETED) == 5
        assert engine.running_count == 0
