"""Failure-injection tests: the pipeline under hostile conditions.

Each test injects a pathological condition — controllers killing work
mid-dispatch, suspension of queries that complete while dumping,
admission gates that flap every decision, zero-cost floods, engine
actions racing completions — and asserts the system degrades gracefully
(no crashes, no leaks, no stuck queries) rather than asserting specific
performance.
"""

import pytest

from repro.core.interfaces import (
    AdmissionController,
    AdmissionDecision,
    ExecutionController,
)
from repro.core.manager import FCFSDispatcher, WorkloadManager
from repro.engine.executor import EngineConfig
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.execution.suspend_resume import SuspendResumeController

from tests.conftest import make_query, staged_plan


def _manager(sim, **kwargs):
    kwargs.setdefault(
        "machine", MachineSpec(cpu_capacity=2.0, disk_capacity=2.0, memory_mb=512.0)
    )
    return WorkloadManager(sim, **kwargs)


class ChaosKiller(ExecutionController):
    """Kills a random running query every tick."""

    def __init__(self):
        self.kills = 0

    def control(self, context: WorkloadManager) -> None:
        running = context.engine.running_queries()
        if running:
            rng = context.sim.rng("chaos")
            victim = running[int(rng.integers(0, len(running)))]
            context.engine.kill(victim.query_id)
            self.kills += 1


class FlappingAdmission(AdmissionController):
    """Alternates accept / delay / reject on every decision."""

    def __init__(self):
        self.calls = 0

    def decide(self, query, context):
        self.calls += 1
        outcome = self.calls % 3
        if outcome == 0:
            return AdmissionDecision.reject("flap")
        if outcome == 1:
            return AdmissionDecision.accept("flap")
        return AdmissionDecision.delay("flap")


class TestChaosKiller:
    def test_system_survives_random_kills(self, sim):
        killer = ChaosKiller()
        manager = _manager(sim, execution_controllers=[killer], control_period=0.5)
        for index in range(30):
            query = make_query(cpu=0.5, io=0.5, mem=20.0, sql="wl:q")
            sim.schedule_at(index * 0.3, lambda q=query: manager.submit(q))
        manager.run(horizon=10.0, drain=60.0)
        assert killer.kills > 0
        stats = manager.metrics.stats_for("wl")
        assert stats.completions + stats.kills == 30
        assert manager.engine.buffer_pool.committed_mb == pytest.approx(0.0)
        assert manager.engine.lock_manager.locks_held() == 0


class TestFlappingAdmission:
    def test_every_query_reaches_a_terminal_state(self, sim):
        admission = FlappingAdmission()
        manager = _manager(sim, admission=admission, control_period=0.5)
        queries = [make_query(cpu=0.2, io=0.0, sql="wl:q") for _ in range(20)]
        for index, query in enumerate(queries):
            sim.schedule_at(index * 0.1, lambda q=query: manager.submit(q))
        manager.run(horizon=5.0, drain=60.0)
        for query in queries:
            assert query.state in (QueryState.COMPLETED, QueryState.REJECTED)
        assert manager.queued_count == 0


class TestZeroCostFlood:
    def test_thousand_instant_queries(self, sim):
        manager = _manager(sim)
        for _ in range(1000):
            manager.submit(make_query(cpu=0.0, io=0.0, mem=0.0, sql="wl:q"))
        assert manager.metrics.stats_for("wl").completions == 1000
        assert manager.running_count == 0


class TestSuspendRaces:
    def test_victim_completing_during_dump_is_safe(self, sim):
        controller = SuspendResumeController(
            protected_priority=3,
            max_victim_priority=1,
            min_victim_work=0.1,
            dump_bandwidth_mb_s=1.0,  # glacial dump: completion wins
            velocity_floor=0.99,
        )
        manager = _manager(
            sim,
            machine=MachineSpec(cpu_capacity=1.0, disk_capacity=2.0, memory_mb=4096),
            execution_controllers=[controller],
            control_period=0.5,
            weight_fn=lambda q: 1.0,
        )
        victim = make_query(cpu=2.0, io=0.0, priority=1, plan=staged_plan(500.0))
        manager.submit(victim)
        sim.run_until(0.4)
        vip = make_query(cpu=5.0, io=0.0, priority=3)
        manager.submit(vip)
        manager.run(horizon=2.0, drain=600.0)
        # the dump takes ~875s; the victim is paused during it, so it
        # either completed before the dump or was suspended and later
        # resumed -- never lost
        assert victim.state in (QueryState.COMPLETED, QueryState.SUSPENDED)
        assert vip.state is QueryState.COMPLETED

    def test_kill_during_dump_is_safe(self, sim):
        controller = SuspendResumeController(
            protected_priority=3,
            max_victim_priority=1,
            min_victim_work=0.1,
            dump_bandwidth_mb_s=10.0,
            velocity_floor=0.99,
        )
        manager = _manager(
            sim,
            machine=MachineSpec(cpu_capacity=1.0, disk_capacity=2.0, memory_mb=4096),
            execution_controllers=[controller],
            control_period=0.5,
            weight_fn=lambda q: 1.0,
        )
        victim = make_query(cpu=50.0, io=0.0, priority=1, plan=staged_plan(500.0))
        manager.submit(victim)
        sim.run_until(1.0)
        vip = make_query(cpu=5.0, io=0.0, priority=3)
        manager.submit(vip)
        sim.run_until(1.6)  # dump in flight
        if manager.engine.is_running(victim.query_id):
            manager.engine.kill(victim.query_id)
        manager.run(horizon=2.0, drain=120.0)
        # killed mid-dump, or suspended-and-resumed to completion, or
        # still parked suspended — but never lost or double-counted
        assert victim.state in (
            QueryState.KILLED,
            QueryState.SUSPENDED,
            QueryState.COMPLETED,
        )
        assert vip.state is QueryState.COMPLETED
        assert manager.engine.lock_manager.locks_held() == 0


class TestKillInsideQueue:
    def test_scheduler_remove_then_engine_never_sees_it(self, sim):
        manager = _manager(sim, scheduler=FCFSDispatcher(max_concurrency=1))
        blocker = make_query(cpu=5.0, io=0.0)
        waiting = make_query(cpu=5.0, io=0.0)
        manager.submit(blocker)
        manager.submit(waiting)
        removed = manager.scheduler.queue.remove(waiting.query_id)
        assert removed is waiting
        manager.run(horizon=0.0, drain=30.0)
        assert blocker.state is QueryState.COMPLETED
        assert waiting.state is QueryState.QUEUED  # withdrawn, never ran
        assert not manager.engine.is_running(waiting.query_id)


class TestHotSetStorm:
    def test_extreme_lock_contention_terminates(self, sim):
        manager = WorkloadManager(
            sim,
            machine=MachineSpec(cpu_capacity=4.0, disk_capacity=4.0, memory_mb=4096),
            engine_config=EngineConfig(hot_set_size=2),
        )
        queries = [make_query(cpu=0.3, io=0.0, locks=2, sql="wl:t") for _ in range(15)]
        for index, query in enumerate(queries):
            sim.schedule_at(index * 0.05, lambda q=query: manager.submit(q))
        manager.run(horizon=2.0, drain=600.0)
        stats = manager.metrics.stats_for("wl")
        assert stats.completions == 15  # wait-die + resubmission converge
        assert manager.engine.lock_manager.locks_held() == 0


class TestEngineApiMisuse:
    def test_double_kill_raises_cleanly(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=10.0, io=0.0)
        manager.submit(query)
        manager.engine.kill(query.query_id)
        from repro.errors import QueryStateError

        with pytest.raises(QueryStateError):
            manager.engine.kill(query.query_id)

    def test_throttle_after_completion_raises_cleanly(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=0.1, io=0.0)
        manager.submit(query)
        manager.run(horizon=0.0, drain=5.0)
        from repro.errors import QueryStateError

        with pytest.raises(QueryStateError):
            manager.engine.set_throttle(query.query_id, 0.5)


class TestSnapshotInvalidation:
    """``running_queries()`` returns a cached snapshot invalidated *by
    replacement* on membership change: a list handed out
    before queries start or finish stays safe to iterate, while fresh
    calls observe the new membership.  These interleavings are exactly
    what controllers do — grab the running set, then kill / suspend /
    resume / start members mid-iteration."""

    def _engine(self, sim):
        from repro.engine.executor import ExecutionEngine

        return ExecutionEngine(
            sim,
            MachineSpec(cpu_capacity=2.0, disk_capacity=2.0, memory_mb=512.0),
            EngineConfig(hot_set_size=100),
        )

    def test_snapshot_is_cached_between_membership_changes(self, sim):
        from tests.conftest import submitted_query

        engine = self._engine(sim)
        for _ in range(3):
            engine.start(submitted_query(sim, cpu=5.0, io=0.0, mem=10.0))
        first = engine.running_queries()
        assert engine.running_queries() is first  # cache hit
        # throttle and weight changes keep membership: same snapshot
        victim = first[0].query_id
        engine.set_throttle(victim, 0.5)
        engine.set_weight(victim, 2.0)
        assert engine.running_queries() is first
        # a kill replaces the snapshot but leaves the old list intact
        engine.kill(victim)
        second = engine.running_queries()
        assert second is not first
        assert len(first) == 3 and len(second) == 2
        assert victim in [q.query_id for q in first]
        assert victim not in [q.query_id for q in second]

    def test_kill_all_while_iterating_stale_snapshot(self, sim):
        from tests.conftest import submitted_query

        engine = self._engine(sim)
        for _ in range(6):
            engine.start(submitted_query(sim, cpu=4.0, io=1.0, mem=20.0))
        snapshot = engine.running_queries()
        killed = []
        for query in snapshot:  # membership shrinks during iteration
            engine.kill(query.query_id)
            killed.append(query.query_id)
        assert len(killed) == 6
        assert engine.running_count == 0
        assert engine.running_queries() == []
        assert engine.buffer_pool.committed_mb == pytest.approx(0.0)

    def test_suspend_resume_start_interleaving(self, sim):
        from tests.conftest import submitted_query

        engine = self._engine(sim)
        for _ in range(4):
            engine.start(submitted_query(sim, cpu=6.0, io=0.0, mem=15.0))
        sim.run_until(1.0)
        snapshot = engine.running_queries()
        ids = [query.query_id for query in snapshot]
        # suspend two while iterating the stale snapshot, start a
        # replacement mid-iteration, resume (un-throttle) another
        suspended = []
        for index, query in enumerate(snapshot):
            query_id = query.query_id
            if index < 2:
                engine.remove_suspended(query_id)
                suspended.append(query_id)
            elif index == 2:
                engine.start(submitted_query(sim, cpu=6.0, io=0.0, mem=15.0))
                engine.pause(query_id)
            else:
                engine.resume(query_id)
        assert len(snapshot) == 4  # stale snapshot untouched
        fresh = engine.running_queries()
        assert len(fresh) == 3  # 4 - 2 suspended + 1 started
        for query_id in suspended:
            assert not engine.is_running(query_id)
            assert query_id in ids  # stale snapshot untouched
        paused = ids[2]
        assert engine.speed_of(paused) == 0.0
        engine.resume(paused)
        sim.run()
        assert engine.running_count == 0

    def test_fresh_snapshot_sees_current_membership(self, sim):
        from tests.conftest import submitted_query

        engine = self._engine(sim)
        queries = [
            submitted_query(sim, cpu=3.0, io=0.0, mem=10.0) for _ in range(3)
        ]
        for query in queries:
            engine.start(query)
        assert sorted(q.query_id for q in engine.running_queries()) == sorted(
            q.query_id for q in queries
        )
        engine.kill(queries[0].query_id)
        assert queries[0].query_id not in [
            q.query_id for q in engine.running_queries()
        ]

    def test_finish_during_drain_invalidates_snapshot(self, sim):
        from tests.conftest import submitted_query

        engine = self._engine(sim)
        fast = submitted_query(sim, cpu=0.5, io=0.0, mem=5.0)
        slow = submitted_query(sim, cpu=50.0, io=0.0, mem=5.0)
        engine.start(fast)
        engine.start(slow)
        before = engine.running_queries()
        sim.run_until(5.0)  # fast completes naturally
        after = engine.running_queries()
        assert len(before) == 2  # stale snapshot kept its members
        assert [q.query_id for q in after] == [slow.query_id]


class TestNodeCrashChaos:
    """Cluster-level chaos: crash nodes mid-run, audit conservation.

    Every arrival must terminate exactly once (completed or accounted a
    cluster rejection) with no duplicate terminal outcomes — crash-lost
    work is resubmitted, never silently dropped or double-counted.
    """

    def _run(self, victims, seed=11, policy="round-robin", queue_depth=None):
        from collections import Counter

        from repro.scenarios import arm_scenario, get_policy, get_scenario

        horizon = 30.0
        spec = get_scenario(
            "cluster_overload",
            horizon=horizon,
            mpl=4,
            oltp_rate=20.0,
            bi_rate=1.2,
            max_queue_depth=queue_depth,
            crashes=tuple(
                ((15.0 + index) / horizon, victim, None)
                for index, victim in enumerate(victims)
            ),
        )
        result = arm_scenario(spec, get_policy(f"push/{policy}"), seed=seed)
        outcomes = Counter()
        result.dispatcher.add_completion_listener(
            lambda query: outcomes.update([query.query_id])
        )
        result.run(drain=300.0)
        return result.dispatcher, outcomes

    def _audit(self, dispatcher, outcomes):
        assert (
            dispatcher.completions + dispatcher.rejections == dispatcher.arrivals
        )
        assert dispatcher.outstanding_work() == 0
        assert sum(outcomes.values()) == dispatcher.arrivals
        assert [qid for qid, count in outcomes.items() if count > 1] == []

    def test_each_node_crash_conserves_queries(self):
        for victim in ("n0", "n1", "n2", "n3"):
            dispatcher, outcomes = self._run([victim])
            assert dispatcher.metrics.resubmissions >= 1, victim
            self._audit(dispatcher, outcomes)
            assert dispatcher.rejections == 0  # unbounded cluster queue

    def test_cascading_crashes_leave_one_survivor(self):
        dispatcher, outcomes = self._run(["n0", "n1", "n2"])
        self._audit(dispatcher, outcomes)
        survivor = dispatcher.node("n3")
        from repro.cluster import NodeHealth

        assert survivor.health is NodeHealth.UP
        assert dispatcher.metrics.resubmissions >= 3
        assert dispatcher.completions > 0

    def test_crash_with_bounded_queue_accounts_rejections(self):
        dispatcher, outcomes = self._run(
            ["n0", "n1", "n2"], queue_depth=5
        )
        self._audit(dispatcher, outcomes)

    def test_crashed_node_never_takes_new_placements(self):
        dispatcher, outcomes = self._run(["n1"])
        victim = dispatcher.node("n1")
        placed_at_crash = victim.placed_count
        assert victim.manager.running_count == 0
        assert victim.manager.queued_count == 0
        # the count never moved after the crash: re-run further and check
        dispatcher.sim.run_until(dispatcher.sim.now + 50.0)
        assert victim.placed_count == placed_at_crash
