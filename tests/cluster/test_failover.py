"""Failover tests: fault schedules, crash recovery, recover-to-service."""

import pytest

from repro.cluster import (
    ClusterDispatcher,
    ClusterNode,
    FaultEvent,
    FaultKind,
    NodeHealth,
    make_policy,
)
from repro.core.interfaces import decisions_by
from repro.engine.query import QueryState
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.execution.cancellation import QueryKillController, elapsed_time_kill

from tests.conftest import make_query


def _kill(node, at, recover_at=None):
    events = [FaultEvent(at, node, FaultKind.CRASH)]
    if recover_at is not None:
        events.append(FaultEvent(recover_at, node, FaultKind.RECOVER))
    return events


def _cluster(seed=5, count=2, mpl=2):
    sim = Simulator(seed=seed)
    nodes = [ClusterNode(sim, name=f"n{i}", mpl=mpl) for i in range(count)]
    dispatcher = ClusterDispatcher(
        sim, nodes, placement=make_policy("round-robin")
    )
    return sim, dispatcher


class TestFaultValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(-1.0, "n0", FaultKind.CRASH)

    def test_degrade_factor_validated(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(1.0, "n0", FaultKind.DEGRADE, factor=2.0)

    def test_unknown_node_rejected_at_arm_time(self):
        _, dispatcher = _cluster()
        with pytest.raises(ConfigurationError, match=r"'ghost'.*n0.*n1"):
            dispatcher.arm_faults(_kill("ghost", at=1.0))

    def test_rejected_schedule_arms_nothing(self):
        # the unknown name comes after a valid crash: the whole schedule
        # is refused before any of it reaches the clock
        sim, dispatcher = _cluster()
        pending = len(sim._queue)
        with pytest.raises(ConfigurationError, match="'ghost'"):
            dispatcher.arm_faults(
                [FaultEvent(5.0, "n0", FaultKind.CRASH), FaultEvent(6.0, "ghost", FaultKind.CRASH)]
            )
        assert len(sim._queue) == pending
        sim.run_until(10.0)
        assert [node.health for node in dispatcher.nodes] == [NodeHealth.UP, NodeHealth.UP]
        assert not decisions_by(dispatcher.metrics.decisions, "ClusterDispatcher", "crash")

    def test_faults_arm_in_list_order_under_their_labels(self):
        # same-instant faults keep the order they are listed in
        sim, dispatcher = _cluster()
        dispatcher.arm_faults(
            [
                FaultEvent(1.0, "n1", FaultKind.DEGRADE, factor=0.5),
                FaultEvent(1.0, "n0", FaultKind.CRASH),
            ]
        )
        faults = sorted(entry for entry in sim._queue if entry[2].label.startswith("fault:"))
        assert [event.label for *_, event in faults] == ["fault:degrade:n1", "fault:crash:n0"]
        dispatcher.shutdown()

    def test_an_empty_schedule_arms_nothing(self):
        sim, dispatcher = _cluster()
        pending = len(sim._queue)
        dispatcher.arm_faults(())
        assert len(sim._queue) == pending

    def test_a_fault_is_recorded_before_the_dispatcher_acts(self):
        sim, dispatcher = _cluster()
        crash = FaultEvent(1.0, "n0", FaultKind.CRASH)
        dispatcher.arm_faults([crash])
        sim.run_until(1.5)
        *_, fault, health = dispatcher.metrics.decisions
        assert (fault.controller, fault.action, fault.detail) == ("ClusterDispatcher", "crash", crash)
        assert health.action == "health" and health.detail["health"] is NodeHealth.DOWN
        dispatcher.shutdown()


class TestCrashRecovery:
    def test_in_flight_work_is_resubmitted_and_completes(self):
        sim, dispatcher = _cluster()
        long_query = make_query(cpu=20.0, io=0.0, sql="bi:q")
        dispatcher.submit(long_query)  # -> n0
        dispatcher.arm_faults(_kill("n0", at=2.0))
        dispatcher.run(3.0, drain=120.0)
        assert dispatcher.metrics.resubmissions == 1
        assert long_query.state is QueryState.COMPLETED
        assert long_query.restarts == 1
        assert dispatcher.node("n1").placed_count == 1  # finished elsewhere

    def test_queued_work_is_evacuated_without_restart_penalty(self):
        sim, dispatcher = _cluster(count=2, mpl=1)
        # saturate n0: one running + one queued behind it
        running = make_query(cpu=20.0, io=0.0, sql="bi:q")
        queued = make_query(cpu=0.5, io=0.0, sql="oltp:q")
        dispatcher.submit(running)   # n0 running
        other = make_query(cpu=20.0, io=0.0, sql="bi:q")
        dispatcher.submit(other)     # n1 running
        dispatcher.submit(queued)    # n0's local queue
        assert dispatcher.node("n0").queued == 1
        dispatcher.arm_faults(_kill("n0", at=1.0))
        dispatcher.run(2.0, drain=200.0)
        assert queued.state is QueryState.COMPLETED
        assert queued.restarts == 0          # never started: no restart
        assert running.restarts == 1         # lost mid-flight: restarted
        assert dispatcher.completions == 3

    def test_a_crash_loss_is_an_abort_and_a_kill_is_the_controllers(self):
        sim, dispatcher = _cluster()
        n0 = dispatcher.node("n0")
        n0.manager.add_execution_controller(QueryKillController([elapsed_time_kill(1.5)]))
        hog = make_query(cpu=50.0, io=0.0, sql="bi:q")
        dispatcher.submit(hog)                                     # -> n0
        dispatcher.submit(make_query(cpu=0.5, io=0.0, sql="bi:q"))  # -> n1
        lost = make_query(cpu=5.0, io=0.0, sql="bi:q")
        sim.schedule_at(2.5, lambda: dispatcher.submit(lost))      # -> n0
        dispatcher.arm_faults(_kill("n0", at=3.0))
        dispatcher.run(3.0, drain=60.0)
        assert hog.state is QueryState.KILLED
        assert lost.state is QueryState.COMPLETED and lost.restarts == 1
        stats = n0.manager.metrics.stats_for("bi")
        assert (stats.kills, stats.aborts) == (1, 1)
        assert dispatcher.resubmissions == 1
        roll = dispatcher.metrics.rollup("bi")
        assert (roll.completions, roll.kills, roll.aborts) == (2, 1, 1)

    def test_recovered_node_takes_placements_again(self):
        sim, dispatcher = _cluster()
        dispatcher.arm_faults(_kill("n0", at=1.0, recover_at=2.0))
        sim.run_until(3.0)
        node = dispatcher.node("n0")
        assert node.health is NodeHealth.UP
        before = node.placed_count
        dispatcher.submit(make_query(cpu=0.1, io=0.0, sql="oltp:q"))
        dispatcher.submit(make_query(cpu=0.1, io=0.0, sql="oltp:q"))
        assert node.placed_count > before
        dispatcher.run(3.0, drain=30.0)
        assert dispatcher.completions == dispatcher.arrivals

    def test_degrade_and_recover_fire_in_order(self):
        sim, dispatcher = _cluster()
        dispatcher.arm_faults(
            (
                FaultEvent(1.0, "n1", FaultKind.DEGRADE, factor=0.5),
                FaultEvent(3.0, "n1", FaultKind.RECOVER),
                FaultEvent(4.0, "n1", FaultKind.DEGRADE, factor=1.0),
            )
        )
        node = dispatcher.node("n1")
        sim.run_until(1.5)
        assert node.speed_factor == 0.5
        sim.run_until(3.5)
        assert node.health is NodeHealth.UP and node.speed_factor == 0.5
        sim.run_until(4.5)
        assert node.health is NodeHealth.UP and node.speed_factor == 1.0
        fired = [
            e for e in decisions_by(dispatcher.metrics.decisions, "ClusterDispatcher")
            if e.action in ("crash", "degrade", "recover")
        ]
        assert [e.action for e in fired] == ["degrade", "recover", "degrade"]
        assert fired[0].detail == FaultEvent(1.0, "n1", FaultKind.DEGRADE, factor=0.5)
        dispatcher.shutdown()

    def test_crash_is_deterministic_across_runs(self):
        def run_once():
            sim, dispatcher = _cluster(seed=13)
            for index in range(20):
                query = make_query(cpu=1.0, io=0.5, sql="oltp:q")
                sim.schedule_at(
                    0.3 * index, lambda q=query: dispatcher.submit(q)
                )
            dispatcher.arm_faults(_kill("n0", at=3.0))
            dispatcher.run(6.0, drain=120.0)
            return (
                dispatcher.completions,
                dispatcher.resubmissions,
                [node.placed_count for node in dispatcher.nodes],
            )

        assert run_once() == run_once()
