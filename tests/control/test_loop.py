"""Tests for the MAPE autonomic loop (§5.3)."""

from repro.control.loop import (
    AnalyzeStage,
    AutonomicLoop,
    LoopAction,
    MonitorStage,
    PlanStage,
)
from repro.core.interfaces import decisions_by
from repro.core.manager import WorkloadManager
from repro.core.sla import SLASet, response_time_sla
from repro.engine.resources import MachineSpec

from tests.conftest import make_query


def _manager(sim, loop=None, slas=None):
    return WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=1, disk_capacity=2, memory_mb=4096),
        execution_controllers=[loop] if loop else [],
        slas=(
            slas
            if slas is not None
            else SLASet([response_time_sla("gold", average=2.0, importance=4)])
        ),
        control_period=1.0,
        weight_fn=lambda q: 1.0,
    )


class TestMonitor:
    def test_observations_capture_state(self, sim):
        manager = _manager(sim)
        manager.submit(make_query(cpu=10.0, io=0.0, sql="gold:q"))
        observations = MonitorStage().observe(manager)
        assert observations.running == 1
        assert observations.attainment["gold"] == 0.0  # nothing completed


class TestAnalyze:
    def test_problematic_query_detected(self, sim):
        manager = _manager(sim)
        hog = make_query(cpu=50.0, io=0.0, priority=1)
        manager.submit(hog)
        sim.run_until(6.0)
        observations = MonitorStage().observe(manager)
        symptoms = AnalyzeStage(problem_age=5.0).analyze(
            observations, manager
        )
        assert symptoms.missing_workloads == ["gold"]
        assert [q.query_id for q in symptoms.problematic] == [hog.query_id]

    def test_young_or_high_priority_not_problematic(self, sim):
        manager = _manager(sim)
        vip = make_query(cpu=50.0, io=0.0, priority=4)
        manager.submit(vip)
        sim.run_until(6.0)
        observations = MonitorStage().observe(manager)
        symptoms = AnalyzeStage().analyze(observations, manager)
        assert symptoms.problematic == []

    def test_nearly_done_excluded(self, sim):
        manager = _manager(sim)
        almost = make_query(cpu=10.0, io=0.0, priority=1)
        manager.submit(almost)
        sim.run_until(9.5)
        observations = MonitorStage().observe(manager)
        symptoms = AnalyzeStage(problem_age=1.0, problem_work=1.0).analyze(
            observations, manager
        )
        assert symptoms.problematic == []


class TestPlan:
    def test_no_misses_means_release_or_none(self, sim):
        manager = _manager(sim, slas=SLASet([]))
        planner = PlanStage()
        observations = MonitorStage().observe(manager)
        symptoms = AnalyzeStage().analyze(observations, manager)
        action = planner.plan(symptoms, manager)
        assert action in (LoopAction.RELEASE, LoopAction.NONE)

    def test_kill_disfavoured_for_nearly_done_victims(self, sim):
        manager = _manager(sim)
        victim = make_query(cpu=30.0, io=0.0, priority=1)
        manager.submit(victim)
        sim.run_until(25.0)  # victim > 80% done
        observations = MonitorStage().observe(manager)
        symptoms = AnalyzeStage(problem_age=1.0).analyze(
            observations, manager
        )
        if symptoms.problematic:
            utilities = PlanStage().action_utilities(symptoms, manager)
            assert (
                utilities[LoopAction.KILL_AND_RESUBMIT]
                < utilities[LoopAction.SUSPEND]
            )


class TestLoopEndToEnd:
    def test_loop_protects_gold_workload(self, sim):
        loop = AutonomicLoop()
        manager = _manager(sim, loop=loop)
        hog = make_query(cpu=500.0, io=0.0, priority=1, sql="adhoc:hog")
        manager.submit(hog)
        sim.run_until(6.0)
        # a stream of gold queries that would miss their 2s goal at
        # half speed (nominal 1.5s each)
        for index in range(10):
            sim.schedule_at(
                6.0 + index * 2.0,
                lambda: manager.submit(
                    make_query(cpu=1.5, io=0.0, priority=4, sql="gold:q")
                ),
            )
        manager.run(horizon=30.0, drain=10.0)
        # the loop acted on the hog...
        assert decisions_by(manager.decisions, "AutonomicLoop")
        actions = loop.actions_taken()
        assert any(
            action is not LoopAction.NONE for action in actions
        )
        # ...and gold mostly meets its goal
        stats = manager.metrics.stats_for("gold")
        assert stats.completions >= 8
        assert stats.mean_response_time() < 2.0

    def test_release_undoes_controls_when_goals_met(self, sim):
        loop = AutonomicLoop()
        manager = _manager(sim, loop=loop, slas=SLASet([]))
        throttled = make_query(cpu=20.0, io=0.0)
        manager.submit(throttled)
        manager.engine.set_throttle(throttled.query_id, 0.3)
        manager.run(horizon=2.0, drain=0.0)
        # with no goals (nothing missing), the loop releases controls
        assert manager.engine.throttle_of(throttled.query_id) == 1.0

    def test_release_with_nothing_to_release_records_nothing(self, sim):
        loop = AutonomicLoop()
        manager = _manager(sim, loop=loop, slas=SLASet([]))
        manager.submit(make_query(cpu=20.0, io=0.0))
        manager.run(horizon=5.0, drain=0.0)
        # no goals: the planner picks RELEASE every tick, and nothing is
        # suspended or throttled, so no tick is a decision
        assert loop.planner.plan(
            loop.analyzer.analyze(loop.monitor.observe(manager), manager),
            manager,
        ) is LoopAction.RELEASE
        assert decisions_by(manager.decisions, "AutonomicLoop") == []
        assert loop.actions_taken() == {}

    def test_release_of_a_throttle_is_one_decision(self, sim):
        loop = AutonomicLoop()
        manager = _manager(sim, loop=loop, slas=SLASet([]))
        throttled = make_query(cpu=20.0, io=0.0)
        manager.submit(throttled)
        manager.engine.set_throttle(throttled.query_id, 0.3)
        manager.run(horizon=5.0, drain=0.0)
        (event,) = decisions_by(manager.decisions, "AutonomicLoop")
        assert (event.action, event.query_id) == ("release", throttled.query_id)
        assert loop.actions_taken() == {LoopAction.RELEASE: 1}

    def test_decision_log_shape(self, sim):
        loop = AutonomicLoop()
        manager = _manager(sim, loop=loop)
        manager.submit(make_query(cpu=100.0, io=0.0, priority=1))
        manager.run(horizon=8.0, drain=0.0)
        for event in decisions_by(manager.decisions, "AutonomicLoop"):
            assert event.action in {action.value for action in LoopAction}
