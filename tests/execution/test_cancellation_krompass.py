"""Tests for query kill rules and the fuzzy execution controller."""

import pytest

from repro.core.interfaces import decisions_by
from repro.core.manager import WorkloadManager
from repro.core.policy import Threshold, ThresholdAction, ThresholdKind
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.errors import ConfigurationError
from repro.execution.cancellation import (
    KillRule,
    QueryKillController,
    elapsed_time_kill,
)
from repro.execution.krompass import FuzzyExecutionController, _ramp

from tests.conftest import make_query


def _manager(sim, controllers, control_period=1.0):
    return WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096),
        execution_controllers=controllers,
        control_period=control_period,
    )


class TestKillRules:
    def test_long_runner_killed(self, sim):
        controller = QueryKillController([elapsed_time_kill(limit=5.0)])
        manager = _manager(sim, [controller])
        hog = make_query(cpu=100.0, io=0.0)
        manager.submit(hog)
        manager.run(horizon=7.0, drain=0.0)
        assert hog.state is QueryState.KILLED
        assert decisions_by(manager.decisions, "QueryKillController", "kill")
        assert manager.metrics.stats_for(None).kills == 1

    def test_short_queries_spared(self, sim):
        controller = QueryKillController([elapsed_time_kill(limit=5.0)])
        manager = _manager(sim, [controller])
        ok = make_query(cpu=2.0, io=0.0)
        manager.submit(ok)
        manager.run(horizon=7.0, drain=0.0)
        assert ok.state is QueryState.COMPLETED

    def test_kill_and_resubmit_restarts_the_same_request(self, sim):
        # eight requests share four CPUs at half speed, so the 1.5 s hog
        # crosses the 1.8 s limit at the t = 2 tick; it re-enters at t = 6,
        # when the fillers are done, on a fresh clock, and its second
        # attempt runs alone in 1.5 s, under the limit
        controller = QueryKillController(
            [elapsed_time_kill(limit=1.8, resubmit=True, resubmit_delay=4.0, max_priority=1)]
        )
        manager = _manager(sim, [controller])
        notified = []
        manager.add_completion_listener(notified.append)
        hog = make_query(cpu=1.5, io=0.0)
        fillers = [make_query(cpu=3.0, io=0.0, priority=2) for _ in range(7)]
        for query in [hog, *fillers]:
            manager.submit(query)
        manager.run(horizon=12.0, drain=0.0)
        restarts = decisions_by(manager.decisions, "QueryKillController")
        assert [(e.time, e.action, e.query_id) for e in restarts] == [
            (2.0, "kill_and_resubmit", hog.query_id)
        ]
        assert hog.state is QueryState.COMPLETED and hog.restarts == 1
        assert hog.start_time == pytest.approx(6.0)
        assert hog.end_time == pytest.approx(7.5)
        # the client waited through both attempts and hears one outcome
        assert hog.response_time == pytest.approx(7.5)
        assert [q for q in notified if q is hog] == [hog]
        assert all(q.state is QueryState.COMPLETED for q in fillers)
        # one submission per attempt; the lost attempt is an abort
        assert manager.submitted_count == len(fillers) + 2
        stats = manager.metrics.stats_for(None)
        assert (stats.completions, stats.kills, stats.aborts) == (8, 0, 1)

    @pytest.mark.parametrize(
        "action, outcome",
        [
            (ThresholdAction.KILL_AND_RESUBMIT, "kill_and_resubmit"),
            (ThresholdAction.STOP_EXECUTION, "kill"),
        ],
    )
    def test_the_threshold_action_is_the_disposition(self, sim, action, outcome):
        rule = KillRule(Threshold(ThresholdKind.ELAPSED_TIME, 1.0, action), resubmit_delay=0.5)
        manager = _manager(sim, [QueryKillController([rule])])
        hog = make_query(cpu=100.0, io=0.0)
        manager.submit(hog)
        manager.run(horizon=2.5, drain=0.0)
        first = decisions_by(manager.decisions, "QueryKillController")[0]
        assert (first.action, first.query_id) == (outcome, hog.query_id)
        stats = manager.metrics.stats_for(None)
        if action is ThresholdAction.STOP_EXECUTION:
            assert hog.state is QueryState.KILLED and stats.kills == 1
        else:
            assert hog.restarts >= 1 and stats.kills == 0
            assert stats.aborts == hog.restarts

    def test_unobservable_kind_is_an_error_at_construction(self):
        # ESTIMATED_COST is judged at arrival (admission); a kill rule on
        # it used to be accepted and then never fire
        threshold = Threshold(
            ThresholdKind.ESTIMATED_COST, 1.0, ThresholdAction.STOP_EXECUTION
        )
        with pytest.raises(ConfigurationError, match="estimated_cost"):
            KillRule(threshold)

    def test_priority_guard(self, sim):
        controller = QueryKillController(
            [elapsed_time_kill(limit=2.0, max_priority=1)]
        )
        manager = _manager(sim, [controller])
        vip = make_query(cpu=10.0, io=0.0, priority=3)
        peasant = make_query(cpu=10.0, io=0.0, priority=1)
        manager.submit(vip)
        manager.submit(peasant)
        manager.run(horizon=5.0, drain=30.0)
        assert peasant.state is QueryState.KILLED
        assert vip.state is QueryState.COMPLETED

    def test_progress_guard_spares_nearly_done(self, sim):
        controller = QueryKillController(
            [elapsed_time_kill(limit=5.0, spare_over_progress=0.8)]
        )
        manager = _manager(sim, [controller])
        # 6s query: at the 5s threshold it is 83% done -> spared (§5.2)
        nearly = make_query(cpu=6.0, io=0.0)
        manager.submit(nearly)
        manager.run(horizon=8.0, drain=0.0)
        assert nearly.state is QueryState.COMPLETED

    def test_cpu_time_threshold(self, sim):
        rule = KillRule(
            threshold=Threshold(
                ThresholdKind.CPU_TIME, 2.0, ThresholdAction.STOP_EXECUTION
            )
        )
        controller = QueryKillController([rule])
        manager = _manager(sim, [controller])
        burner = make_query(cpu=10.0, io=0.0)
        manager.submit(burner)
        manager.run(horizon=5.0, drain=0.0)
        assert burner.state is QueryState.KILLED

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            QueryKillController([])
        with pytest.raises(ConfigurationError):
            KillRule(
                threshold=Threshold(
                    ThresholdKind.ELAPSED_TIME, 1.0, ThresholdAction.DEMOTE
                )
            )


class TestFuzzyRamp:
    def test_ramp_shape(self):
        assert _ramp(0.0, 1.0, 2.0) == 0.0
        assert _ramp(1.5, 1.0, 2.0) == pytest.approx(0.5)
        assert _ramp(3.0, 1.0, 2.0) == 1.0

    def test_degenerate_ramp(self):
        assert _ramp(5.0, 2.0, 2.0) == 1.0
        assert _ramp(1.0, 2.0, 2.0) == 0.0


class TestFuzzyController:
    def _controller(self):
        return FuzzyExecutionController(
            long_running_onset=2.0, long_running_full=10.0, max_priority=2
        )

    def test_assessment_components(self, sim):
        controller = self._controller()
        manager = _manager(sim, [controller])
        hog = make_query(cpu=200.0, io=0.0, priority=1)
        manager.submit(hog)
        sim.run_until(6.0)
        assessment = controller.assess(hog, manager)
        assert 0.0 < assessment.long_running < 1.0
        assert assessment.low_priority == 1.0
        assert assessment.little_progress > 0.9
        assert assessment.score > 0.0

    def test_high_priority_never_touched(self, sim):
        controller = self._controller()
        manager = _manager(sim, [controller])
        vip = make_query(cpu=500.0, io=0.0, priority=3)
        manager.submit(vip)
        manager.run(horizon=30.0, drain=0.0)
        assert vip.state is QueryState.RUNNING
        assert decisions_by(manager.decisions, "FuzzyExecutionController") == []

    def test_problem_query_is_stopped(self, sim):
        controller = self._controller()
        manager = _manager(sim, [controller])
        hog = make_query(cpu=2000.0, io=0.0, priority=1)
        manager.submit(hog)
        manager.run(horizon=120.0, drain=0.0)
        stops = [
            (event.action, event.query_id)
            for event in decisions_by(manager.decisions, "FuzzyExecutionController")
            if event.action in ("kill", "kill_and_resubmit")
        ]
        # each restart lowers the kill edge by 0.1: the first three
        # attempts' rising scores meet the resubmit band first, the
        # fourth's meets the kill edge (0.55) below it
        assert stops == [("kill_and_resubmit", hog.query_id)] * 3 + [
            ("kill", hog.query_id)
        ]
        assert hog.restarts == 3
        assert hog.state is QueryState.KILLED
        assert manager.metrics.stats_for(hog.workload_name).kills == 1

    def test_first_attempt_in_resubmit_band_is_restarted(self, sim):
        controller = self._controller()
        manager = _manager(sim, [controller])
        hog = make_query(cpu=2000.0, io=0.0, priority=1)
        manager.submit(hog)
        manager.run(horizon=10.0, drain=0.0)
        decisions = manager.decisions
        assert decisions_by(decisions, "FuzzyExecutionController", "kill") == []
        (stop,) = decisions_by(decisions, "FuzzyExecutionController", "kill_and_resubmit")
        assert controller.resubmit_band[0] <= stop.detail < controller.resubmit_band[1]
        assert hog.restarts == 1

    def test_moderate_problem_reprioritized_first(self, sim):
        controller = FuzzyExecutionController(
            long_running_onset=1.0,
            long_running_full=100.0,
            reprioritize_band=(0.05, 0.6),
            resubmit_band=(0.9, 0.95),
            max_priority=2,
        )
        manager = _manager(sim, [controller])
        hog = make_query(cpu=100.0, io=0.0, priority=1)
        manager.submit(hog)
        manager.run(horizon=20.0, drain=0.0)
        assert decisions_by(
            manager.decisions, "FuzzyExecutionController", "reprioritize"
        )
        assert manager.engine.weight_of(hog.query_id) < 1.0

    def test_reprioritization_bounded(self, sim):
        controller = FuzzyExecutionController(
            long_running_onset=0.5,
            long_running_full=50.0,
            reprioritize_band=(0.01, 0.6),
            resubmit_band=(0.95, 0.99),
        )
        manager = _manager(sim, [controller], control_period=0.5)
        hog = make_query(cpu=1000.0, io=0.0, priority=1)
        manager.submit(hog)
        manager.run(horizon=30.0, drain=0.0)
        halvings = decisions_by(
            manager.decisions, "FuzzyExecutionController", "reprioritize"
        )
        assert len(halvings) <= 3
        assert manager.engine.weight_of(hog.query_id) >= 0.05
