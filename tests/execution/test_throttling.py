"""Tests for utility and query throttling."""

import pytest

from repro.core.interfaces import decisions_by
from repro.core.manager import WorkloadManager
from repro.engine.query import QueryState, StatementType
from repro.engine.resources import MachineSpec
from repro.errors import ConfigurationError
from repro.execution.throttling import (
    QueryThrottlingController,
    ThrottleMethod,
    UtilityThrottlingController,
)

from tests.conftest import make_query


def _manager(sim, controllers, machine=None, control_period=1.0, slas=None):
    # Neutral weights: throttling is studied in isolation from the
    # priority-based fair sharing that would otherwise mask it.
    return WorkloadManager(
        sim,
        machine=machine
        or MachineSpec(cpu_capacity=1, disk_capacity=2, memory_mb=4096),
        execution_controllers=controllers,
        control_period=control_period,
        slas=slas,
        weight_fn=lambda q: 1.0,
    )


class TestUtilityThrottling:
    def test_utilities_throttled_when_production_degrades(self, sim):
        controller = UtilityThrottlingController(
            degradation_target=0.1, baseline_velocity=0.9
        )
        manager = _manager(
            sim,
            [controller],
            machine=MachineSpec(cpu_capacity=2, disk_capacity=1, memory_mb=4096),
        )
        utility = make_query(
            cpu=5.0, io=50.0, statement_type=StatementType.UTILITY, sql="utilities:backup"
        )
        manager.submit(utility)
        production = make_query(cpu=0.0, io=20.0, sql="prod:q", priority=3)
        manager.submit(production)
        manager.run(horizon=10.0, drain=0.0)
        assert controller.throttle_level > 0.0
        assert manager.engine.throttle_of(utility.query_id) < 1.0
        # production is never throttled
        assert manager.engine.throttle_of(production.query_id) == 1.0

    def test_no_throttle_when_production_healthy(self, sim):
        controller = UtilityThrottlingController(
            degradation_target=0.5, baseline_velocity=0.5
        )
        manager = _manager(
            sim,
            [controller],
            machine=MachineSpec(cpu_capacity=8, disk_capacity=8, memory_mb=4096),
        )
        manager.submit(make_query(cpu=10.0, io=0.0, sql="prod:q"))
        manager.submit(
            make_query(
                cpu=10.0,
                io=0.0,
                statement_type=StatementType.UTILITY,
                sql="utilities:backup",
            )
        )
        manager.run(horizon=5.0, drain=0.0)
        assert controller.throttle_level == pytest.approx(0.0, abs=0.05)

    def test_workload_name_marks_utility(self, sim):
        controller = UtilityThrottlingController(utility_workloads=("maint",))
        query = make_query(sql="maint:reorg")
        query.workload_name = "maint"
        assert controller._is_utility(query)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UtilityThrottlingController(baseline_velocity=0.0)

    def test_throttle_level_history_recorded(self, sim):
        controller = UtilityThrottlingController()
        manager = _manager(sim, [controller])
        manager.submit(make_query(cpu=10.0, io=0.0, sql="prod:q"))
        manager.run(horizon=3.0, drain=0.0)
        levels = decisions_by(
            manager.decisions, "UtilityThrottlingController", "throttle"
        )
        assert len(levels) == 3


class TestQueryThrottlingStep:
    def test_large_low_priority_query_throttled(self, sim):
        controller = QueryThrottlingController(
            velocity_goal=0.7,
            protected_priority=3,
            max_victim_priority=1,
            large_query_work=5.0,
            controller="step",
        )
        manager = _manager(sim, [controller])
        big = make_query(cpu=100.0, io=0.0, priority=1)
        manager.submit(big)
        vip = make_query(cpu=30.0, io=0.0, priority=3)
        manager.submit(vip)  # equal weights: vip at half speed -> 0.5 < 0.7
        manager.run(horizon=15.0, drain=0.0)
        assert controller.throttle_level > 0.0
        assert manager.engine.throttle_of(big.query_id) < 1.0
        assert manager.engine.throttle_of(vip.query_id) == 1.0

    def test_throttling_restores_protected_velocity(self, sim):
        controller = QueryThrottlingController(
            velocity_goal=0.7, controller="step", large_query_work=5.0
        )
        manager = _manager(sim, [controller], control_period=0.5)
        big = make_query(cpu=200.0, io=0.0, priority=1)
        manager.submit(big)
        vip = make_query(cpu=20.0, io=0.0, priority=3)
        manager.submit(vip)
        manager.run(horizon=60.0, drain=0.0)
        assert vip.state is QueryState.COMPLETED
        # with the big query throttled hard, vip runs near full speed
        # after the controller converges; velocity comfortably above the
        # no-control value of ~0.5 (equal weights)
        assert vip.execution_velocity(sim.now) > 0.55

    def test_small_queries_not_victims(self, sim):
        controller = QueryThrottlingController(
            large_query_work=50.0, controller="step"
        )
        manager = _manager(sim, [controller])
        small = make_query(cpu=5.0, io=0.0, priority=1)
        vip = make_query(cpu=100.0, io=0.0, priority=3)
        manager.submit(small)
        manager.submit(vip)
        manager.run(horizon=5.0, drain=0.0)
        assert manager.engine.throttle_of(small.query_id) == 1.0

    def test_invalid_controller_kind(self):
        with pytest.raises(ConfigurationError):
            QueryThrottlingController(controller="pid")


class TestQueryThrottlingBlackBox:
    def test_blackbox_converges_toward_goal(self, sim):
        controller = QueryThrottlingController(
            velocity_goal=0.7, controller="blackbox", large_query_work=5.0
        )
        manager = _manager(sim, [controller], control_period=1.0)
        big = make_query(cpu=300.0, io=0.0, priority=1)
        vip = make_query(cpu=100.0, io=0.0, priority=3)
        manager.submit(big)
        manager.submit(vip)
        manager.run(horizon=40.0, drain=0.0)
        assert controller.throttle_level > 0.0
        levels = decisions_by(
            manager.decisions, "QueryThrottlingController", "throttle"
        )
        assert len(levels) >= 30


class TestInterruptThrottle:
    def test_interrupt_pauses_then_resumes(self, sim):
        controller = QueryThrottlingController(
            velocity_goal=0.9,
            controller="step",
            method=ThrottleMethod.INTERRUPT,
            large_query_work=5.0,
        )
        manager = _manager(sim, [controller], control_period=1.0)
        big = make_query(cpu=100.0, io=0.0, priority=1)
        vip = make_query(cpu=20.0, io=0.0, priority=3)
        manager.submit(big)
        manager.submit(vip)
        sim.run_until(1.0)  # first control tick -> pause scheduled
        assert manager.engine.throttle_of(big.query_id) == 0.0
        manager.run(horizon=10.0, drain=0.0)
        # the pause ended: big is either resumed or re-paused by a later
        # tick, but it made progress in between
        assert manager.engine.progress_of(big.query_id) > 0.0
