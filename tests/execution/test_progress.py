"""Unit tests for query progress indicators."""

import pytest

from repro.core.manager import WorkloadManager
from repro.engine.resources import MachineSpec
from repro.execution.progress import (
    OperatorBoundaryProgressIndicator,
    OptimizerCostProgressIndicator,
    SpeedAwareProgressIndicator,
)

from tests.conftest import make_query, staged_plan


def _manager(sim):
    return WorkloadManager(
        sim, machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096)
    )


class TestSpeedAware:
    def test_work_done_matches_fluid_progress(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=10.0, io=0.0)
        manager.submit(query)
        sim.run_until(4.0)
        indicator = SpeedAwareProgressIndicator()
        assert indicator.work_done(query, manager) == pytest.approx(0.4)

    def test_remaining_seconds_from_current_speed(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=10.0, io=0.0)
        manager.submit(query)
        sim.run_until(4.0)
        indicator = SpeedAwareProgressIndicator()
        assert indicator.remaining_seconds(query, manager) == pytest.approx(
            6.0
        )

    def test_paused_query_infinite_remaining(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=10.0, io=0.0)
        manager.submit(query)
        sim.run_until(1.0)
        manager.engine.pause(query.query_id)
        indicator = SpeedAwareProgressIndicator()
        assert indicator.remaining_seconds(query, manager) == float("inf")

    def test_not_running_returns_none(self, sim):
        manager = _manager(sim)
        indicator = SpeedAwareProgressIndicator()
        assert indicator.remaining_seconds(make_query(), manager) is None


class TestOperatorBoundary:
    def test_progress_floored_to_boundary(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=10.0, io=0.0, plan=staged_plan())
        manager.submit(query)
        sim.run_until(4.0)  # fluid progress 0.4 -> inside op 1 (0.3..0.5)
        indicator = OperatorBoundaryProgressIndicator()
        assert indicator.work_done(query, manager) == pytest.approx(0.3)

    def test_remaining_extrapolates_observed_rate(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=10.0, io=0.0, plan=staged_plan())
        manager.submit(query)
        sim.run_until(5.0)  # boundary 0.5 reached at exactly t=5
        indicator = OperatorBoundaryProgressIndicator()
        remaining = indicator.remaining_seconds(query, manager)
        assert remaining == pytest.approx(5.0, rel=0.05)

    def test_before_first_boundary_falls_back_to_estimate(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=10.0, io=0.0, plan=staged_plan())
        manager.submit(query)
        sim.run_until(1.0)  # inside op 0
        indicator = OperatorBoundaryProgressIndicator()
        assert indicator.remaining_seconds(query, manager) == pytest.approx(
            10.0
        )


class TestOptimizerCost:
    def test_work_done_tracks_estimate(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=10.0, io=0.0)
        manager.submit(query)
        sim.run_until(5.0)
        indicator = OptimizerCostProgressIndicator()
        assert indicator.work_done(query, manager) == pytest.approx(0.5)

    def test_underestimated_query_reads_as_done(self, sim):
        """The classic failure: estimate 1s, reality 100s."""
        manager = _manager(sim)
        query = make_query(cpu=100.0, io=0.0, est_cpu=1.0)
        manager.submit(query)
        sim.run_until(2.0)
        indicator = OptimizerCostProgressIndicator()
        assert indicator.work_done(query, manager) == 1.0
        assert indicator.remaining_seconds(query, manager) == 0.0
        # whereas the speed-aware indicator knows better
        true_indicator = SpeedAwareProgressIndicator()
        assert true_indicator.work_done(query, manager) == pytest.approx(
            0.02
        )

    def test_zero_estimate_counts_as_done(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=1.0, io=0.0, est_cpu=0.0, est_io=0.0)
        indicator = OptimizerCostProgressIndicator()
        assert indicator.work_done(query, manager) == 1.0
