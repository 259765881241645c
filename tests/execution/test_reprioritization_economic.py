"""Tests for priority aging and economic resource allocation."""

import pytest

from repro.core.interfaces import decisions_by
from repro.core.manager import WorkloadManager
from repro.core.policy import Threshold, ThresholdAction, ThresholdKind
from repro.engine.resources import MachineSpec
from repro.errors import ConfigurationError
from repro.execution.economic import EconomicResourceAllocator
from repro.execution.reprioritization import (
    PriorityAgingController,
    ServiceClassLadder,
)

from tests.conftest import make_query


def _manager(sim, controllers, control_period=1.0, machine=None):
    return WorkloadManager(
        sim,
        machine=machine
        or MachineSpec(cpu_capacity=2, disk_capacity=2, memory_mb=4096),
        execution_controllers=controllers,
        control_period=control_period,
    )


class TestLadder:
    def test_default_ladder(self):
        ladder = ServiceClassLadder()
        assert ladder.top == "high"
        assert ladder.below("high") == "medium"
        assert ladder.below("low") is None
        assert ladder.weight_of("medium") == 2.0

    def test_weights_must_decrease(self):
        with pytest.raises(ConfigurationError):
            ServiceClassLadder(levels=(("a", 1.0), ("b", 2.0)))

    def test_needs_two_levels(self):
        with pytest.raises(ConfigurationError):
            ServiceClassLadder(levels=(("only", 1.0),))

    def test_unknown_level(self):
        with pytest.raises(KeyError):
            ServiceClassLadder().weight_of("nope")


class TestPriorityAging:
    def _controller(self, limit=2.0):
        return PriorityAgingController(
            thresholds=[
                Threshold(ThresholdKind.ELAPSED_TIME, limit, ThresholdAction.DEMOTE)
            ],
            demote_cooldown=1.5,
        )

    def test_long_runner_demoted_step_by_step(self, sim):
        controller = self._controller(limit=2.0)
        manager = _manager(sim, [controller])
        hog = make_query(cpu=60.0, io=0.0)
        manager.submit(hog)
        manager.run(horizon=3.0, drain=0.0)
        assert hog.service_class == "medium"
        assert hog.demotions == 1
        assert manager.engine.weight_of(hog.query_id) == 2.0
        demotions = decisions_by(
            manager.decisions, "PriorityAgingController", "demote"
        )
        assert [(e.query_id, e.detail) for e in demotions] == [
            (hog.query_id, "medium")
        ]

    def test_unobservable_kind_is_an_error_at_construction(self):
        with pytest.raises(ConfigurationError, match="concurrency"):
            PriorityAgingController(
                thresholds=[
                    Threshold(ThresholdKind.CONCURRENCY, 4.0, ThresholdAction.DEMOTE)
                ]
            )

    def test_memory_threshold_demotes(self, sim):
        # aging shares the kill controller's observer, MEMORY_MB included
        controller = PriorityAgingController(
            thresholds=[
                Threshold(ThresholdKind.MEMORY_MB, 100.0, ThresholdAction.DEMOTE)
            ]
        )
        manager = _manager(sim, [controller])
        big = make_query(cpu=60.0, io=0.0, mem=500.0)
        small = make_query(cpu=60.0, io=0.0, mem=50.0)
        manager.submit(big)
        manager.submit(small)
        manager.run(horizon=2.0, drain=0.0)
        assert big.demotions == 1 and small.demotions == 0

    def test_cooldown_limits_demotion_rate(self, sim):
        controller = self._controller(limit=0.5)
        manager = _manager(sim, [controller], control_period=0.5)
        hog = make_query(cpu=60.0, io=0.0)
        manager.submit(hog)
        manager.run(horizon=2.1, drain=0.0)
        # violations every 0.5s but cooldown 1.5s -> at most 2 demotions
        assert hog.demotions <= 2

    def test_stops_at_ladder_bottom(self, sim):
        controller = self._controller(limit=0.1)
        manager = _manager(sim, [controller], control_period=1.0)
        hog = make_query(cpu=600.0, io=0.0)
        manager.submit(hog)
        manager.run(horizon=20.0, drain=0.0)
        assert hog.service_class == "low"
        assert hog.demotions == 2

    def test_short_queries_untouched(self, sim):
        controller = self._controller(limit=5.0)
        manager = _manager(sim, [controller])
        short = make_query(cpu=0.5, io=0.0)
        manager.submit(short)
        manager.run(horizon=3.0, drain=0.0)
        assert short.demotions == 0

    def test_rows_returned_threshold(self, sim):
        controller = PriorityAgingController(
            thresholds=[
                Threshold(
                    ThresholdKind.ROWS_RETURNED, 100.0, ThresholdAction.DEMOTE
                )
            ]
        )
        manager = _manager(sim, [controller])
        # 10000 rows: crosses 100 returned rows at 1% progress
        chatty = make_query(cpu=30.0, io=0.0, rows=10_000)
        manager.submit(chatty)
        manager.run(horizon=2.0, drain=0.0)
        assert chatty.demotions >= 1

    def test_non_demote_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            PriorityAgingController(
                thresholds=[
                    Threshold(
                        ThresholdKind.ELAPSED_TIME,
                        1.0,
                        ThresholdAction.STOP_EXECUTION,
                    )
                ]
            )

    def test_demotion_frees_resources_for_others(self, sim):
        controller = self._controller(limit=1.0)
        manager = _manager(
            sim,
            [controller],
            machine=MachineSpec(cpu_capacity=1, disk_capacity=4, memory_mb=4096),
        )
        hog = make_query(cpu=30.0, io=0.0)
        manager.submit(hog)
        sim.run_until(2.5)  # hog demoted to medium (weight 2)
        newcomer = make_query(cpu=4.0, io=0.0, priority=4)
        manager.submit(newcomer)
        # weight 4 vs 2: newcomer gets 2/3 of the core
        assert manager.engine.speed_of(newcomer.query_id) == pytest.approx(
            (4 / 6) / 4.0
        )


class TestEconomicAllocation:
    def test_shares_track_importance(self, sim):
        allocator = EconomicResourceAllocator(importance={"gold": 3, "lead": 1})
        manager = _manager(
            sim,
            [allocator],
            machine=MachineSpec(cpu_capacity=1, disk_capacity=4, memory_mb=4096),
        )
        gold = make_query(cpu=50.0, io=0.0, sql="gold:q")
        lead = make_query(cpu=50.0, io=0.0, sql="lead:q")
        manager.submit(gold)
        manager.submit(lead)
        manager.run(horizon=2.0, drain=0.0)
        gold_weight = manager.engine.weight_of(gold.query_id)
        lead_weight = manager.engine.weight_of(lead.query_id)
        assert gold_weight / lead_weight == pytest.approx(3.0)
        assert manager.engine.speed_of(gold.query_id) == pytest.approx(
            3.0 * manager.engine.speed_of(lead.query_id)
        )

    def test_wealth_splits_across_workload_queries(self, sim):
        allocator = EconomicResourceAllocator(importance={"gold": 2, "lead": 2})
        manager = _manager(sim, [allocator])
        queries = [make_query(cpu=50.0, io=0.0, sql="gold:q") for _ in range(2)]
        queries.append(make_query(cpu=50.0, io=0.0, sql="lead:q"))
        for query in queries:
            manager.submit(query)
        manager.run(horizon=2.0, drain=0.0)
        # gold's wealth is split over 2 queries -> each gets half of lead's
        gold_each = manager.engine.weight_of(queries[0].query_id)
        lead_each = manager.engine.weight_of(queries[2].query_id)
        assert lead_each / gold_each == pytest.approx(2.0)

    def test_policy_change_reallocates_at_next_tick(self, sim):
        allocator = EconomicResourceAllocator(importance={"a": 1, "b": 1})
        manager = _manager(sim, [allocator])
        a = make_query(cpu=50.0, io=0.0, sql="a:q")
        b = make_query(cpu=50.0, io=0.0, sql="b:q")
        manager.submit(a)
        manager.submit(b)
        sim.run_until(1.0)
        assert manager.engine.weight_of(a.query_id) == pytest.approx(
            manager.engine.weight_of(b.query_id)
        )
        allocator.set_importance("a", 4)
        sim.run_until(2.0)
        assert manager.engine.weight_of(a.query_id) == pytest.approx(
            4.0 * manager.engine.weight_of(b.query_id)
        )

    def test_importance_falls_back_to_sla(self, sim):
        from repro.core.sla import SLASet, response_time_sla

        allocator = EconomicResourceAllocator()
        manager = WorkloadManager(
            sim,
            machine=MachineSpec(cpu_capacity=2, disk_capacity=2, memory_mb=4096),
            execution_controllers=[allocator],
            slas=SLASet([response_time_sla("vip", average=1.0, importance=5)]),
        )
        vip = make_query(cpu=50.0, io=0.0, sql="vip:q")
        pleb = make_query(cpu=50.0, io=0.0, sql="pleb:q")
        manager.submit(vip)
        manager.submit(pleb)
        manager.run(horizon=1.0, drain=0.0)
        assert manager.engine.weight_of(vip.query_id) == pytest.approx(
            5.0 * manager.engine.weight_of(pleb.query_id)
        )

    def test_history_recorded(self, sim):
        allocator = EconomicResourceAllocator(importance={"a": 1})
        manager = _manager(sim, [allocator])
        manager.submit(make_query(cpu=10.0, io=0.0, sql="a:q"))
        manager.run(horizon=2.0, drain=0.0)
        assert decisions_by(
            manager.decisions, "EconomicResourceAllocator", "allocate"
        )
        assert allocator.workload_share("a") is not None

    def test_invalid_importance(self):
        allocator = EconomicResourceAllocator()
        with pytest.raises(ValueError):
            allocator.set_importance("x", 0)

    def test_idle_system_noop(self, sim):
        allocator = EconomicResourceAllocator()
        manager = _manager(sim, [allocator])
        manager.run(horizon=2.0, drain=0.0)
        assert decisions_by(manager.decisions, "EconomicResourceAllocator") == []
        assert allocator.workload_share("a") is None
