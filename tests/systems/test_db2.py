"""Tests for the IBM DB2 Workload Manager model."""

import pytest

from repro.core.policy import ThresholdAction, ThresholdKind
from repro.engine.query import QueryState, StatementType
from repro.engine.resources import MachineSpec
from repro.engine.sessions import ConnectionAttributes
from repro.errors import ConfigurationError
from repro.systems.db2 import (
    DB2ServiceClass,
    DB2Threshold,
    DB2Workload,
    DB2WorkClass,
    DB2WorkloadManagerConfig,
)

from tests.conftest import make_query


def _config():
    return DB2WorkloadManagerConfig(
        workloads=(
            DB2Workload(
                name="orders",
                application="order-entry",
                priority=3,
                service_class="main",
            ),
        ),
        work_classes=(
            DB2WorkClass(
                name="large-read",
                statement_types=(StatementType.READ,),
                min_estimated_cost=50.0,
                workload="big-queries",
                priority=1,
            ),
        ),
        service_classes=(DB2ServiceClass("main"),),
        thresholds=(
            DB2Threshold(
                ThresholdKind.ESTIMATED_COST, 500.0, ThresholdAction.REJECT
            ),
            DB2Threshold(
                ThresholdKind.CONCURRENCY,
                2,
                ThresholdAction.QUEUE,
                workload="big-queries",
            ),
            DB2Threshold(
                ThresholdKind.ELAPSED_TIME, 60.0, ThresholdAction.STOP_EXECUTION
            ),
            DB2Threshold(
                ThresholdKind.ELAPSED_TIME, 20.0, ThresholdAction.DEMOTE
            ),
        ),
    )


def _manager(sim, config=None):
    bundle = (config or _config()).build()
    return bundle.create_manager(
        sim, machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096)
    )


class TestIdentification:
    def test_connection_attributes_map_to_workload(self, sim):
        manager = _manager(sim)
        session = manager.sessions.open(
            ConnectionAttributes(application="order-entry")
        )
        query = make_query(cpu=0.1, io=0.1, session_id=session.session_id)
        manager.submit(query)
        assert query.workload_name == "orders"
        assert query.priority == 3

    def test_work_class_predictive_identification(self, sim):
        manager = _manager(sim)
        big = make_query(cpu=60.0, io=60.0)
        manager.submit(big)
        assert big.workload_name == "big-queries"
        assert big.priority == 1

    def test_default_workload(self, sim):
        manager = _manager(sim)
        query = make_query(cpu=0.1, io=0.1)
        manager.submit(query)
        assert query.workload_name == "default"


class TestThresholds:
    def test_estimated_cost_reject(self, sim):
        manager = _manager(sim)
        monster = make_query(cpu=400.0, io=400.0)
        manager.submit(monster)
        assert monster.state is QueryState.REJECTED

    def test_concurrency_threshold_queues(self, sim):
        manager = _manager(sim)
        queries = [make_query(cpu=60.0, io=60.0) for _ in range(3)]
        for query in queries:
            manager.submit(query)
        running = [q for q in queries if q.state is QueryState.RUNNING]
        queued = [q for q in queries if q.state is QueryState.QUEUED]
        assert len(running) == 2
        assert len(queued) == 1

    def test_stop_execution_threshold_kills(self, sim):
        manager = _manager(sim)
        runaway = make_query(cpu=500.0, io=0.0, est_cpu=10.0, est_io=0.0)
        manager.submit(runaway)
        manager.run(horizon=70.0, drain=0.0)
        assert runaway.state is QueryState.KILLED

    def test_demote_threshold_applies_priority_aging(self, sim):
        manager = _manager(sim)
        slow = make_query(cpu=100.0, io=0.0, est_cpu=10.0, est_io=0.0)
        manager.submit(slow)
        manager.run(horizon=30.0, drain=0.0)
        assert slow.demotions >= 1
        assert slow.service_class == "medium"

    def test_stop_execution_threshold_honours_its_workload(self, sim):
        """A kill scoped to ``big-queries`` was database-wide."""
        config = DB2WorkloadManagerConfig(
            work_classes=_config().work_classes,
            thresholds=(
                DB2Threshold(
                    ThresholdKind.ELAPSED_TIME,
                    5.0,
                    ThresholdAction.STOP_EXECUTION,
                    workload="big-queries",
                ),
            ),
        )
        manager = _manager(sim, config)
        big = make_query(cpu=60.0, io=60.0)
        bystander = make_query(cpu=40.0, io=0.0)
        manager.submit(big)
        manager.submit(bystander)
        assert (big.workload_name, bystander.workload_name) == ("big-queries", "default")
        manager.run(horizon=10.0, drain=0.0)
        assert big.state is QueryState.KILLED
        assert bystander.state is QueryState.RUNNING

    def test_workload_scoped_demote_is_refused(self):
        scoped = DB2Threshold(
            ThresholdKind.ELAPSED_TIME, 20.0, ThresholdAction.DEMOTE, workload="orders"
        )
        with pytest.raises(ConfigurationError, match="elapsed_time > 20 -> demote.*'orders'"):
            DB2WorkloadManagerConfig(thresholds=(scoped,)).build()

    def test_invalid_threshold_combinations(self):
        with pytest.raises(ConfigurationError):
            DB2WorkloadManagerConfig(
                thresholds=(
                    DB2Threshold(
                        ThresholdKind.ELAPSED_TIME, 1.0, ThresholdAction.REJECT
                    ),
                )
            ).build()
        with pytest.raises(ConfigurationError):
            DB2WorkloadManagerConfig(
                thresholds=(
                    DB2Threshold(
                        ThresholdKind.ESTIMATED_COST, 1.0, ThresholdAction.QUEUE
                    ),
                )
            ).build()


class TestServiceClasses:
    def test_weight_fn_uses_subclass_weights(self, sim):
        bundle = _config().build()
        query = make_query()
        query.service_class = "high"
        assert bundle.weight_fn(query) == 4.0
        query.service_class = "low"
        assert bundle.weight_fn(query) == 1.0

    def test_weight_fn_falls_back_to_priority(self, sim):
        bundle = _config().build()
        query = make_query(priority=2)
        assert bundle.weight_fn(query) == 2.0

    def test_bundle_name(self):
        assert "DB2" in _config().build().name
