"""Tests for the per-system monitoring facades (§4.1 monitoring)."""

import pytest

from repro.core.manager import FCFSDispatcher, WorkloadManager
from repro.engine.resources import MachineSpec
from repro.systems.monitoring import (
    db2_service_class_stats,
    db2_workload_occurrences,
    sqlserver_resource_pool_stats,
    sqlserver_workload_group_stats,
    teradata_dashboard,
)
from repro.workloads.traces import QueryLog

from tests.conftest import make_query


@pytest.fixture
def query_log():
    return QueryLog()


@pytest.fixture
def loaded_manager(sim, query_log):
    manager = WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096),
        scheduler=FCFSDispatcher(max_concurrency=3),
    )
    manager.add_completion_listener(query_log.record_query)
    # two finished, two running, one queued
    for _ in range(2):
        manager.submit(make_query(cpu=0.1, io=0.0, sql="oltp:t"))
    sim.run_until(1.0)
    for _ in range(2):
        manager.submit(make_query(cpu=50.0, io=0.0, mem=100.0, sql="bi:q"))
    manager.submit(make_query(cpu=50.0, io=0.0, sql="bi:q"))
    manager.submit(make_query(cpu=50.0, io=0.0, sql="bi:q"))  # queued
    sim.run_until(2.0)
    return manager


class TestDb2Views:
    def test_workload_occurrences_one_row_per_running_query(self, loaded_manager):
        rows = db2_workload_occurrences(loaded_manager)
        assert len(rows) == loaded_manager.running_count
        for row in rows:
            assert row["workload_name"] == "bi"
            assert 0.0 <= row["progress"] <= 1.0
            assert row["elapsed_time"] >= 0.0

    def test_service_class_stats_aggregates(self, loaded_manager):
        rows = {r["service_superclass"]: r for r in db2_service_class_stats(loaded_manager)}
        assert rows["oltp"]["coord_act_completed_total"] == 2
        assert rows["oltp"]["coord_act_lifetime_avg"] is not None
        assert rows["oltp"]["throughput_per_s"] > 0


class TestSqlServerViews:
    def test_workload_group_stats(self, loaded_manager):
        rows = {r["group_name"]: r for r in sqlserver_workload_group_stats(loaded_manager)}
        assert rows["bi"]["active_request_count"] == 3
        assert rows["oltp"]["total_request_count"] == 2

    def test_resource_pool_stats_with_mapping(self, loaded_manager):
        rows = sqlserver_resource_pool_stats(
            loaded_manager, group_to_pool={"bi": "analytics-pool"}
        )
        pools = {r["pool_name"]: r for r in rows}
        assert "analytics-pool" in pools
        pool = pools["analytics-pool"]
        assert pool["active_request_count"] == 3
        assert pool["used_memory_mb"] >= 200.0
        assert 0.0 <= pool["cpu_usage_share"] <= 1.0

    def test_pool_stats_default_identity_mapping(self, loaded_manager):
        rows = sqlserver_resource_pool_stats(loaded_manager)
        assert {r["pool_name"] for r in rows} == {"bi"}


class TestTeradataDashboard:
    def test_dashboard_columns(self, loaded_manager, query_log):
        rows = {
            r["workload_name"]: r for r in teradata_dashboard(loaded_manager, query_log)
        }
        bi = rows["bi"]
        assert bi["active_sessions"] == 3
        assert bi["delay_queue_depth"] == 1
        assert bi["arrival_rate"] > 0
        assert 0.0 <= bi["cpu_usage"] <= 1.0
        oltp = rows["oltp"]
        assert oltp["completed_requests"] == 2
        assert oltp["avg_response_time"] is not None
        # the two logged OLTP completions over the 2 s elapsed so far
        assert oltp["arrival_rate"] == pytest.approx(1.0)

    def test_dashboard_on_idle_manager(self, sim):
        manager = WorkloadManager(sim)
        assert teradata_dashboard(manager, QueryLog()) == []
