"""Tests for the SQL Server Resource/Query Governor model."""

import pytest

from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.sessions import ConnectionAttributes
from repro.errors import ConfigurationError
from repro.systems.sqlserver import (
    ResourceGovernorConfig,
    ResourcePool,
    ResourcePoolController,
    WorkloadGroup,
)

from tests.conftest import make_query


def _classifier(query, session):
    if session is None:
        return None
    if session.attributes.application == "analytics":
        return "bi-group"
    return "app-group"


def _config(cost_limit=0.0):
    return ResourceGovernorConfig(
        pools=(
            ResourcePool("default"),
            ResourcePool("apps", min_percent=50.0, max_percent=100.0),
            ResourcePool("bi", min_percent=0.0, max_percent=30.0),
        ),
        groups=(
            WorkloadGroup("default", "default"),
            WorkloadGroup("app-group", "apps", importance=3),
            WorkloadGroup("bi-group", "bi", importance=1, group_max_requests=2),
        ),
        classifier=_classifier,
        query_governor_cost_limit=cost_limit,
    )


def _manager(sim, config=None):
    bundle = (config or _config()).build()
    return bundle.create_manager(
        sim, machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096)
    )


class TestPoolValidation:
    def test_min_max_bounds(self):
        with pytest.raises(ConfigurationError):
            ResourcePool("x", min_percent=-1.0)
        with pytest.raises(ConfigurationError):
            ResourcePool("x", min_percent=50.0, max_percent=40.0)

    def test_sum_of_mins_capped(self):
        with pytest.raises(ConfigurationError):
            ResourcePoolController(
                [ResourcePool("a", 60.0), ResourcePool("b", 60.0)], {}
            )

    def test_unknown_pool_reference(self):
        config = ResourceGovernorConfig(
            pools=(ResourcePool("default"),),
            groups=(WorkloadGroup("g", "ghost"),),
        )
        with pytest.raises(ConfigurationError):
            config.build()


class TestClassification:
    def test_sessions_route_to_groups(self, sim):
        manager = _manager(sim)
        session = manager.sessions.open(
            ConnectionAttributes(application="analytics")
        )
        query = make_query(session_id=session.session_id)
        manager.submit(query)
        assert query.workload_name == "bi-group"
        assert query.priority == 1

    def test_no_session_goes_to_default(self, sim):
        manager = _manager(sim)
        query = make_query()
        manager.submit(query)
        assert query.workload_name == "default"


class TestQueryGovernor:
    def test_zero_disables_limit(self, sim):
        manager = _manager(sim, _config(cost_limit=0.0))
        huge = make_query(cpu=1000.0, io=1000.0)
        manager.submit(huge)
        assert huge.state is QueryState.RUNNING

    def test_limit_rejects_expensive_estimates(self, sim):
        manager = _manager(sim, _config(cost_limit=10.0))
        huge = make_query(cpu=1000.0, io=1000.0)
        manager.submit(huge)
        assert huge.state is QueryState.REJECTED


class TestGroupThrottle:
    def test_group_max_requests(self, sim):
        manager = _manager(sim)
        session = manager.sessions.open(
            ConnectionAttributes(application="analytics")
        )
        queries = [
            make_query(cpu=30.0, io=0.0, session_id=session.session_id)
            for _ in range(3)
        ]
        for query in queries:
            manager.submit(query)
        assert sum(1 for q in queries if q.state is QueryState.RUNNING) == 2
        assert sum(1 for q in queries if q.state is QueryState.QUEUED) == 1


class TestTargetShares:
    def _controller(self):
        return ResourcePoolController(
            [
                ResourcePool("apps", min_percent=50.0, max_percent=100.0),
                ResourcePool("bi", min_percent=0.0, max_percent=30.0),
            ],
            {"app-group": "apps", "bi-group": "bi"},
        )

    def test_demand_proportional_within_bounds(self):
        shares = self._controller().target_shares({"apps": 1, "bi": 1})
        # unconstrained 0.5/0.5 but bi MAX is 0.3 -> apps absorbs the rest
        assert shares["bi"] == pytest.approx(0.3)
        assert shares["apps"] == pytest.approx(0.7)

    def test_min_reservation_applied(self):
        shares = self._controller().target_shares({"apps": 1, "bi": 9})
        assert shares["apps"] >= 0.5 - 1e-9

    def test_empty_demand(self):
        assert self._controller().target_shares({}) == {}

    def test_single_pool_takes_all(self):
        shares = self._controller().target_shares({"apps": 3})
        assert shares["apps"] == pytest.approx(1.0)


class TestPoolEnforcement:
    def test_min_reservation_protects_apps_pool(self, sim):
        # one CPU core: the three queries genuinely contend
        manager = _config().build().create_manager(
            sim, machine=MachineSpec(cpu_capacity=1, disk_capacity=4, memory_mb=4096)
        )
        bi_session = manager.sessions.open(
            ConnectionAttributes(application="analytics")
        )
        app_session = manager.sessions.open(
            ConnectionAttributes(application="erp")
        )
        # one app query vs two bi queries contending for CPU
        bi_queries = [
            make_query(cpu=100.0, io=0.0, session_id=bi_session.session_id)
            for _ in range(2)
        ]
        app_query = make_query(cpu=100.0, io=0.0, session_id=app_session.session_id)
        for query in bi_queries:
            manager.submit(query)
        manager.submit(app_query)
        manager.run(horizon=3.0, drain=0.0)
        # pool controller re-weighted: apps pool gets >= 50% of cpu even
        # though it has 1 of 3 queries
        app_speed = manager.engine.speed_of(app_query.query_id)
        bi_speed = sum(
            manager.engine.speed_of(q.query_id) for q in bi_queries
        )
        total = app_speed + bi_speed
        assert app_speed / total >= 0.5 - 0.05


class TestRequestMaxCpuTime:
    def test_cpu_hog_in_limited_group_killed(self, sim):
        config = ResourceGovernorConfig(
            pools=(ResourcePool("default"),),
            groups=(
                WorkloadGroup("default", "default"),
                WorkloadGroup(
                    "capped", "default", request_max_cpu_time_sec=5.0
                ),
                WorkloadGroup("free", "default"),
            ),
            classifier=lambda q, s: (
                "capped" if q.estimated_cost.total_work > 50 else "free"
            ),
        )
        manager = config.build().create_manager(
            sim,
            machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096),
        )
        hog = make_query(cpu=100.0, io=0.0)
        bystander = make_query(cpu=30.0, io=0.0)
        manager.submit(hog)
        manager.submit(bystander)
        manager.run(horizon=40.0, drain=0.0)
        # the capped group's hog trips the CPU Threshold Exceeded event
        assert hog.state is QueryState.KILLED
        # the uncapped group's query is untouched
        assert bystander.state is QueryState.COMPLETED

    def test_no_limit_no_kill_controller(self):
        config = _config()
        bundle = config.build()
        from repro.execution.cancellation import QueryKillController

        assert not any(
            isinstance(c, QueryKillController)
            for c in bundle.execution_controllers
        )
