"""Tests for Teradata's object-level features: "where" classification
criteria, object access filters, and object throttles (§4.1.3)."""

import pytest

from repro.engine.query import QueryState, StatementType
from repro.engine.resources import MachineSpec
from repro.errors import ConfigurationError
from repro.systems.teradata import (
    ObjectAccessFilter,
    ObjectThrottle,
    TeradataASMConfig,
    TeradataWorkloadDefinition,
)

from tests.conftest import make_query


def _manager(sim, config):
    return config.build().create_manager(
        sim, machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096)
    )


def _query(objects=(), cpu=1.0, **kwargs):
    query = make_query(cpu=cpu, io=0.0, **kwargs)
    query.objects = tuple(objects)
    return query


class TestWhereCriteria:
    def _config(self):
        return TeradataASMConfig(
            definitions=(
                TeradataWorkloadDefinition(
                    name="sales-workload",
                    objects=("sales", "orders"),
                    priority=3,
                ),
                TeradataWorkloadDefinition(
                    name="hr-workload",
                    objects=("employees",),
                    priority=1,
                ),
            )
        )

    def test_object_access_routes_to_workload(self, sim):
        manager = _manager(sim, self._config())
        query = _query(objects=("sales",))
        manager.submit(query)
        assert query.workload_name == "sales-workload"
        assert query.priority == 3

    def test_any_listed_object_matches(self, sim):
        manager = _manager(sim, self._config())
        query = _query(objects=("misc", "orders"))
        manager.submit(query)
        assert query.workload_name == "sales-workload"

    def test_unlisted_objects_fall_to_default(self, sim):
        manager = _manager(sim, self._config())
        query = _query(objects=("inventory",))
        manager.submit(query)
        assert query.workload_name == "default"

    def test_no_objects_falls_to_default(self, sim):
        manager = _manager(sim, self._config())
        query = _query()
        manager.submit(query)
        assert query.workload_name == "default"

    def test_where_combines_with_who(self, sim):
        from repro.engine.sessions import ConnectionAttributes

        config = TeradataASMConfig(
            definitions=(
                TeradataWorkloadDefinition(
                    name="pos-sales",
                    application="pos",
                    objects=("sales",),
                ),
            )
        )
        manager = _manager(sim, config)
        session = manager.sessions.open(ConnectionAttributes(application="pos"))
        right = _query(objects=("sales",), session_id=session.session_id)
        manager.submit(right)
        assert right.workload_name == "pos-sales"
        wrong_object = _query(objects=("hr",), session_id=session.session_id)
        manager.submit(wrong_object)
        assert wrong_object.workload_name == "default"


class TestObjectFilters:
    def test_blocked_object_rejected(self, sim):
        config = TeradataASMConfig(
            object_filters=(
                ObjectAccessFilter("no-audit", reject_objects=("audit_log",)),
            )
        )
        manager = _manager(sim, config)
        query = _query(objects=("audit_log", "sales"))
        manager.submit(query)
        assert query.state is QueryState.REJECTED

    def test_other_objects_pass(self, sim):
        config = TeradataASMConfig(
            object_filters=(
                ObjectAccessFilter("no-audit", reject_objects=("audit_log",)),
            )
        )
        manager = _manager(sim, config)
        query = _query(objects=("sales",))
        manager.submit(query)
        assert query.state is QueryState.RUNNING


class TestObjectThrottles:
    def _config(self):
        return TeradataASMConfig(
            object_throttles=(ObjectThrottle("sales", limit=2),)
        )

    def test_excess_object_queries_delayed(self, sim):
        manager = _manager(sim, self._config())
        queries = [_query(objects=("sales",), cpu=10.0) for _ in range(4)]
        for query in queries:
            manager.submit(query)
        assert sum(1 for q in queries if q.state is QueryState.RUNNING) == 2
        assert sum(1 for q in queries if q.state is QueryState.QUEUED) == 2

    def test_other_objects_unaffected(self, sim):
        manager = _manager(sim, self._config())
        for _ in range(3):
            manager.submit(_query(objects=("sales",), cpu=10.0))
        other = _query(objects=("inventory",), cpu=10.0)
        manager.submit(other)
        assert other.state is QueryState.RUNNING

    def test_delayed_queries_run_when_slot_frees(self, sim):
        manager = _manager(sim, self._config())
        queries = [_query(objects=("sales",), cpu=1.0) for _ in range(4)]
        for query in queries:
            manager.submit(query)
        manager.run(horizon=0.0, drain=20.0)
        assert all(q.state is QueryState.COMPLETED for q in queries)

    def test_invalid_limit(self):
        with pytest.raises(ConfigurationError):
            ObjectThrottle("x", 0)


class TestObjectPropagation:
    def test_generator_attaches_objects(self, sim):
        from repro.core.manager import WorkloadManager
        from repro.workloads.generator import Scenario
        from repro.workloads.models import (
            Constant,
            OpenArrivals,
            RequestClass,
            WorkloadSpec,
        )

        spec = WorkloadSpec(
            name="w",
            request_classes=(
                (
                    RequestClass(
                        "q", Constant(0.1), Constant(0.0),
                        objects=("sales", "orders"),
                    ),
                    1.0,
                ),
            ),
            arrivals=OpenArrivals(rate=1.0),
        )
        manager = WorkloadManager(sim)
        generator = Scenario(specs=(spec,), horizon=1.0).build(
            sim, manager.submit, sessions=manager.sessions
        )
        query = generator.make_query(spec)
        assert query.objects == ("sales", "orders")

    def test_split_preserves_objects(self):
        from repro.engine.query import split_query

        query = _query(objects=("sales",), cpu=10.0)
        for piece in split_query(query, 3):
            assert piece.objects == ("sales",)


class TestUtilityThrottle:
    def _config(self):
        from repro.systems.teradata import UtilityThrottle

        return TeradataASMConfig(
            utility_throttle=UtilityThrottle(limit=1)
        )

    def test_excess_utilities_delayed(self, sim):
        manager = _manager(sim, self._config())
        utilities = [
            _query(cpu=10.0, statement_type=StatementType.UTILITY)
            for _ in range(3)
        ]
        for utility in utilities:
            manager.submit(utility)
        assert sum(1 for u in utilities if u.state is QueryState.RUNNING) == 1
        assert sum(1 for u in utilities if u.state is QueryState.QUEUED) == 2

    def test_load_statements_count_as_utilities(self, sim):
        manager = _manager(sim, self._config())
        manager.submit(_query(cpu=10.0, statement_type=StatementType.UTILITY))
        load = _query(cpu=10.0, statement_type=StatementType.LOAD)
        manager.submit(load)
        assert load.state is QueryState.QUEUED

    def test_queries_unaffected(self, sim):
        manager = _manager(sim, self._config())
        manager.submit(_query(cpu=10.0, statement_type=StatementType.UTILITY))
        query = _query(cpu=10.0)
        manager.submit(query)
        assert query.state is QueryState.RUNNING

    def test_utilities_drain_serially(self, sim):
        manager = _manager(sim, self._config())
        utilities = [
            _query(cpu=1.0, statement_type=StatementType.UTILITY)
            for _ in range(3)
        ]
        for utility in utilities:
            manager.submit(utility)
        manager.run(horizon=0.0, drain=20.0)
        assert all(u.state is QueryState.COMPLETED for u in utilities)

    def test_invalid_limit(self):
        from repro.systems.teradata import UtilityThrottle

        with pytest.raises(ConfigurationError):
            UtilityThrottle(limit=0)
