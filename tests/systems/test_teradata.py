"""Tests for the Teradata ASM model and workload analyzer."""

import pytest

from repro.core.policy import ThresholdKind
from repro.engine.query import QueryState, StatementType
from repro.engine.resources import MachineSpec
from repro.engine.sessions import ConnectionAttributes
from repro.errors import ConfigurationError
from repro.systems.teradata import (
    ObjectAccessFilter,
    QueryResourceFilter,
    TeradataASMConfig,
    TeradataException,
    TeradataWorkloadAnalyzer,
    TeradataWorkloadDefinition,
    WorkloadThrottle,
)
from repro.workloads.traces import QueryLog

from tests.conftest import make_query


def _config():
    return TeradataASMConfig(
        definitions=(
            TeradataWorkloadDefinition(
                name="tactical",
                application="pos",
                priority=3,
                allocation_weight=4.0,
                response_time_goal=1.0,
            ),
            TeradataWorkloadDefinition(
                name="analytics",
                application="warehouse",
                priority=1,
                allocation_weight=1.0,
                throttle=2,
                exceptions=(
                    TeradataException(ThresholdKind.ELAPSED_TIME, 30.0, "abort"),
                    TeradataException(ThresholdKind.CPU_TIME, 10.0, "demote"),
                ),
            ),
        ),
        object_filters=(
            ObjectAccessFilter(
                "no-ddl",
                reject_statement_types=(StatementType.DDL,),
                reject_applications=("blocked-app",),
            ),
        ),
        resource_filters=(
            QueryResourceFilter(
                "no-monsters", max_estimated_rows=1_000_000, max_estimated_work=300.0
            ),
        ),
    )


def _manager(sim, config=None):
    bundle = (config or _config()).build()
    return bundle.create_manager(
        sim, machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096)
    )


class TestFilters:
    def test_statement_type_filter_rejects(self, sim):
        manager = _manager(sim)
        ddl = make_query(statement_type=StatementType.DDL)
        manager.submit(ddl)
        assert ddl.state is QueryState.REJECTED

    def test_application_filter_rejects(self, sim):
        manager = _manager(sim)
        session = manager.sessions.open(
            ConnectionAttributes(application="blocked-app")
        )
        query = make_query(session_id=session.session_id)
        manager.submit(query)
        assert query.state is QueryState.REJECTED

    def test_resource_filter_rejects_by_estimate(self, sim):
        manager = _manager(sim)
        monster = make_query(cpu=200.0, io=200.0)
        manager.submit(monster)
        assert monster.state is QueryState.REJECTED
        too_many_rows = make_query(est_rows=2_000_000)
        manager.submit(too_many_rows)
        assert too_many_rows.state is QueryState.REJECTED

    def test_clean_queries_pass(self, sim):
        manager = _manager(sim)
        fine = make_query(cpu=1.0, io=1.0)
        manager.submit(fine)
        assert fine.state is QueryState.RUNNING


class TestClassificationAndThrottle:
    def test_who_classification(self, sim):
        manager = _manager(sim)
        session = manager.sessions.open(ConnectionAttributes(application="pos"))
        query = make_query(session_id=session.session_id)
        manager.submit(query)
        assert query.workload_name == "tactical"
        assert query.priority == 3

    def test_workload_throttle_delays_excess(self, sim):
        manager = _manager(sim)
        session = manager.sessions.open(
            ConnectionAttributes(application="warehouse")
        )
        queries = [
            make_query(cpu=30.0, io=0.0, session_id=session.session_id)
            for _ in range(4)
        ]
        for query in queries:
            manager.submit(query)
        assert sum(1 for q in queries if q.state is QueryState.RUNNING) == 2
        assert sum(1 for q in queries if q.state is QueryState.QUEUED) == 2

    def test_allocation_weight_used(self, sim):
        bundle = _config().build()
        query = make_query()
        query.workload_name = "tactical"
        assert bundle.weight_fn(query) == 4.0


class TestRegulator:
    def test_exception_abort(self, sim):
        manager = _manager(sim)
        session = manager.sessions.open(
            ConnectionAttributes(application="warehouse")
        )
        runaway = make_query(cpu=200.0, io=0.0, session_id=session.session_id)
        manager.submit(runaway)
        manager.run(horizon=40.0, drain=0.0)
        assert runaway.state is QueryState.KILLED

    def test_exception_demote(self, sim):
        manager = _manager(sim)
        session = manager.sessions.open(
            ConnectionAttributes(application="warehouse")
        )
        # heavy on CPU: trips the 10s CPU-time demote exception long
        # before the 30s elapsed abort
        burner = make_query(cpu=25.0, io=0.0, session_id=session.session_id)
        manager.submit(burner)
        manager.run(horizon=20.0, drain=30.0)
        assert burner.demotions >= 1

    def test_invalid_exception_action(self):
        with pytest.raises(ConfigurationError):
            TeradataException(ThresholdKind.CPU_TIME, 1.0, "explode")

    def test_invalid_throttle(self):
        with pytest.raises(ConfigurationError):
            WorkloadThrottle("w", 0)


class TestWorkloadAnalyzer:
    def _log(self):
        log = QueryLog()
        for index in range(30):
            query = make_query(cpu=0.05, io=0.05, sql="pos:txn")
            query.submit_time = float(index)
            log.record_query(query)
        for index in range(15):
            query = make_query(cpu=60.0, io=60.0, sql="warehouse:scan")
            query.submit_time = float(index)
            log.record_query(query)
        for index in range(3):  # below min_group_size
            query = make_query(cpu=5.0, io=5.0, sql="misc:q")
            query.submit_time = float(index)
            log.record_query(query)
        return log

    def test_recommendations_by_application_and_band(self):
        analyzer = TeradataWorkloadAnalyzer(min_group_size=10)
        recommendations = analyzer.analyze(self._log())
        names = {r.name for r in recommendations}
        assert names == {"pos-short", "warehouse-long"}
        pos = next(r for r in recommendations if r.application == "pos")
        assert pos.suggested_priority == 3
        warehouse = next(
            r for r in recommendations if r.application == "warehouse"
        )
        assert warehouse.suggested_priority == 1
        assert warehouse.record_count == 15

    def test_small_groups_skipped(self):
        analyzer = TeradataWorkloadAnalyzer(min_group_size=10)
        recommendations = analyzer.analyze(self._log())
        assert all(r.application != "misc" for r in recommendations)

    def test_recommendation_to_definition(self):
        analyzer = TeradataWorkloadAnalyzer(min_group_size=10)
        recommendation = analyzer.analyze(self._log())[0]
        definition = recommendation.to_definition()
        assert definition.name == recommendation.name
        assert definition.application == recommendation.application

    def test_merge(self):
        analyzer = TeradataWorkloadAnalyzer(min_group_size=5)
        a, b = analyzer.analyze(self._log())[:2]
        merged = TeradataWorkloadAnalyzer.merge(a, b, name="combined")
        assert merged.name == "combined"
        assert merged.record_count == a.record_count + b.record_count

    def test_split(self):
        analyzer = TeradataWorkloadAnalyzer(min_group_size=10)
        candidate = analyzer.analyze(self._log())[0]
        below, above = TeradataWorkloadAnalyzer.split(candidate, 10.0)
        assert below.record_count + above.record_count == candidate.record_count
        assert below.suggested_priority >= above.suggested_priority

    def test_recommended_definitions_are_usable(self, sim):
        analyzer = TeradataWorkloadAnalyzer(min_group_size=10)
        recommendations = analyzer.analyze(self._log())
        config = TeradataASMConfig(
            definitions=tuple(r.to_definition() for r in recommendations)
        )
        manager = _manager(sim, config)
        session = manager.sessions.open(ConnectionAttributes(application="pos"))
        query = make_query(cpu=0.05, io=0.05, session_id=session.session_id)
        manager.submit(query)
        assert query.workload_name == "pos-short"
