"""Tests for static and dynamic workload characterization."""

import pytest

from repro.characterization.dynamic import (
    DynamicCharacterizer,
    QueryTypeClassifier,
    WorkloadPhaseDetector,
)
from repro.characterization.features import WindowFeatures, query_features
from repro.characterization.static import (
    AttributePredicate,
    ClassifierFunctionCharacterizer,
    StaticCharacterizer,
    WorkClassCriteria,
    WorkloadDefinition,
)
from repro.core.manager import WorkloadManager
from repro.engine.query import StatementType
from repro.engine.resources import MachineSpec
from repro.engine.sessions import ConnectionAttributes
from repro.engine.simulator import Simulator
from repro.workloads.traces import QueryLog

from tests.conftest import make_query


def _manager(sim, characterizer):
    return WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096),
        characterizer=characterizer,
    )


def _session(manager, application="order-entry", user="clerk"):
    return manager.sessions.open(
        ConnectionAttributes(application=application, user=user)
    )


class TestPredicates:
    def test_exact_match(self):
        predicate = AttributePredicate("application", "sales")
        manager_sim = Simulator()
        manager = _manager(manager_sim, StaticCharacterizer([]))
        session = _session(manager, application="sales")
        assert predicate.matches(session)
        other = _session(manager, application="hr")
        assert not predicate.matches(other)

    def test_wildcard_suffix(self):
        predicate = AttributePredicate("application", "report*")
        manager = _manager(Simulator(), StaticCharacterizer([]))
        assert predicate.matches(_session(manager, application="report-runner"))
        assert not predicate.matches(_session(manager, application="oltp"))

    def test_none_session_never_matches(self):
        assert not AttributePredicate("user", "x").matches(None)


class TestWorkClassCriteria:
    def test_statement_type_filter(self):
        criteria = WorkClassCriteria(statement_types=(StatementType.WRITE,))
        assert criteria.matches(make_query(statement_type=StatementType.WRITE))
        assert not criteria.matches(make_query(statement_type=StatementType.READ))

    def test_cost_band(self):
        criteria = WorkClassCriteria(
            min_estimated_cost=10.0, max_estimated_cost=100.0
        )
        assert criteria.matches(make_query(cpu=25.0, io=25.0))
        assert not criteria.matches(make_query(cpu=1.0, io=1.0))
        assert not criteria.matches(make_query(cpu=200.0, io=200.0))

    def test_rows_band_uses_estimates(self):
        criteria = WorkClassCriteria(min_estimated_rows=1000)
        assert criteria.matches(make_query(rows=10, est_rows=5000))
        assert not criteria.matches(make_query(rows=10_000, est_rows=10))

    def test_wildcard_matches_everything(self):
        assert WorkClassCriteria().matches(make_query())


class TestStaticCharacterizer:
    def _characterizer(self):
        return StaticCharacterizer(
            [
                WorkloadDefinition(
                    workload="big-queries",
                    priority=1,
                    what=WorkClassCriteria(min_estimated_cost=100.0),
                ),
                WorkloadDefinition(
                    workload="orders",
                    priority=3,
                    who=(AttributePredicate("application", "order-entry"),),
                    service_class="high",
                ),
            ],
            default_workload="misc",
            default_priority=2,
        )

    def test_first_match_wins(self, sim):
        characterizer = self._characterizer()
        manager = _manager(sim, characterizer)
        session = _session(manager, application="order-entry")
        # satisfies both rules; the work-class rule is first
        heavy_order = make_query(cpu=200.0, io=200.0, session_id=session.session_id)
        manager.submit(heavy_order)
        assert heavy_order.workload_name == "big-queries"
        assert heavy_order.priority == 1

    def test_who_matching_and_service_class(self, sim):
        characterizer = self._characterizer()
        manager = _manager(sim, characterizer)
        session = _session(manager, application="order-entry")
        order = make_query(cpu=0.1, io=0.1, session_id=session.session_id)
        manager.submit(order)
        assert order.workload_name == "orders"
        assert order.priority == 3
        assert order.service_class == "high"
        assert characterizer.matched_counts["orders"] == 1

    def test_default_workload(self, sim):
        characterizer = self._characterizer()
        manager = _manager(sim, characterizer)
        stranger = make_query(cpu=0.1, io=0.1)
        manager.submit(stranger)
        assert stranger.workload_name == "misc"
        assert stranger.priority == 2
        assert characterizer.default_count == 1


class TestClassifierFunction:
    def test_function_routes_groups(self, sim):
        def classify(query, session):
            if session and session.attributes.application == "analytics":
                return "bi"
            return "apps"

        characterizer = ClassifierFunctionCharacterizer(
            classify, known_groups=["bi", "apps"], priorities={"bi": 1, "apps": 3}
        )
        manager = _manager(sim, characterizer)
        session = _session(manager, application="analytics")
        query = make_query(session_id=session.session_id)
        manager.submit(query)
        assert query.workload_name == "bi"
        assert query.priority == 1

    def test_unknown_group_falls_to_default(self, sim):
        characterizer = ClassifierFunctionCharacterizer(
            lambda q, s: "nonexistent", known_groups=["apps"]
        )
        manager = _manager(sim, characterizer)
        query = make_query()
        manager.submit(query)
        assert query.workload_name == "default"
        assert characterizer.classification_failures == 1

    def test_exception_falls_to_default(self, sim):
        def broken(query, session):
            raise RuntimeError("boom")

        characterizer = ClassifierFunctionCharacterizer(
            broken, known_groups=["apps"]
        )
        manager = _manager(sim, characterizer)
        query = make_query()
        manager.submit(query)
        assert query.workload_name == "default"
        assert characterizer.classification_failures == 1

    def test_none_falls_to_default_silently(self, sim):
        characterizer = ClassifierFunctionCharacterizer(
            lambda q, s: None, known_groups=["apps"]
        )
        manager = _manager(sim, characterizer)
        query = make_query()
        manager.submit(query)
        assert query.workload_name == "default"
        assert characterizer.classification_failures == 0


class TestFeatures:
    def test_query_features_shape(self):
        row = query_features(make_query())
        assert len(row) == 5

    def test_write_flag(self):
        write_row = query_features(
            make_query(statement_type=StatementType.WRITE)
        )
        read_row = query_features(make_query())
        assert write_row[3] == 1.0
        assert read_row[3] == 0.0

    def test_window_features_from_records(self):
        log = QueryLog()
        for _ in range(10):
            query = make_query(cpu=0.1, io=0.1, statement_type=StatementType.WRITE)
            query.submit_time = 1.0
            log.record_query(query)
        features = WindowFeatures.from_records(log.records(), window_seconds=10.0)
        assert features.arrival_rate == pytest.approx(1.0)
        assert features.write_fraction == 1.0

    def test_empty_window(self):
        features = WindowFeatures.from_records([], window_seconds=10.0)
        assert features.arrival_rate == 0.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            WindowFeatures.from_records([], window_seconds=0.0)


def _labelled_queries(n=60):
    queries, labels = [], []
    for index in range(n):
        if index % 2 == 0:
            queries.append(
                make_query(
                    cpu=0.02, io=0.02, mem=4.0, rows=10,
                    statement_type=StatementType.WRITE,
                )
            )
            labels.append("oltp")
        else:
            queries.append(
                make_query(cpu=40.0, io=60.0, mem=800.0, rows=100_000)
            )
            labels.append("bi")
    return queries, labels


class TestDynamicClassifiers:
    @pytest.mark.parametrize("method", ["nb", "tree"])
    def test_query_type_classifier_accuracy(self, method):
        queries, labels = _labelled_queries()
        classifier = QueryTypeClassifier(method=method)
        classifier.fit_queries(queries, labels)
        assert classifier.accuracy_queries(queries, labels) > 0.95

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            QueryTypeClassifier().predict_query(make_query())

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            QueryTypeClassifier(method="svm")

    @pytest.mark.parametrize("method", ["nb", "tree"])
    def test_phase_detector(self, method):
        oltp_windows = [
            WindowFeatures(50.0, 0.05, 0.01, 0.6, 2.0, 1.5) for _ in range(20)
        ]
        bi_windows = [
            WindowFeatures(0.2, 4.5, 0.9, 0.0, 10.0, 6.5) for _ in range(20)
        ]
        detector = WorkloadPhaseDetector(method=method)
        detector.fit(
            oltp_windows + bi_windows, ["oltp"] * 20 + ["bi"] * 20
        )
        assert detector.predict(WindowFeatures(45.0, 0.06, 0.02, 0.5, 2.1, 1.4)) == "oltp"
        assert detector.predict(WindowFeatures(0.3, 4.2, 1.0, 0.0, 9.5, 6.0)) == "bi"

    def test_dynamic_characterizer_untrained_default(self, sim):
        characterizer = DynamicCharacterizer(untrained_workload="unknown")
        manager = _manager(sim, characterizer)
        query = make_query()
        manager.submit(query)
        assert query.workload_name == "unknown"

    def test_dynamic_characterizer_identifies_after_training(self, sim):
        queries, labels = _labelled_queries()
        classifier = QueryTypeClassifier(method="nb")
        classifier.fit_queries(queries, labels)
        characterizer = DynamicCharacterizer(
            classifier, priorities={"oltp": 3, "bi": 1}
        )
        manager = _manager(sim, characterizer)
        txn = make_query(
            cpu=0.03, io=0.01, mem=4.0, rows=12,
            statement_type=StatementType.WRITE,
        )
        manager.submit(txn)
        assert txn.workload_name == "oltp"
        assert txn.priority == 3
        assert characterizer.identified_counts["oltp"] == 1

    def test_train_from_log_uses_recorded_workloads(self, sim):
        log = QueryLog()
        queries, labels = _labelled_queries(40)
        for query, label in zip(queries, labels):
            query.workload_name = label
            query.submit_time = 0.0
            log.record_query(query)
        characterizer = DynamicCharacterizer()
        characterizer.train_from_log(list(log))
        assert characterizer.classifier.trained
