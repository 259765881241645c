"""Unit tests for SLAs and performance objectives."""

import pytest

from repro.core.sla import (
    ObjectiveKind,
    PerformanceObjective,
    ServiceLevelAgreement,
    SLASet,
    response_time_sla,
)
from repro.errors import PolicyError


class TestObjectiveValidation:
    def test_target_must_be_positive(self):
        with pytest.raises(PolicyError):
            PerformanceObjective(ObjectiveKind.AVERAGE_RESPONSE_TIME, 0.0)

    def test_percentile_objective_needs_percentile(self):
        with pytest.raises(PolicyError):
            PerformanceObjective(ObjectiveKind.PERCENTILE_RESPONSE_TIME, 5.0)

    def test_percentile_bounds(self):
        with pytest.raises(PolicyError):
            PerformanceObjective(
                ObjectiveKind.PERCENTILE_RESPONSE_TIME, 5.0, percentile=100.0
            )

    def test_non_percentile_objective_rejects_percentile(self):
        with pytest.raises(PolicyError):
            PerformanceObjective(
                ObjectiveKind.THROUGHPUT, 5.0, percentile=95.0
            )

    def test_velocity_cannot_exceed_one(self):
        with pytest.raises(PolicyError):
            PerformanceObjective(ObjectiveKind.VELOCITY, 1.5)


class TestSatisfaction:
    def test_response_time_is_upper_bound(self):
        objective = PerformanceObjective(ObjectiveKind.AVERAGE_RESPONSE_TIME, 2.0)
        assert objective.satisfied_by(1.5) is True
        assert objective.satisfied_by(2.5) is False

    def test_throughput_is_lower_bound(self):
        objective = PerformanceObjective(ObjectiveKind.THROUGHPUT, 10.0)
        assert objective.satisfied_by(12.0) is True
        assert objective.satisfied_by(8.0) is False

    def test_velocity_is_lower_bound(self):
        objective = PerformanceObjective(ObjectiveKind.VELOCITY, 0.8)
        assert objective.satisfied_by(0.9) is True
        assert objective.satisfied_by(0.5) is False

    def test_none_measurement_is_unknown(self):
        objective = PerformanceObjective(ObjectiveKind.VELOCITY, 0.8)
        assert objective.satisfied_by(None) is None

    def test_describe_mentions_kind(self):
        objective = PerformanceObjective(
            ObjectiveKind.PERCENTILE_RESPONSE_TIME, 5.0, percentile=95.0
        )
        assert "p95" in objective.describe()


class TestAgreement:
    def test_evaluate_maps_measurements(self):
        sla = ServiceLevelAgreement(
            workload="oltp",
            objectives=(
                PerformanceObjective(ObjectiveKind.AVERAGE_RESPONSE_TIME, 1.0),
                PerformanceObjective(ObjectiveKind.VELOCITY, 0.8),
            ),
            importance=3,
        )
        results = sla.evaluate(
            {
                ObjectiveKind.AVERAGE_RESPONSE_TIME: 0.5,
                ObjectiveKind.VELOCITY: 0.4,
            }
        )
        assert [r.satisfied for r in results] == [True, False]

    def test_non_goal_workload(self):
        sla = ServiceLevelAgreement(workload="adhoc")
        assert not sla.has_goals
        assert sla.evaluate({}) == []

    def test_importance_must_be_positive(self):
        with pytest.raises(PolicyError):
            ServiceLevelAgreement(workload="x", importance=0)

    @pytest.mark.parametrize("order", [(50.0, 99.0), (99.0, 50.0)])
    def test_two_percentiles_are_rejected(self, order):
        """A measurement map carries one percentile, so (p50 <= 2 s,
        p99 <= 20 s) over 90 x 1 s + 10 x 10 s would be judged wholly at
        whichever percentile came last: p50 'measured 10.0' one way
        round, p99 'measured 1.0' the other."""
        targets = {50.0: 2.0, 99.0: 20.0}
        objectives = tuple(
            PerformanceObjective(
                ObjectiveKind.PERCENTILE_RESPONSE_TIME, targets[p], percentile=p
            )
            for p in order
        )
        with pytest.raises(PolicyError, match="p50 and p99"):
            ServiceLevelAgreement(workload="x", objectives=objectives)

    def test_one_percentile_twice_is_one_percentile(self):
        objectives = tuple(
            PerformanceObjective(
                ObjectiveKind.PERCENTILE_RESPONSE_TIME, target, percentile=95.0
            )
            for target in (2.0, 3.0)
        )
        sla = ServiceLevelAgreement(workload="x", objectives=objectives)
        verdicts = sla.evaluate({ObjectiveKind.PERCENTILE_RESPONSE_TIME: 2.5})
        assert [r.satisfied for r in verdicts] == [False, True]

    def test_result_describe(self):
        sla = response_time_sla("oltp", average=1.0)
        result = sla.evaluate({ObjectiveKind.AVERAGE_RESPONSE_TIME: 2.0})[0]
        assert "MISSED" in result.describe()
        result = sla.evaluate({ObjectiveKind.AVERAGE_RESPONSE_TIME: 0.2})[0]
        assert "MET" in result.describe()


class TestSLASet:
    def test_lookup(self):
        slas = SLASet([response_time_sla("oltp", average=1.0, importance=3)])
        assert slas.get("oltp") is not None
        assert slas.get("other") is None
        assert slas.get(None) is None

    def test_duplicate_rejected(self):
        slas = SLASet([response_time_sla("oltp", average=1.0)])
        with pytest.raises(PolicyError):
            slas.add(response_time_sla("oltp", average=2.0))

    def test_importance_of(self):
        slas = SLASet([response_time_sla("oltp", average=1.0, importance=3)])
        assert slas.importance_of("oltp") == 3
        assert slas.importance_of("missing", default=2) == 2

    def test_iteration_and_len(self):
        slas = SLASet(
            [
                response_time_sla("a", average=1.0),
                response_time_sla("b", p95=5.0),
            ]
        )
        assert len(slas) == 2
        assert {sla.workload for sla in slas} == {"a", "b"}

    def test_builder_composes_objectives(self):
        sla = response_time_sla(
            "oltp", average=0.5, p95=1.0, velocity=0.8, importance=4
        )
        kinds = {objective.kind for objective in sla.objectives}
        assert kinds == {
            ObjectiveKind.AVERAGE_RESPONSE_TIME,
            ObjectiveKind.PERCENTILE_RESPONSE_TIME,
            ObjectiveKind.VELOCITY,
        }
        assert sla.importance == 4
