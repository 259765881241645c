"""Unit tests for policies, thresholds and control types (Table 1)."""

import pytest

from repro.core.policy import (
    AdmissionPolicy,
    ControlType,
    Threshold,
    ThresholdAction,
    ThresholdKind,
)
from repro.errors import PolicyError


class TestControlTypes:
    def test_three_control_types(self):
        assert len(ControlType) == 3

    def test_admission_control_point_is_arrival(self):
        assert "arrival" in ControlType.ADMISSION_CONTROL.control_point.lower()

    def test_scheduling_control_point_is_pre_execution(self):
        assert (
            "prior to sending"
            in ControlType.SCHEDULING.control_point.lower()
        )

    def test_execution_control_point_is_runtime(self):
        assert (
            "during execution"
            in ControlType.EXECUTION_CONTROL.control_point.lower()
        )

    def test_policies_derive_from_workload_management_policy(self):
        for control in ControlType:
            assert "workload management policy" in control.associated_policy.lower()


class TestThreshold:
    def test_violation(self):
        threshold = Threshold(
            ThresholdKind.ELAPSED_TIME, 10.0, ThresholdAction.STOP_EXECUTION
        )
        assert threshold.violated_by(11.0)
        assert not threshold.violated_by(10.0)
        assert not threshold.violated_by(None)

    def test_negative_limit_rejected(self):
        with pytest.raises(PolicyError):
            Threshold(ThresholdKind.ELAPSED_TIME, -1.0, ThresholdAction.REJECT)

    def test_describe(self):
        threshold = Threshold(
            ThresholdKind.ROWS_RETURNED, 500.0, ThresholdAction.DEMOTE
        )
        text = threshold.describe()
        assert "rows_returned" in text and "demote" in text


class TestAdmissionPolicy:
    def test_cost_limit_constant(self):
        policy = AdmissionPolicy(reject_over_cost=100.0)
        assert policy.cost_limit_at(0.0) == 100.0
        assert policy.cost_limit_at(1e6) == 100.0

    def test_period_overrides(self):
        # nights (0-21600s of each day) allow heavier queries
        policy = AdmissionPolicy(
            reject_over_cost=50.0,
            period_overrides=((0.0, 21_600.0, 500.0),),
        )
        assert policy.cost_limit_at(3_600.0) == 500.0        # night
        assert policy.cost_limit_at(50_000.0) == 50.0        # day
        assert policy.cost_limit_at(86_400.0 + 100.0) == 500.0  # next night

    def test_no_limit_when_unset(self):
        assert AdmissionPolicy().cost_limit_at(0.0) is None

