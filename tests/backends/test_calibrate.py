"""Tests for cost-model fitting from captured traces."""

import pytest

from repro.backends.calibrate import (
    ClassFit,
    fit_cost_model,
    service_error,
)
from repro.engine.query import CostVector, QueryState, StatementType
from repro.errors import ConfigurationError
from repro.workloads.traces import QueryLogRecord


def _record(
    work,
    service,
    sql="oltp:q",
    state=QueryState.COMPLETED,
    query_id=0,
):
    cost = CostVector(cpu_seconds=work)
    return QueryLogRecord(
        query_id=query_id,
        workload=sql.split(":")[0],
        statement_type=StatementType.READ,
        priority=1,
        submit_time=0.0,
        start_time=1.0,
        end_time=None if service is None else 1.0 + service,
        final_state=state,
        estimated_cost=cost,
        true_cost=cost,
        session_id=None,
        sql=sql,
    )


def _linear_trace(slope, intercept, sql="oltp:q", n=10):
    return [
        _record(w, intercept + slope * w, sql=sql, query_id=i)
        for i, w in enumerate(0.1 * (j + 1) for j in range(n))
    ]


class TestFitting:
    def test_recovers_a_linear_relationship(self):
        model = fit_cost_model(_linear_trace(slope=0.01, intercept=0.002))
        fit = model.fits["oltp:q"]
        assert fit.slope == pytest.approx(0.01, rel=1e-6)
        assert fit.intercept == pytest.approx(0.002, rel=1e-6)
        assert fit.samples == 10

    def test_constant_work_degrades_to_mean_service(self):
        records = [
            _record(1.0, s, query_id=i)
            for i, s in enumerate([0.2, 0.4, 0.6, 0.8, 1.0])
        ]
        model = fit_cost_model(records)
        fit = model.fits["oltp:q"]
        assert fit.slope == 0.0
        assert fit.intercept == pytest.approx(0.6)

    def test_sparse_classes_fall_back_globally(self):
        records = _linear_trace(0.01, 0.0) + [
            _record(2.0, 0.02, sql="bi:huge", query_id=99)
        ]
        model = fit_cost_model(records, min_samples=5)
        assert "bi:huge" not in model.fits
        # the lone bi point still informed the global fallback
        assert model.fallback.samples == 11
        assert model.fit_for("bi:huge") is model.fallback
        assert model.fit_for(None) is model.fallback

    def test_time_scale_converts_to_schedule_units(self):
        # 1 ms of wall service at scale 0.001 is 1 s of schedule time
        records = _linear_trace(slope=0.0, intercept=0.001)
        model = fit_cost_model(records, time_scale=0.001)
        assert model.predict_seconds("oltp:q", 0.5) == pytest.approx(1.0)
        assert model.time_scale == 0.001

    def test_incomplete_records_are_ignored(self):
        records = _linear_trace(0.01, 0.002) + [
            _record(1.0, None, query_id=50),
            _record(1.0, 99.0, state=QueryState.KILLED, query_id=51),
        ]
        model = fit_cost_model(records)
        assert model.fits["oltp:q"].samples == 10

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError, match="no completed records"):
            fit_cost_model([_record(1.0, 5.0, state=QueryState.REJECTED)])
        with pytest.raises(ConfigurationError):
            fit_cost_model([], time_scale=0.0)


class TestPrediction:
    def test_prediction_floor(self):
        fit = ClassFit(label="x", slope=0.0, intercept=0.0, samples=3)
        assert fit.predict(100.0) == pytest.approx(1e-6)

    def test_negative_intercepts_are_reanchored(self):
        # steep line through the origin-ish region must not predict
        # negative service for light statements
        records = [
            _record(w, max(0.0005, 0.01 * w - 0.004), query_id=i)
            for i, w in enumerate([0.1, 0.2, 0.5, 1.0, 2.0])
        ]
        model = fit_cost_model(records)
        assert model.predict_seconds("oltp:q", 0.0) >= 0.0

    def test_calibrated_cost_is_pure_cpu(self):
        model = fit_cost_model(_linear_trace(0.01, 0.0))
        estimated = CostVector(cpu_seconds=2.0, io_seconds=3.0, lock_count=4, rows=7)
        cost = model.calibrated_cost("oltp:q", estimated)
        assert cost.cpu_seconds == pytest.approx(
            model.predict_seconds("oltp:q", estimated.total_work)
        )
        assert cost.io_seconds == 0.0
        assert cost.lock_count == 0
        assert cost.rows == 7


class TestServiceError:
    def test_calibrated_error_beats_uncalibrated_on_linear_traces(self):
        records = _linear_trace(slope=0.001, intercept=0.0005)
        model = fit_cost_model(records)
        uncal = service_error(records, None)
        cal = service_error(records, model)
        assert cal < uncal
        assert cal == pytest.approx(0.0, abs=1e-9)

    def test_uncalibrated_error_is_the_unit_gap(self):
        # service = work exactly -> zero uncalibrated error
        records = [_record(w, w, query_id=i) for i, w in enumerate([0.5, 1.0])]
        assert service_error(records, None) == pytest.approx(0.0)

    def test_no_scorable_records_rejected(self):
        with pytest.raises(ConfigurationError):
            service_error([_record(1.0, None)])
