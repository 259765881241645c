"""Tests for the sim-vs-real comparison harness."""

import pytest

from repro.backends.compare import (
    DELTA_METRICS,
    MetricDelta,
    metric_deltas,
    outcome_metrics,
    run_comparison,
    run_sim_on_plan,
)
from repro.backends.plan import plan_statements
from repro.backends.runner import RunConfig, SleepThrottle
from repro.backends.sqlite import SQLiteBackend
from repro.core.metrics import WorkloadStats
from repro.core.policy import AdmissionPolicy
from repro.engine.query import CostVector, QueryState, StatementType
from repro.errors import ConfigurationError
from repro.workloads.generator import bi_workload, oltp_workload
from repro.workloads.traces import QueryLog, QueryLogRecord


def _record(query_id, state, submit, end, sql="oltp:q"):
    cost = CostVector(cpu_seconds=0.1)
    return QueryLogRecord(
        query_id=query_id,
        workload="oltp",
        statement_type=StatementType.READ,
        priority=1,
        submit_time=submit,
        start_time=submit if end is not None else None,
        end_time=end,
        final_state=state,
        estimated_cost=cost,
        true_cost=cost,
        session_id=None,
        sql=sql,
    )


def _log(records):
    log = QueryLog()
    for record in records:
        log.append(record)
    return log


def summarize(log, horizon, time_scale=1.0):
    return outcome_metrics(WorkloadStats.from_log(log, time_scale), horizon)


def _small_plan(seed=11, horizon=10.0):
    return plan_statements(
        [oltp_workload(), bi_workload(rate=0.4)], horizon=horizon, seed=seed
    )


class TestSummarizeLog:
    def test_metrics_math(self):
        log = _log(
            [
                _record(1, QueryState.COMPLETED, 0.0, 1.0),
                _record(2, QueryState.COMPLETED, 0.0, 3.0),
                _record(3, QueryState.REJECTED, 0.0, None),
                _record(4, QueryState.KILLED, 0.0, 5.0),
            ]
        )
        summary = summarize(log, horizon=10.0)
        assert summary["count"] == 4
        assert summary["completed"] == 2
        assert summary["rejected"] == 1
        assert summary["killed"] == 1
        assert summary["throughput"] == pytest.approx(0.2)
        assert summary["mean_rt"] == pytest.approx(2.0)
        assert summary["p50_rt"] == pytest.approx(2.0)
        assert summary["rejection_rate"] == pytest.approx(0.25)

    def test_time_scale_converts_response_times(self):
        log = _log([_record(1, QueryState.COMPLETED, 0.0, 0.01)])
        summary = summarize(log, horizon=10.0, time_scale=0.005)
        assert summary["mean_rt"] == pytest.approx(2.0)

    def test_empty_log_is_all_zero(self):
        summary = summarize(_log([]), horizon=5.0)
        assert summary["count"] == 0
        assert summary["mean_rt"] == 0.0
        assert summary["rejection_rate"] == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="time_scale"):
            WorkloadStats.from_log(_log([]), time_scale=0.0)


class TestMetricDeltas:
    def test_covers_the_acceptance_metric_set(self):
        log = _log([_record(1, QueryState.COMPLETED, 0.0, 1.0)])
        real = summarize(log, horizon=10.0)
        deltas = metric_deltas(real, real)
        assert [d.metric for d in deltas] == list(DELTA_METRICS)
        assert all(d.delta == 0.0 for d in deltas)

    def test_delta_is_sim_minus_real(self):
        delta = MetricDelta(metric="mean_rt", real=2.0, sim=3.0)
        assert delta.delta == pytest.approx(1.0)


class TestRunSimOnPlan:
    def test_every_statement_gets_a_record(self):
        plan = _small_plan()
        log = run_sim_on_plan(plan, mpl=4)
        assert len(log) == len(plan)
        assert all(
            r.final_state
            in (QueryState.COMPLETED, QueryState.KILLED, QueryState.ABORTED)
            for r in log
        )

    def test_deterministic(self):
        plan = _small_plan()
        first = run_sim_on_plan(plan, mpl=4)
        second = run_sim_on_plan(plan, mpl=4)
        assert [
            (r.submit_time, r.end_time, r.final_state) for r in first
        ] == [(r.submit_time, r.end_time, r.final_state) for r in second]

    def test_admission_gate_maps_to_threshold_policy(self):
        plan = _small_plan()
        policy = AdmissionPolicy(reject_over_cost=1.0)
        log = run_sim_on_plan(plan, mpl=4, admission=policy)
        expensive = sum(
            1 for s in plan if s.estimated_cost.total_work > policy.reject_over_cost
        )
        rejected = sum(
            1 for r in log if r.final_state is QueryState.REJECTED
        )
        # cost decisions are bit-identical: same estimates, same threshold
        assert rejected == expensive
        assert expensive > 0

    def test_throttle_slows_matching_workloads(self):
        plan = _small_plan(horizon=20.0)
        baseline = summarize(run_sim_on_plan(plan, mpl=4), plan.horizon)
        throttled_log = run_sim_on_plan(
            plan,
            mpl=4,
            throttle=SleepThrottle(
                workloads=frozenset({"bi"}), sleep_fraction=0.6
            ),
        )
        bi_base = [
            r.response_time
            for r in run_sim_on_plan(plan, mpl=4).records("bi", True)
        ]
        bi_throttled = [
            r.response_time for r in throttled_log.records("bi", True)
        ]
        assert sum(bi_throttled) > sum(bi_base)
        assert baseline["completed"] >= summarize(throttled_log, plan.horizon)["completed"]

    def test_mpl_validated(self):
        with pytest.raises(ConfigurationError):
            run_sim_on_plan(_small_plan(), mpl=0)


class TestRunComparison:
    @pytest.fixture(scope="class")
    def report(self):
        plan = _small_plan(seed=13, horizon=8.0)
        config = RunConfig(
            mpl=2, time_scale=0.002, statement_timeout_s=10.0, rows=2_000
        )
        return run_comparison(
            plan,
            SQLiteBackend,
            config,
            admission=AdmissionPolicy(reject_over_cost=2.0),
            throttle=SleepThrottle(
                workloads=frozenset({"bi"}), sleep_fraction=0.5
            ),
            keep_real_reports=True,
        ), plan

    def test_runs_both_policies_both_ways(self, report):
        comparison, plan = report
        assert [p.label for p in comparison.policies] == [
            "admission",
            "throttling",
        ]
        for policy in comparison.policies:
            assert [d.metric for d in policy.deltas] == list(DELTA_METRICS)

    def test_plan_identity_is_carried(self, report):
        comparison, plan = report
        assert comparison.plan_digest == plan.digest()
        assert comparison.statements == len(plan)

    def test_real_runs_conserve_the_plan(self, report):
        comparison, plan = report
        assert set(comparison.real_reports) == {
            "baseline",
            "admission",
            "throttling",
        }
        for run in comparison.real_reports.values():
            assert run.conserved

    def test_calibration_closes_the_unit_gap(self, report):
        comparison, _plan = report
        assert comparison.calibration_improved
        assert (
            comparison.service_error_calibrated
            < comparison.service_error_uncalibrated
        )

    def test_render(self, report):
        comparison, _plan = report
        text = comparison.render()
        assert "policy: admission" in text
        assert "calibration" in text
