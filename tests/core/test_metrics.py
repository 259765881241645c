"""Unit tests for the metrics collector."""

import pytest

from repro.core.metrics import MetricsCollector, SystemSample
from repro.core.sla import SLASet, response_time_sla
from repro.engine.query import QueryState

from tests.conftest import make_query


def _completed(cpu=1.0, io=1.0, submit=0.0, start=0.0, end=2.0, workload="wl"):
    query = make_query(cpu=cpu, io=io, workload=workload)
    query.transition(QueryState.SUBMITTED)
    query.submit_time = submit
    query.transition(QueryState.QUEUED)
    query.transition(QueryState.RUNNING)
    query.start_time = start
    query.transition(QueryState.COMPLETED)
    query.end_time = end
    return query


class TestWorkloadStats:
    def test_completion_records_response_time(self):
        metrics = MetricsCollector()
        metrics.record_completion(_completed(end=2.0), now=2.0)
        stats = metrics.stats_for("wl")
        assert stats.completions == 1
        assert stats.mean_response_time() == pytest.approx(2.0)

    def test_percentiles(self):
        metrics = MetricsCollector()
        for end in range(1, 101):
            metrics.record_completion(_completed(end=float(end)), now=float(end))
        stats = metrics.stats_for("wl")
        assert stats.percentile_response_time(95.0) == pytest.approx(95.05, abs=0.5)

    def test_velocity_recorded(self):
        metrics = MetricsCollector()
        # nominal 1s (max of cpu/io), took 2s -> velocity 0.5
        metrics.record_completion(_completed(cpu=1.0, io=1.0, end=2.0), now=2.0)
        assert metrics.stats_for("wl").mean_velocity() == pytest.approx(0.5)

    def test_queue_delay_recorded(self):
        metrics = MetricsCollector()
        metrics.record_completion(_completed(start=1.5, end=3.0), now=3.0)
        assert metrics.stats_for("wl").mean_queue_delay() == pytest.approx(1.5)

    def test_counters(self):
        metrics = MetricsCollector()
        query = make_query(workload="wl")
        metrics.record_rejection(query)
        metrics.record_kill(query)
        metrics.record_abort(query)
        metrics.record_suspension(query)
        stats = metrics.stats_for("wl")
        assert (stats.rejections, stats.kills, stats.aborts, stats.suspensions) == (
            1,
            1,
            1,
            1,
        )

    def test_unassigned_bucket(self):
        metrics = MetricsCollector()
        metrics.record_rejection(make_query())
        assert metrics.stats_for(None).rejections == 1

    def test_windowed_throughput(self):
        metrics = MetricsCollector()
        for end in (1.0, 2.0, 3.0, 50.0):
            metrics.record_completion(_completed(end=end), now=end)
        stats = metrics.stats_for("wl")
        assert stats.throughput(window=10.0, now=50.0) == pytest.approx(0.1)
        assert stats.overall_throughput(now=50.0) == pytest.approx(4 / 50.0)

    def test_empty_stats_return_none(self):
        stats = MetricsCollector().stats_for("nobody")
        assert stats.mean_response_time() is None
        assert stats.percentile_response_time(95) is None
        assert stats.mean_velocity() is None


class TestSystemSamples:
    def test_samples_accumulate(self):
        metrics = MetricsCollector()
        for t in (1.0, 2.0):
            metrics.record_sample(
                SystemSample(t, 0.5, 0.5, 1.0, 1.0, running=2, queued=0)
            )
        assert len(metrics.samples()) == 2
        assert metrics.latest_sample().time == 2.0
        assert metrics.samples(since=1.5)[0].time == 2.0

    def test_latest_none_when_empty(self):
        assert MetricsCollector().latest_sample() is None


class TestAttainment:
    def test_attainment_fractions(self):
        metrics = MetricsCollector()
        metrics.record_completion(_completed(end=2.0, workload="oltp"), now=2.0)
        slas = SLASet(
            [
                response_time_sla("oltp", average=5.0, velocity=0.9),
            ]
        )
        attainment = metrics.attainment(slas, now=2.0)
        # avg rt met (2 <= 5), velocity missed (0.5 < 0.9)
        assert attainment["oltp"] == pytest.approx(0.5)

    def test_no_data_means_zero_attainment(self):
        metrics = MetricsCollector()
        slas = SLASet([response_time_sla("quiet", average=1.0)])
        attainment = metrics.attainment(slas, now=10.0)
        assert attainment["quiet"] == 0.0

    def test_goalless_sla_not_reported(self):
        from repro.core.sla import ServiceLevelAgreement

        metrics = MetricsCollector()
        slas = SLASet([ServiceLevelAgreement(workload="nogoal")])
        assert metrics.attainment(slas, now=1.0) == {}

    def test_summary_line_readable(self):
        metrics = MetricsCollector()
        metrics.record_completion(_completed(end=2.0, workload="oltp"), now=2.0)
        line = metrics.summary_line("oltp", now=2.0)
        assert "oltp" in line and "rt_avg" in line and "xput" in line

    def test_summary_line_no_data(self):
        line = MetricsCollector().summary_line("ghost", now=1.0)
        assert "n=0" in line
