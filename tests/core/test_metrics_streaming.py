"""Streaming-metrics behaviour: append-only completion times, cached
statistic views, sliding-window throughput, and sample bisection.

These pin the hot-path rewrite of :mod:`repro.core.metrics`: results
must be *identical* to the naive compute-on-every-read implementation
(the caches only memoize, never approximate), and the append-only
monotonicity contract must be enforced in debug mode.
"""

import bisect

import numpy as np
import pytest

from repro.core.metrics import MetricsCollector, SystemSample
from tests.conftest import make_query


def _finished_query(submit=0.0, start=0.5, end=2.0):
    query = make_query(cpu=1.0, io=1.0, workload="wl")
    query.submit_time = submit
    query.start_time = start
    query.end_time = end
    return query


class TestAppendOnlyCompletionTimes:
    def test_completion_times_stay_sorted_under_monotone_recording(self):
        collector = MetricsCollector()
        times = [0.5, 1.0, 1.0, 3.25, 7.5]
        for now in times:
            collector.record_completion(_finished_query(end=now), now)
        stats = collector.stats_for("wl")
        assert stats.completion_times == sorted(stats.completion_times)
        assert stats.completion_times == times

    def test_non_monotone_completion_asserts_in_debug(self):
        collector = MetricsCollector()
        collector.record_completion(_finished_query(end=5.0), 5.0)
        with pytest.raises(AssertionError, match="backwards"):
            collector.record_completion(_finished_query(end=1.0), 1.0)


class TestCachedStatistics:
    def test_mean_and_percentile_track_appends(self):
        collector = MetricsCollector()
        rng = np.random.default_rng(42)
        now = 0.0
        for _ in range(50):
            now += float(rng.uniform(0.01, 1.0))
            query = _finished_query(submit=now - 1.5, start=now - 1.0, end=now)
            collector.record_completion(query, now)
            stats = collector.stats_for("wl")
            # Every read must equal the from-scratch numpy computation,
            # including reads repeated between appends (cache hits).
            for _ in range(2):
                assert stats.mean_response_time() == float(
                    np.mean(stats.response_times)
                )
                assert stats.percentile_response_time(95.0) == float(
                    np.percentile(stats.response_times, 95.0)
                )
                assert stats.mean_queue_delay() == float(
                    np.mean(stats.queue_delays)
                )

    def test_empty_series_return_none(self):
        collector = MetricsCollector()
        stats = collector.stats_for("empty")
        assert stats.mean_response_time() is None
        assert stats.percentile_response_time(99.0) is None
        assert stats.mean_velocity() is None
        assert stats.mean_queue_delay() is None

    def test_distinct_percentiles_cached_independently(self):
        collector = MetricsCollector()
        for now in (1.0, 2.0, 3.0, 4.0):
            collector.record_completion(_finished_query(end=now), now)
        stats = collector.stats_for("wl")
        p50 = stats.percentile_response_time(50.0)
        p95 = stats.percentile_response_time(95.0)
        assert p50 == float(np.percentile(stats.response_times, 50.0))
        assert p95 == float(np.percentile(stats.response_times, 95.0))
        assert p50 != p95 or len(set(stats.response_times)) == 1


class TestSlidingWindowThroughput:
    def _naive(self, times, window, now):
        if window <= 0 or now <= 0:
            return 0.0
        start = max(0.0, now - window)
        lo = bisect.bisect_right(times, start)
        return (len(times) - lo) / min(window, now)

    def test_matches_bisect_for_monotone_and_regressing_queries(self):
        collector = MetricsCollector()
        stats = collector.stats_for("wl")
        rng = np.random.default_rng(7)
        now = 0.0
        queries = []
        for _ in range(300):
            now += float(rng.uniform(0.0, 0.5))
            if rng.uniform() < 0.6:
                collector.record_completion(_finished_query(end=now), now)
            # interleave reads at several window sizes, including a
            # non-monotone (earlier-than-last) query that must fall
            # back to a fresh bisect
            for window in (1.0, 10.0, 60.0):
                queries.append((window, now))
            if rng.uniform() < 0.15 and now > 5.0:
                queries.append((10.0, now - 4.0))
            while queries:
                window, at = queries.pop()
                assert stats.throughput(window, at) == self._naive(
                    stats.completion_times, window, at
                ), f"window={window} now={at}"

    def test_zero_window_and_zero_now(self):
        collector = MetricsCollector()
        stats = collector.stats_for("wl")
        collector.record_completion(_finished_query(end=1.0), 1.0)
        assert stats.throughput(0.0, 10.0) == 0.0
        assert stats.throughput(10.0, 0.0) == 0.0

    def test_existing_semantics_preserved(self):
        # mirrors tests/core/test_metrics.py: completions at 1,2,3,50
        collector = MetricsCollector()
        for now in (1.0, 2.0, 3.0, 50.0):
            collector.record_completion(_finished_query(end=now), now)
        stats = collector.stats_for("wl")
        assert stats.throughput(window=10.0, now=50.0) == pytest.approx(0.1)


class TestSampleBisection:
    @staticmethod
    def _sample(t):
        return SystemSample(
            time=t,
            cpu_utilization=0.5,
            disk_utilization=0.5,
            memory_pressure=0.0,
            conflict_ratio=0.0,
            running=1,
            queued=0,
        )

    def test_since_filter_matches_linear_scan(self):
        collector = MetricsCollector()
        times = [0.0, 0.5, 1.0, 1.0, 2.5, 4.0]
        for t in times:
            collector.record_sample(self._sample(t))
        for since in (0.0, 0.25, 0.5, 1.0, 3.0, 5.0):
            got = collector.samples(since)
            want = [s for s in collector._samples if s.time >= since]
            assert got == want

    def test_out_of_order_sample_raises(self):
        collector = MetricsCollector()
        for t in (1.0, 3.0):
            collector.record_sample(self._sample(t))
        with pytest.raises(AssertionError, match="backwards"):
            collector.record_sample(self._sample(2.0))
