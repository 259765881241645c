"""Tests for the token bucket and arrival pacer on a virtual clock."""

import pytest

from repro.backends.rate import ArrivalPacer, TokenBucket
from repro.errors import ConfigurationError


class FakeClock:
    """A virtual clock whose sleep() advances time instantly."""

    def __init__(self, start=0.0):
        self.now = start
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def _bucket(rate, burst=None, clock=None):
    clock = clock or FakeClock()
    return TokenBucket(rate, burst=burst, clock=clock, sleep=clock.sleep), clock


class TestTokenBucket:
    def test_burst_allows_immediate_statements(self):
        bucket, clock = _bucket(rate=1.0, burst=5.0)
        for _ in range(5):
            assert bucket.acquire() == 0.0
        assert clock.now == 0.0
        assert bucket.acquired == 5

    def test_empty_bucket_waits_for_refill(self):
        bucket, clock = _bucket(rate=10.0, burst=1.0)
        assert bucket.acquire() == 0.0
        waited = bucket.acquire()
        assert waited == pytest.approx(0.1)
        assert clock.now == pytest.approx(0.1)
        assert bucket.total_wait_s == pytest.approx(0.1)

    def test_long_run_rate_is_held(self):
        bucket, clock = _bucket(rate=4.0, burst=1.0)
        for _ in range(21):
            bucket.acquire()
        # 20 inter-arrival gaps of 1/4 s after the initial token
        assert clock.now == pytest.approx(5.0)

    def test_idle_time_refills_up_to_burst(self):
        bucket, clock = _bucket(rate=10.0, burst=2.0)
        bucket.acquire()
        bucket.acquire()
        clock.now += 100.0  # a long lull refills to burst, not beyond
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(0.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(10.0, burst=0.5)


class TestArrivalPacer:
    def test_waits_until_scheduled_instant(self):
        clock = FakeClock(start=100.0)
        pacer = ArrivalPacer(time_scale=1.0, clock=clock, sleep=clock.sleep)
        pacer.start()
        assert pacer.wait_until(2.5) == 0.0
        assert clock.now == pytest.approx(102.5)

    def test_time_scale_compresses_the_schedule(self):
        clock = FakeClock()
        pacer = ArrivalPacer(time_scale=0.05, clock=clock, sleep=clock.sleep)
        pacer.start()
        pacer.wait_until(60.0)
        assert clock.now == pytest.approx(3.0)

    def test_late_arrivals_never_wait(self):
        clock = FakeClock()
        pacer = ArrivalPacer(time_scale=1.0, clock=clock, sleep=clock.sleep)
        pacer.start()
        clock.now += 5.0  # execution fell behind schedule
        lateness = pacer.wait_until(2.0)
        assert lateness == pytest.approx(3.0)
        assert clock.sleeps == []
        assert pacer.max_lateness_s == pytest.approx(3.0)

    def test_max_lateness_tracks_the_worst_case(self):
        clock = FakeClock()
        pacer = ArrivalPacer(time_scale=1.0, clock=clock, sleep=clock.sleep)
        pacer.start()
        clock.now = 4.0
        pacer.wait_until(1.0)
        pacer.wait_until(3.0)
        assert pacer.max_lateness_s == pytest.approx(3.0)

    def test_unstarted_pacer_rejected(self):
        pacer = ArrivalPacer()
        with pytest.raises(ConfigurationError):
            pacer.wait_until(0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ArrivalPacer(time_scale=0.0)
