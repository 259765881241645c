"""Tests for the per-worker connection slots."""

import threading

import pytest

from repro.backends.base import BackendDriver, ErrorKind
from repro.backends.pool import HEALTH_CHECK_EVERY, ConnectionPool
from repro.backends.runner import RunConfig
from repro.errors import ConfigurationError
from tests.backends.test_runner import ScriptedDriver, _plan, _run, _statement


class FakeConn:
    def __init__(self, serial):
        self.serial = serial
        self.closed = False


class ConnectFailed(Exception):
    pass


class FakeDriver(BackendDriver):
    """Scriptable driver: counts connections, toggleable health, and
    ``connect`` raises on the attempts listed in ``failing_connects``."""

    name = "fake"

    def __init__(self, healthy=True, failing_connects=()):
        self.healthy = healthy
        self.failing_connects = set(failing_connects)
        self.attempts = 0
        self.connected = 0
        self.closed = []

    def setup(self, seed=0, rows=10_000):
        pass

    def connect(self):
        self.attempts += 1
        if self.attempts in self.failing_connects:
            raise ConnectFailed(f"connect attempt {self.attempts} failed")
        self.connected += 1
        return FakeConn(self.connected)

    def close_connection(self, conn):
        conn.closed = True
        self.closed.append(conn.serial)

    def healthcheck(self, conn):
        return self.healthy and not conn.closed

    def execute(self, conn, op, deadline=None):
        if op.key == 0:
            raise RuntimeError("the first statement fails")
        return 0

    def classify_error(self, error):
        return ErrorKind.FATAL


def _use(pool, slot, times):
    for _ in range(times):
        pool.acquire(slot)


class TestSlots:
    def test_a_slot_connects_on_its_first_use(self):
        driver = FakeDriver()
        pool = ConnectionPool(driver, size=3)
        assert pool.live_connections == 0
        conns = [pool.acquire(slot) for slot in range(3)]
        assert [conn.serial for conn in conns] == [1, 2, 3]
        assert pool.live_connections == pool.stats.created == 3

    def test_a_slot_keeps_its_connection(self):
        driver = FakeDriver()
        pool = ConnectionPool(driver, size=2)
        conn = pool.acquire(1)
        assert pool.acquire(1) is conn
        assert driver.connected == 1
        assert pool.acquire(0) is not conn

    def test_size_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ConnectionPool(FakeDriver(), size=0)

    def test_a_worker_that_runs_nothing_opens_no_connection(self):
        # four workers, one statement: only the worker that ran it connected
        driver = ScriptedDriver()
        report = _run(driver, _plan([_statement(0)]), RunConfig(mpl=4, time_scale=1e-6))
        assert report.completed == 1
        assert report.pool.created == len(driver.users) == 1
        assert not driver.open_connections


class TestHealth:
    def test_every_nth_acquire_runs_a_health_check(self):
        pool = ConnectionPool(FakeDriver(), size=1)
        _use(pool, 0, 2 * HEALTH_CHECK_EVERY)
        assert pool.stats.health_checks == 2
        assert pool.stats.health_failures == 0

    def test_an_unhealthy_connection_is_replaced(self):
        driver = FakeDriver()
        pool = ConnectionPool(driver, size=1)
        _use(pool, 0, HEALTH_CHECK_EVERY - 1)
        driver.healthy = False
        conn = pool.acquire(0)
        assert pool.stats.health_failures == pool.stats.recycled == 1
        assert conn.serial == 2  # the replacement, not the original
        assert driver.closed == [1]
        assert pool.live_connections == 1

    def test_release_closes_and_empties_the_slot(self):
        driver = FakeDriver()
        pool = ConnectionPool(driver, size=1)
        conn = pool.acquire(0)
        pool.release(0)
        assert conn.closed and pool.stats.recycled == 1
        assert pool.live_connections == 0
        fresh = pool.acquire(0)
        assert not fresh.closed and fresh.serial == 2

    def test_a_reopened_connection_starts_its_own_use_count(self):
        driver = FakeDriver()
        pool = ConnectionPool(driver, size=1)
        _use(pool, 0, HEALTH_CHECK_EVERY - 1)
        pool.release(0)
        _use(pool, 0, HEALTH_CHECK_EVERY - 1)
        assert pool.stats.health_checks == 0
        pool.acquire(0)
        assert pool.stats.health_checks == 1

    def test_a_health_check_that_raises_counts_as_a_failure(self):
        driver = FakeDriver()
        pool = ConnectionPool(driver, size=1)
        _use(pool, 0, HEALTH_CHECK_EVERY - 1)

        def broken(conn):
            raise ConnectionResetError("server went away")

        driver.healthcheck = broken
        conn = pool.acquire(0)
        assert pool.stats.health_checks == pool.stats.health_failures == 1
        assert conn.serial == 2 and driver.closed == [1]


class TestFailedReconnect:
    def test_a_failed_reconnect_raises_and_the_next_acquire_retries(self):
        driver = FakeDriver(failing_connects={2})
        pool = ConnectionPool(driver, size=1)
        first = pool.acquire(0)
        pool.release(0)
        assert first.closed
        with pytest.raises(ConnectFailed):
            pool.acquire(0)
        assert pool.live_connections == 0
        again = pool.acquire(0)
        assert again.serial == 2 and not again.closed
        assert pool.live_connections == 1 <= pool.size

    def test_a_failed_health_check_reconnect_leaves_the_slot_empty(self):
        driver = FakeDriver(failing_connects={2})
        pool = ConnectionPool(driver, size=1)
        _use(pool, 0, HEALTH_CHECK_EVERY - 1)
        driver.healthy = False
        with pytest.raises(ConnectFailed):
            pool.acquire(0)
        assert driver.closed == [1] and pool.live_connections == 0
        driver.healthy = True
        assert pool.acquire(0).serial == 2

    def test_a_run_whose_reconnect_fails_ends_with_that_error(self):
        # statement 0 is FATAL, so its connection is closed; reconnecting
        # for statement 1 raises, and the run ends with that error
        driver = FakeDriver(failing_connects={2})
        plan = _plan(_statement(i) for i in range(5))
        with pytest.raises(ConnectFailed, match="connect attempt 2"):
            _run(driver, plan, RunConfig(mpl=1, time_scale=1e-6))
        assert not [t for t in threading.enumerate() if t.name.startswith("repro-backend")]
        assert driver.connected == len(driver.closed) == 1


class TestClose:
    def test_close_closes_every_open_slot(self):
        driver = FakeDriver()
        pool = ConnectionPool(driver, size=3)
        first, third = pool.acquire(0), pool.acquire(2)
        pool.close()
        assert first.closed and third.closed
        assert pool.live_connections == 0
        assert sorted(driver.closed) == [1, 2]

    def test_a_close_that_raises_still_empties_its_slot(self):
        driver = FakeDriver()
        pool = ConnectionPool(driver, size=2)
        first, second = pool.acquire(0), pool.acquire(1)
        closed_by_driver = driver.close_connection

        def flaky_close(conn):
            if conn is first:
                raise OSError("socket already gone")
            closed_by_driver(conn)

        driver.close_connection = flaky_close
        pool.close()
        assert pool.live_connections == 0
        assert second.closed and driver.closed == [2]

    def test_acquire_after_close_rejected(self):
        driver = FakeDriver()
        pool = ConnectionPool(driver, size=1)
        pool.acquire(0)
        pool.close()
        with pytest.raises(ConfigurationError):
            pool.acquire(0)
        assert driver.attempts == 1 and pool.live_connections == 0
