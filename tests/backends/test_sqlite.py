"""Tests for the in-process SQLite backend."""

import sqlite3
import threading

import pytest

from repro.backends.base import ErrorKind, Operation, OpKind
from repro.backends.plan import PlannedStatement, StatementPlan
from repro.backends.runner import BackendRunner, RunConfig
from repro.backends.sqlite import SQLiteBackend
from repro.engine.query import CostVector, StatementType
from repro.errors import ConfigurationError


@pytest.fixture
def backend():
    driver = SQLiteBackend()
    driver.setup(seed=1, rows=500)
    yield driver
    driver.teardown()


def _kv_snapshot(driver):
    conn = driver.connect()
    try:
        return conn.execute("SELECT k, v FROM kv ORDER BY k").fetchall()
    finally:
        conn.close()


class TestSetup:
    def test_seeding_is_deterministic(self):
        first, second = SQLiteBackend(), SQLiteBackend()
        first.setup(seed=7, rows=200)
        second.setup(seed=7, rows=200)
        assert _kv_snapshot(first) == _kv_snapshot(second)
        first.teardown(), second.teardown()

    def test_different_seeds_differ(self):
        first, second = SQLiteBackend(), SQLiteBackend()
        first.setup(seed=7, rows=200)
        second.setup(seed=8, rows=200)
        assert _kv_snapshot(first) != _kv_snapshot(second)
        first.teardown(), second.teardown()

    def test_memory_databases_are_isolated(self):
        first, second = SQLiteBackend(), SQLiteBackend()
        first.setup(seed=1, rows=10)
        second.setup(seed=1, rows=20)
        assert len(_kv_snapshot(first)) == 10
        assert len(_kv_snapshot(second)) == 20
        first.teardown(), second.teardown()

    def test_execute_before_setup_rejected(self):
        driver = SQLiteBackend()
        conn = driver.connect()
        with pytest.raises(ConfigurationError, match="setup"):
            driver.execute(conn, Operation(OpKind.POINT_READ))
        conn.close()

    def test_bad_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            SQLiteBackend().setup(rows=0)
        with pytest.raises(ConfigurationError):
            SQLiteBackend(busy_timeout_s=-1.0)


class TestExecute:
    def test_point_read_touches_one_row(self, backend):
        conn = backend.connect()
        assert backend.execute(conn, Operation(OpKind.POINT_READ, key=3)) == 1
        conn.close()

    def test_point_write_reports_rowcount(self, backend):
        conn = backend.connect()
        op = Operation(OpKind.POINT_WRITE, key=10, span=5, payload="x")
        assert backend.execute(conn, op) == 5
        got = conn.execute("SELECT v FROM kv WHERE k = 12").fetchone()
        assert got == ("x",)
        conn.close()

    def test_range_agg_spans_requested_rows(self, backend):
        conn = backend.connect()
        op = Operation(OpKind.RANGE_AGG, key=0, span=100)
        assert backend.execute(conn, op) == 100
        conn.close()

    def test_keys_wrap_into_the_seeded_space(self, backend):
        conn = backend.connect()
        op = Operation(OpKind.POINT_READ, key=500 + 3)  # wraps to 3
        assert backend.execute(conn, op) == 1
        conn.close()

    def test_maintenance_runs(self, backend):
        conn = backend.connect()
        assert backend.execute(conn, Operation(OpKind.MAINTENANCE)) >= 1
        conn.close()

    def test_expired_deadline_interrupts(self, backend):
        conn = backend.connect()
        op = Operation(OpKind.RANGE_AGG, key=0, span=500)
        with pytest.raises(sqlite3.OperationalError) as excinfo:
            backend.execute(conn, op, deadline=-1.0)
        assert backend.classify_error(excinfo.value) is ErrorKind.TIMEOUT
        conn.close()

    def test_deadline_handler_is_removed_after_execute(self, backend):
        conn = backend.connect()
        op = Operation(OpKind.RANGE_AGG, key=0, span=500)
        with pytest.raises(sqlite3.OperationalError):
            backend.execute(conn, op, deadline=-1.0)
        # same statement, no deadline: the stale handler must not fire
        assert backend.execute(conn, op) == 500
        conn.close()


class TestHealthAndTaxonomy:
    def test_healthcheck(self, backend):
        conn = backend.connect()
        assert backend.healthcheck(conn)
        conn.close()
        assert not backend.healthcheck(conn)

    @pytest.mark.parametrize(
        "error, kind",
        [
            (sqlite3.OperationalError("interrupted"), ErrorKind.TIMEOUT),
            (sqlite3.OperationalError("database is locked"), ErrorKind.TRANSIENT),
            (sqlite3.OperationalError("database table is locked"), ErrorKind.TRANSIENT),
            (sqlite3.OperationalError("no such table: kv"), ErrorKind.FATAL),
            (sqlite3.IntegrityError("UNIQUE constraint failed"), ErrorKind.CONSTRAINT),
            (TimeoutError(), ErrorKind.TIMEOUT),
            (ValueError("bug"), ErrorKind.FATAL),
        ],
    )
    def test_classification(self, backend, error, kind):
        assert backend.classify_error(error) is kind


class HeldWriteLock(SQLiteBackend):
    """A second connection holds a write transaction from setup on, and
    commits it when the ``release_after``-th blocked write fails: the
    driver, not a timer, decides when the writers get through.  The check
    and the commit are one step under a lock: two blocked workers must
    not both see the holder in its transaction and both commit it."""

    def __init__(self, release_after):
        super().__init__(busy_timeout_s=0.0)
        self.release_after = release_after
        self.blocked = []
        self._holder = None
        self._release = threading.Lock()

    def setup(self, seed=0, rows=10_000):
        super().setup(seed=seed, rows=rows)
        self._holder = self.connect()
        self._holder.execute("BEGIN IMMEDIATE")

    def execute(self, conn, op, deadline=None):
        try:
            return super().execute(conn, op, deadline)
        except sqlite3.OperationalError as error:
            # SQLITE_LOCKED_SHAREDCACHE: "database table is locked"
            self.blocked.append((str(error), self.classify_error(error)))
            with self._release:
                if len(self.blocked) >= self.release_after and self._holder.in_transaction:
                    self._holder.execute("COMMIT")
            raise

    def teardown(self):
        self._holder.close()
        super().teardown()


class TestContention:
    def test_blocked_writes_are_retried_until_the_holder_commits(self):
        cost = CostVector(cpu_seconds=0.01)
        plan = StatementPlan(
            statements=tuple(
                PlannedStatement(
                    index=i,
                    submit_at=0.0,
                    workload="oltp",
                    request_class="w",
                    statement_type=StatementType.WRITE,
                    priority=1,
                    estimated_cost=cost,
                    true_cost=cost,
                    op=Operation(OpKind.POINT_WRITE, key=i, span=2),
                    sql_label="oltp:w",
                )
                for i in range(30)
            ),
            horizon=1.0,
            seed=0,
        )
        driver = HeldWriteLock(release_after=3)
        config = RunConfig(mpl=2, time_scale=1e-6, max_retries=8, rows=200)
        report = BackendRunner(driver, plan, config, sleep=lambda _s: None).run()
        assert len(driver.blocked) >= 3
        for message, kind in driver.blocked:
            assert "locked" in message or "busy" in message
            assert kind is ErrorKind.TRANSIENT
        assert report.recorded == report.planned == report.completed == 30
        assert report.retries >= 1
        assert report.retries == len(driver.blocked)
