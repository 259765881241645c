"""Tests for the backend runner: robustness, admission, recording."""

import sys
import threading
import time
import tracemalloc

import pytest

from repro.backends.base import BackendDriver, ErrorKind
from repro.backends.plan import PlannedStatement, StatementPlan
from repro.backends.base import Operation, OpKind
from repro.backends.runner import BackendRunner, RunConfig, SleepThrottle, run_plan
from repro.core.policy import AdmissionPolicy, ThresholdAction, ThresholdKind
from repro.engine.query import CostVector, QueryState, StatementType
from repro.errors import ConfigurationError


class ScriptedError(Exception):
    def __init__(self, kind):
        super().__init__(kind.value)
        self.kind = kind


class ScriptedDriver(BackendDriver):
    """Driver whose failures are scripted per statement key."""

    name = "scripted"

    def __init__(self, script=None):
        # op.key -> list of ErrorKind to raise before finally succeeding
        self.script = {k: list(v) for k, v in (script or {}).items()}
        self.setup_calls = []
        self.executed = []
        self.torn_down = False
        self.open_connections = set()  # set.add/discard are atomic
        self.users = {}  # connection -> names of the threads that executed on it

    def setup(self, seed=0, rows=10_000):
        self.setup_calls.append((seed, rows))

    def connect(self):
        conn = object()
        self.open_connections.add(conn)
        return conn

    def close_connection(self, conn):
        self.open_connections.discard(conn)

    def healthcheck(self, conn):
        return True

    def execute(self, conn, op, deadline=None):
        self.users.setdefault(conn, set()).add(threading.current_thread().name)
        pending = self.script.get(op.key)
        if pending:
            raise ScriptedError(pending.pop(0))
        self.executed.append(op.key)
        return op.span

    def classify_error(self, error):
        if isinstance(error, ScriptedError):
            return error.kind
        return ErrorKind.FATAL


def _statement(index, work=0.1, submit_at=0.0, workload="oltp"):
    cost = CostVector(cpu_seconds=work)
    return PlannedStatement(
        index=index,
        submit_at=submit_at,
        workload=workload,
        request_class="q",
        statement_type=StatementType.READ,
        priority=1,
        estimated_cost=cost,
        true_cost=cost,
        op=Operation(OpKind.POINT_READ, key=index, span=1),
        sql_label=f"{workload}:q",
    )


def _plan(statements):
    return StatementPlan(statements=tuple(statements), horizon=1.0, seed=0)


FAST = RunConfig(mpl=2, time_scale=1e-6, statement_timeout_s=None)


def _run(driver, plan, config=FAST, **kwargs):
    """``run_plan`` with the retry backoff's (and the pacer's) sleep skipped."""
    return BackendRunner(driver, plan, config, sleep=lambda _s: None, **kwargs).run()


class TestHappyPath:
    def test_every_statement_recorded_exactly_once(self):
        plan = _plan(_statement(i) for i in range(20))
        report = run_plan(ScriptedDriver(), plan, FAST)
        assert report.planned == 20
        assert report.completed == 20
        assert report.conserved
        assert report.rows_touched == 20
        assert all(r.completed for r in report.log)
        assert all(
            r.start_time is not None and r.end_time is not None
            for r in report.log
        )

    def test_driver_lifecycle(self):
        driver = ScriptedDriver()
        config = RunConfig(mpl=1, time_scale=1e-6, rows=123, statement_timeout_s=None)
        run_plan(driver, _plan([_statement(0)]), config)
        assert driver.setup_calls == [(0, 123)]

    def test_mpl_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RunConfig(mpl=0)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"time_scale": 0.0}, "time_scale must be positive"),
            ({"time_scale": -1.0}, "time_scale must be positive"),
            ({"max_rate": -1.0}, "rate must be positive"),
            ({"max_rate": 0.0}, "rate must be positive"),
        ],
    )
    def test_a_run_that_cannot_start_sets_nothing_up(self, fields, message):
        driver = ScriptedDriver()
        with pytest.raises(ConfigurationError, match=message):
            run_plan(driver, _plan([_statement(0)]), RunConfig(**fields))
        assert driver.setup_calls == []


class TestAdmission:
    def test_cost_limit_rejects_expensive_statements(self):
        plan = _plan(
            [_statement(0, work=0.1), _statement(1, work=5.0), _statement(2, work=0.2)]
        )
        report = run_plan(
            ScriptedDriver(), plan, FAST, admission=AdmissionPolicy(reject_over_cost=1.0)
        )
        assert report.completed == 2
        assert report.rejected == 1
        assert report.conserved
        rejected = [r for r in report.log if r.final_state is QueryState.REJECTED]
        assert len(rejected) == 1
        assert rejected[0].estimated_cost.total_work == pytest.approx(5.0)
        assert rejected[0].start_time is None
        assert rejected[0].end_time is not None

    def test_outstanding_limit_zero_rejects_everything(self):
        plan = _plan(_statement(i) for i in range(5))
        report = run_plan(
            ScriptedDriver(),
            plan,
            FAST,
            admission=AdmissionPolicy(max_concurrency=0, queue_when_full=False),
        )
        assert report.rejected == 5
        assert report.completed == 0
        assert report.conserved

    def test_gate_reports_a_reason(self):
        policy = AdmissionPolicy(
            reject_over_cost=1.0, max_concurrency=4, queue_when_full=False
        )
        kind, action, reason = policy.violation(3.0, running=0)
        assert (kind, action) == (ThresholdKind.ESTIMATED_COST, ThresholdAction.REJECT)
        assert reason == "estimated cost 3.0s exceeds limit 1.0s"
        assert policy.violation(0.5, running=4) == (
            ThresholdKind.CONCURRENCY,
            ThresholdAction.REJECT,
            "MPL 4 reached (4 running)",
        )
        assert policy.violation(0.5, running=3) is None

    def test_a_queue_verdict_admits(self):
        # the workers' FIFO is the real side's wait queue
        plan = _plan(_statement(i, work=5.0) for i in range(4))
        report = run_plan(
            ScriptedDriver(),
            plan,
            FAST,
            admission=AdmissionPolicy(max_concurrency=0),
        )
        assert (report.completed, report.rejected) == (4, 0)

    def test_cost_limit_is_read_at_the_plan_instant(self):
        # the override covers plan time [0, 0.5); at time_scale 1e-6 the
        # wall clock never leaves it
        policy = AdmissionPolicy(
            reject_over_cost=1.0, period_overrides=((0.0, 0.5, 10.0),)
        )
        plan = _plan(
            [_statement(0, work=5.0, submit_at=0.1), _statement(1, work=5.0, submit_at=0.9)]
        )
        driver = ScriptedDriver()
        report = run_plan(driver, plan, FAST, admission=policy)
        assert (report.completed, report.rejected) == (1, 1)
        assert driver.executed == [0]


class TestRobustness:
    def test_transient_errors_are_retried_to_success(self):
        driver = ScriptedDriver({0: [ErrorKind.TRANSIENT, ErrorKind.TRANSIENT]})
        report = _run(driver, _plan([_statement(0)]), FAST)
        assert report.completed == 1
        assert report.retries == 2
        assert report.aborted == 0
        assert report.log.records()[0].completed

    def test_exhausted_retries_abort(self):
        driver = ScriptedDriver({0: [ErrorKind.TRANSIENT] * 5})
        report = _run(driver, _plan([_statement(0)]), FAST)
        assert report.completed == 0
        assert report.aborted == 1
        assert report.retries == FAST.max_retries
        assert report.error_counts == {"transient": 1}
        assert report.log.records()[0].final_state is QueryState.ABORTED

    def test_timeout_kills_without_retry(self):
        driver = ScriptedDriver({0: [ErrorKind.TIMEOUT]})
        report = _run(driver, _plan([_statement(0)]), FAST)
        assert report.killed == 1
        assert report.timeouts == 1
        assert report.retries == 0
        assert report.log.records()[0].final_state is QueryState.KILLED

    def test_constraint_aborts_without_retry(self):
        driver = ScriptedDriver({0: [ErrorKind.CONSTRAINT]})
        report = _run(driver, _plan([_statement(0)]), FAST)
        assert report.aborted == 1
        assert report.retries == 0

    def test_fatal_kills_and_recycles_the_connection(self):
        driver = ScriptedDriver({0: [ErrorKind.FATAL]})
        report = _run(driver, _plan([_statement(0), _statement(1)]), FAST)
        assert report.killed == 1
        assert report.completed == 1
        assert report.pool.recycled >= 1
        assert report.conserved

    def test_mixed_outcomes_conserve_the_plan(self):
        driver = ScriptedDriver(
            {
                1: [ErrorKind.TIMEOUT],
                2: [ErrorKind.TRANSIENT],
                3: [ErrorKind.FATAL],
                4: [ErrorKind.CONSTRAINT],
            }
        )
        plan = _plan(_statement(i) for i in range(6))
        report = _run(driver, plan, FAST)
        assert report.conserved
        assert report.completed == 3  # 0, 5, and the retried 2
        assert report.killed == 2
        assert report.aborted == 1
        assert (
            report.completed + report.killed + report.aborted == report.planned
        )


class TestThrottle:
    def test_stretch_matches_the_constant_throttle_formula(self):
        throttle = SleepThrottle(sleep_fraction=0.6)
        # sleeping s of the time stretches service by s/(1-s)
        assert throttle.stretch_for(2.0) == pytest.approx(2.0 * 0.6 / 0.4)
        assert SleepThrottle(sleep_fraction=0.0).stretch_for(2.0) == 0.0

    def test_empty_workload_set_matches_everything(self):
        throttle = SleepThrottle(sleep_fraction=0.5)
        assert throttle.applies_to("oltp")
        assert throttle.applies_to(None)

    def test_named_workload_set_filters(self):
        throttle = SleepThrottle(workloads=frozenset({"bi"}), sleep_fraction=0.5)
        assert throttle.applies_to("bi")
        assert not throttle.applies_to("oltp")

    def test_sleep_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            SleepThrottle(sleep_fraction=1.0)
        with pytest.raises(ConfigurationError):
            SleepThrottle(sleep_fraction=-0.1)

    def test_runner_sleeps_for_matching_workloads(self):
        sleeps = []

        class Recorder(ScriptedDriver):
            def execute(self, conn, op, deadline=None):
                import time as _time

                _time.sleep(0.002)
                return super().execute(conn, op, deadline)

        plan = _plan([_statement(0, workload="bi")])
        runner = BackendRunner(
            Recorder(),
            plan,
            RunConfig(mpl=1, time_scale=1e-6, statement_timeout_s=None),
            throttle=SleepThrottle(workloads=frozenset({"bi"}), sleep_fraction=0.5),
        )
        original_sleep = runner._sleep
        runner._sleep = lambda s: (sleeps.append(s), original_sleep(0))[0]
        report = runner.run()
        assert report.completed == 1
        assert sleeps, "throttle should have stretched the statement"
        assert max(sleeps) >= 0.002  # stretch_for(elapsed>=2ms) at s=0.5

    def test_runner_skips_non_matching_workloads(self):
        sleeps = []
        plan = _plan([_statement(0, workload="oltp")])
        runner = BackendRunner(
            ScriptedDriver(),
            plan,
            RunConfig(mpl=1, time_scale=1e-6, statement_timeout_s=None),
            throttle=SleepThrottle(workloads=frozenset({"bi"}), sleep_fraction=0.9),
            sleep=lambda s: sleeps.append(s),
        )
        report = runner.run()
        assert report.completed == 1
        assert sleeps == []


class TestRateControl:
    def test_max_rate_is_enforced(self):
        plan = _plan(_statement(i) for i in range(10))
        config = RunConfig(
            mpl=2, time_scale=1e-6, max_rate=10.0, statement_timeout_s=None
        )
        report = _run(ScriptedDriver(), plan, config)
        assert report.completed == 10
        # at 10/s the bucket holds one token: 9 waits of at most 1/10 s
        # each (loop time refills a little of each)
        assert 0.89 < report.rate_wait_s <= 0.9 + 1e-9


class CountingDriver(ScriptedDriver):
    """Records the most ``execute`` calls it ever saw at once."""

    def __init__(self):
        super().__init__()
        self._guard = threading.Lock()
        self.active = 0
        self.peak = 0

    def execute(self, conn, op, deadline=None):
        with self._guard:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(0.002)  # long enough for the other worker to enter
            return super().execute(conn, op, deadline)
        finally:
            with self._guard:
                self.active -= 1


class DriverBug(Exception):
    pass


class BrokenDriver(ScriptedDriver):
    """Every ``execute`` fails, and so does classifying the failure."""

    def execute(self, conn, op, deadline=None):
        raise RuntimeError("statement failed")

    def classify_error(self, error):
        raise DriverBug("classify_error is broken")


class UnrecyclableDriver(ScriptedDriver):
    """Every statement is FATAL, and no connection after the first
    ``connections`` can be opened, so reconnecting after a failed one raises."""

    def __init__(self, connections):
        super().__init__({k: [ErrorKind.FATAL] for k in range(100)})
        self.connections = connections

    def connect(self):
        if self.connections == 0:
            raise DriverBug("cannot reconnect")
        self.connections -= 1
        return super().connect()


def _run_with_watchdog(driver, plan, config, seconds=20.0):
    """``run_plan`` on its own thread; return what it returned or raised,
    failing (rather than hanging the suite) if it does not end in time."""
    outcome = {}

    def body():
        try:
            outcome["report"] = _run(driver, plan, config)
        except BaseException as error:  # noqa: BLE001 - handed to the test
            outcome["error"] = error

    watchdog = threading.Thread(target=body, name="runner-watchdog", daemon=True)
    watchdog.start()
    watchdog.join(seconds)
    assert not watchdog.is_alive(), f"run_plan did not return within {seconds}s"
    return outcome


class TestWaitQueue:
    def test_one_worker_executes_in_plan_order(self):
        driver = ScriptedDriver()
        plan = _plan(_statement(i) for i in range(50))
        report = _run(
            driver, plan, RunConfig(mpl=1, time_scale=1e-6, statement_timeout_s=None)
        )
        assert driver.executed == list(range(50))
        assert report.conserved

    def test_at_most_mpl_statements_execute_at_once(self):
        driver = CountingDriver()
        plan = _plan(_statement(i) for i in range(40))
        report = _run(driver, plan, FAST)
        assert driver.peak == FAST.mpl == 2
        assert sorted(driver.executed) == list(range(40))
        ids = [record.query_id for record in report.log]
        assert len(ids) == len(set(ids)) == report.completed == 40

    def test_more_workers_than_cores_lose_no_update(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            driver = ScriptedDriver({k: [ErrorKind.TRANSIENT] for k in range(0, 600, 3)})
            runner = BackendRunner(
                driver,
                _plan(_statement(i) for i in range(600)),
                RunConfig(mpl=8, time_scale=1e-6, statement_timeout_s=None),
                sleep=lambda _s: None,
            )
            report = runner.run()
        finally:
            sys.setswitchinterval(interval)
        assert (report.completed, report.retries, report.recorded) == (600, 200, 600)
        assert runner._outstanding == 0
        assert sorted(driver.executed) == list(range(600))
        # worker i owns pool slot i: no connection is shared between threads
        assert all(len(names) == 1 for names in driver.users.values())
        assert report.pool.created <= 8 and len(driver.users) <= 8

    def test_the_backlog_costs_a_few_hundred_bytes_a_statement(self):
        # a waiting statement is one tuple in the FIFO: its log record
        # and its Query are most of the ~300 B it costs (an executor
        # future per statement would add over 2 KB)
        count = 5_000
        plan = _plan(_statement(i) for i in range(count))
        tracemalloc.start()
        try:
            report = run_plan(ScriptedDriver(), plan, FAST)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.completed == count
        assert peak / count < 1_000

    @pytest.mark.parametrize(
        "driver", [BrokenDriver, lambda: UnrecyclableDriver(connections=2)]
    )
    def test_an_error_outside_the_taxonomy_ends_the_run(self, driver):
        # the error must reach the caller, and every connection opened
        # must be closed
        plan = _plan(_statement(i) for i in range(20))
        driver = driver()
        outcome = _run_with_watchdog(driver, plan, FAST)
        assert isinstance(outcome.get("error"), DriverBug)
        assert not driver.open_connections

    def test_a_worker_error_stops_the_other_workers(self):
        class FirstStatementBreaks(ScriptedDriver):
            def classify_error(self, error):
                raise DriverBug("classify_error is broken")

        driver = FirstStatementBreaks({0: [ErrorKind.FATAL]})
        plan = _plan(_statement(i) for i in range(400))
        outcome = _run_with_watchdog(driver, plan, RunConfig(mpl=4, time_scale=1e-6))
        assert isinstance(outcome.get("error"), DriverBug)
        # the others stop at their next statement, far short of the plan
        assert len(driver.executed) < 100
