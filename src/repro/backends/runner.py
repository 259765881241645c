"""The backend runner: paced, rate-limited, robust statement execution.

:class:`BackendRunner` plays a :class:`~repro.backends.plan.StatementPlan`
against a real :class:`~repro.backends.base.BackendDriver`:

* the main thread paces arrivals at their scheduled instants
  (:class:`~repro.backends.rate.ArrivalPacer`) and applies the optional
  max-rate token bucket;
* an optional :class:`~repro.core.policy.AdmissionPolicy` — the one
  :class:`~repro.admission.threshold.ThresholdAdmission` reads — may
  reject a statement on its *estimated* cost, read at its plan instant,
  or on the outstanding count standing in for "running", before it
  ever reaches the engine.  Only a reject verdict rejects: a queue
  verdict is admitted: it waits in the FIFO below;
* one FIFO drained by ``mpl`` worker threads; the FIFO is the wait queue.
  Worker ``i`` runs each statement over pool slot ``i``'s connection
  with a timeout, bounded exponential-backoff retry of transient errors
  and the :class:`~repro.backends.base.ErrorKind` taxonomy deciding its
  final :class:`~repro.engine.query.QueryState`; an error outside the taxonomy
  (a driver bug) stops every worker and :meth:`BackendRunner.run` re-raises it;
* an optional sleep throttle stretches matching statements' service
  time by ``sleep/(1-sleep)`` — precisely the paper's §4.2.2 "constant
  throttle" (many short self-imposed sleeps ≡ a speed cap of
  ``1-sleep``), which is what the simulator's ``set_throttle`` applies.

Every statement — completed, rejected, killed or aborted — is recorded
through the standard :class:`~repro.workloads.traces.QueryLog`, so
the DBQL pipeline (calibration, the Workload Analyzer, ``WorkloadStats``)
works unchanged on real traces.  Times in the log are wall-clock seconds
relative to the run's start.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional

from repro.backends.base import (
    BackendDriver,
    ERROR_FINAL_STATE,
    ErrorKind,
)
from repro.backends.plan import PlannedStatement, StatementPlan
from repro.backends.pool import ConnectionPool, PoolStats
from repro.backends.rate import ArrivalPacer, TokenBucket
from repro.core.policy import AdmissionPolicy, ThresholdAction
from repro.engine.query import Query, QueryState
from repro.errors import ConfigurationError
from repro.workloads.traces import QueryLog


@dataclass(frozen=True)
class RunConfig:
    """Knobs of a real-backend run."""

    mpl: int = 4                               # concurrent statements, and connections
    max_rate: Optional[float] = None           # token bucket, stmts/sec
    time_scale: float = 1.0                    # real secs per schedule sec
    statement_timeout_s: Optional[float] = 5.0
    max_retries: int = 2
    rows: int = 10_000                         # seeded table size

    def __post_init__(self) -> None:
        if self.mpl < 1:
            raise ConfigurationError(f"mpl must be >= 1, got {self.mpl}")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")


@dataclass(frozen=True)
class SleepThrottle:
    """Constant throttle: stretch matching statements by a sleep.

    A sleep fraction ``s`` after a statement that ran for ``t`` seconds
    sleeps ``t * s/(1-s)``, making the statement's total service time
    ``t/(1-s)`` — the same stretch a fluid-engine speed cap of ``1-s``
    produces (§4.2.2).
    """

    workloads: FrozenSet[str] = frozenset()
    sleep_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.sleep_fraction < 1.0:
            raise ConfigurationError(
                f"sleep_fraction must be in [0,1), got {self.sleep_fraction}"
            )

    def applies_to(self, workload: Optional[str]) -> bool:
        return not self.workloads or workload in self.workloads

    def stretch_for(self, elapsed: float) -> float:
        s = self.sleep_fraction
        return elapsed * s / (1.0 - s) if s > 0 else 0.0


@dataclass
class RunReport:
    """Everything a real run produced, log included."""

    log: QueryLog
    planned: int = 0
    completed: int = 0
    rejected: int = 0
    killed: int = 0
    aborted: int = 0
    retries: int = 0
    timeouts: int = 0
    rows_touched: int = 0
    wall_s: float = 0.0
    rate_wait_s: float = 0.0
    max_lateness_s: float = 0.0
    error_counts: Dict[str, int] = field(default_factory=dict)
    pool: PoolStats = field(default_factory=PoolStats)

    @property
    def recorded(self) -> int:
        return len(self.log)

    @property
    def conserved(self) -> bool:
        """Every planned statement has exactly one log record."""
        return self.recorded == self.planned

    @property
    def effective_rate(self) -> float:
        return self.recorded / self.wall_s if self.wall_s > 0 else 0.0

    def summary_line(self) -> str:
        return (
            f"{self.planned} planned: {self.completed} completed, "
            f"{self.rejected} rejected, {self.killed} killed, "
            f"{self.aborted} aborted ({self.retries} retries, "
            f"{self.timeouts} timeouts) in {self.wall_s:.3f}s wall "
            f"({self.effective_rate:.0f} stmts/s)"
        )


class BackendRunner:
    """Execute a statement plan against a backend driver.

    ``clock``/``sleep`` are injectable for tests; production runs use
    ``time.monotonic``/``time.sleep``.
    """

    def __init__(
        self,
        driver: BackendDriver,
        plan: StatementPlan,
        config: Optional[RunConfig] = None,
        admission: Optional[AdmissionPolicy] = None,
        throttle: Optional[SleepThrottle] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.driver = driver
        self.plan = plan
        self.config = config or RunConfig()
        self.admission = admission
        self.throttle = throttle
        self._clock = clock
        self._sleep = sleep
        self._t0 = 0.0
        self._lock = threading.Lock()
        self._outstanding = 0
        self._report: Optional[RunReport] = None
        # the first error that escaped a worker or the pacing loop
        self._failure: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def _now(self) -> float:
        """Seconds since the run started (what the log records)."""
        return self._clock() - self._t0

    def _record(self, query: Query) -> None:
        with self._lock:
            self._report.log.record_query(query)

    # ------------------------------------------------------------------
    def run(self) -> RunReport:
        """Set up, pace every statement through, and report."""
        config = self.config
        report = RunReport(log=QueryLog(), planned=len(self.plan))
        self._report = report
        # Pool, pacer and bucket validate their settings and touch nothing
        # yet (the pool connects on acquire, the pacer anchors on start),
        # so a run that cannot start raises before ``driver.setup``.
        pool = ConnectionPool(self.driver, size=config.mpl)
        report.pool = pool.stats
        pacer = ArrivalPacer(
            time_scale=config.time_scale, clock=self._clock, sleep=self._sleep
        )
        bucket = (
            TokenBucket(config.max_rate, clock=self._clock, sleep=self._sleep)
            if config.max_rate is not None
            else None
        )
        self.driver.setup(seed=0, rows=config.rows)
        self._failure = None
        pending: "queue.SimpleQueue" = queue.SimpleQueue()
        workers = []
        try:
            for index in range(config.mpl):
                workers.append(threading.Thread(target=self._work, args=(pool, index, pending),
                                                name=f"repro-backend-{index}", daemon=True))
                workers[-1].start()
            self._t0 = pacer.start()
            for statement in self.plan:
                if self._failure is not None:
                    break
                pacer.wait_until(statement.submit_at)
                if bucket is not None:
                    bucket.acquire()
                query = statement.make_query()
                query.transition(QueryState.SUBMITTED)
                query.submit_time = self._now()
                if self.admission is not None:
                    with self._lock:
                        outstanding = self._outstanding
                    broken = self.admission.violation(
                        query.estimated_cost.total_work, outstanding, statement.submit_at
                    )
                    if broken is not None and broken[1] is ThresholdAction.REJECT:
                        query.transition(QueryState.REJECTED)
                        query.end_time = self._now()
                        report.rejected += 1
                        self._record(query)
                        continue
                query.transition(QueryState.QUEUED)
                with self._lock:
                    self._outstanding += 1
                pending.put((query, statement))
        except BaseException as error:
            self._fail(error)
            raise
        finally:
            for _ in workers:
                pending.put(None)
            for worker in workers:
                worker.join()
            pool.close()
            self.driver.teardown()
        if self._failure is not None:
            raise self._failure
        report.wall_s = self._now()
        report.max_lateness_s = pacer.max_lateness_s
        if bucket is not None:
            report.rate_wait_s = bucket.total_wait_s
        return report

    # ------------------------------------------------------------------
    def _fail(self, error: BaseException) -> None:
        with self._lock:
            if self._failure is None:
                self._failure = error

    def _work(self, pool: ConnectionPool, slot: int, pending: "queue.SimpleQueue") -> None:
        """Worker thread: drain the FIFO over pool slot ``slot`` until its
        sentinel or a failure."""
        try:
            for item in iter(pending.get, None):
                if self._failure is not None:
                    return
                self._execute_one(pool, slot, *item)
        except BaseException as error:  # noqa: BLE001 - re-raised by run()
            self._fail(error)

    def _execute_one(
        self, pool: ConnectionPool, slot: int, query: Query, statement: PlannedStatement
    ) -> None:
        """Worker body: timeout, bounded retry, taxonomy, recording."""
        config = self.config
        report = self._report
        attempts = 0
        try:
            while True:
                conn = pool.acquire(slot)
                if query.start_time is None:
                    query.transition(QueryState.RUNNING)
                    query.start_time = self._now()
                began = self._clock()
                timeout = config.statement_timeout_s
                deadline = None if timeout is None else began + timeout
                kind: Optional[ErrorKind] = None
                try:
                    rows = self.driver.execute(conn, statement.op, deadline)
                    elapsed = self._clock() - began
                except Exception as error:  # noqa: BLE001 - taxonomy below
                    kind = self.driver.classify_error(error)
                    if kind is ErrorKind.FATAL:
                        pool.release(slot)
                if kind is None:
                    throttle = self.throttle
                    if throttle is not None and throttle.applies_to(query.workload_name):
                        stretch = throttle.stretch_for(elapsed)
                        if stretch > 0:
                            self._sleep(stretch)
                    query.progress = 1.0
                    query.transition(QueryState.COMPLETED)
                    query.end_time = self._now()
                    with self._lock:
                        report.completed += 1
                        report.rows_touched += rows
                    self._record(query)
                    return
                if kind.retryable and attempts < config.max_retries:
                    attempts += 1
                    with self._lock:
                        report.retries += 1
                    self._sleep(0.005 * 2 ** (attempts - 1))  # exponential backoff
                    continue
                final = ERROR_FINAL_STATE[kind]
                query.transition(final)
                query.end_time = self._now()
                with self._lock:
                    if final is QueryState.KILLED:
                        report.killed += 1
                    else:
                        report.aborted += 1
                    if kind is ErrorKind.TIMEOUT:
                        report.timeouts += 1
                    report.error_counts[kind.value] = report.error_counts.get(kind.value, 0) + 1
                self._record(query)
                return
        finally:
            with self._lock:
                self._outstanding -= 1

def run_plan(
    driver: BackendDriver,
    plan: StatementPlan,
    config: Optional[RunConfig] = None,
    admission: Optional[AdmissionPolicy] = None,
    throttle: Optional[SleepThrottle] = None,
) -> RunReport:
    """One-call convenience wrapper around :class:`BackendRunner`."""
    return BackendRunner(
        driver, plan, config=config, admission=admission, throttle=throttle
    ).run()
