"""Backend driver protocol: run the workload against a real DBMS.

Everything else in the library exercises workload-management techniques
on the *simulated* engine.  This package closes the loop the paper's
taxonomy describes for real systems: the same workload specs, executed
as actual SQL statements against an actual database, with the results
recorded through the same :class:`~repro.workloads.traces.QueryLog` the
DBQL pipeline consumes (Jain et al., arXiv 1808.08355, make the case
that captured query logs are the portable substrate for workload
management across engines).

A :class:`BackendDriver` abstracts one engine: it owns schema/data
seeding, connection management, statement execution and — crucially for
per-statement robustness — the mapping from the engine's zoo of
exceptions onto the small :class:`ErrorKind` taxonomy the runner's
retry/kill logic acts on.  Statements themselves are backend-neutral
:class:`Operation` values rendered to SQL by each driver, so one planned
workload runs identically against any driver or the simulator.  One
driver ships, :class:`~repro.backends.sqlite.SQLiteBackend`; tests
script failures through the same protocol.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.engine.query import QueryState


class ErrorKind(enum.Enum):
    """Coarse taxonomy of statement failures, mapped from engine errors.

    The runner only needs to know three things about a failure: is it
    worth retrying (``TRANSIENT`` — lock/busy conflicts, dropped
    connections), did the statement exhaust its time budget
    (``TIMEOUT`` — the real-system analogue of an execution-control
    kill), or is retrying pointless (``CONSTRAINT`` violations abort
    the statement; ``FATAL`` covers everything unrecognized).
    """

    TIMEOUT = "timeout"
    TRANSIENT = "transient"
    CONSTRAINT = "constraint"
    FATAL = "fatal"

    @property
    def retryable(self) -> bool:
        return self is ErrorKind.TRANSIENT


#: How an exhausted/terminal failure is recorded in the query log.
#: ``TIMEOUT`` and ``FATAL`` mirror an execution-control kill;
#: ``TRANSIENT`` (retries exhausted) and ``CONSTRAINT`` mirror a
#: statement abort, the same disposition the simulator's lock protocol
#: records for its wait-die victims.
ERROR_FINAL_STATE = {
    ErrorKind.TIMEOUT: QueryState.KILLED,
    ErrorKind.FATAL: QueryState.KILLED,
    ErrorKind.TRANSIENT: QueryState.ABORTED,
    ErrorKind.CONSTRAINT: QueryState.ABORTED,
}


class OpKind(enum.Enum):
    """Backend-neutral statement shapes the planner emits.

    The four shapes cover the canonical workload mix: OLTP point
    reads/writes, BI range aggregations whose touched-row span scales
    with the spec's sampled cost, and maintenance utilities.
    """

    POINT_READ = "point_read"
    POINT_WRITE = "point_write"
    RANGE_AGG = "range_agg"
    MAINTENANCE = "maintenance"


@dataclass(frozen=True)
class Operation:
    """One backend-neutral statement: a shape plus its parameters.

    ``key`` anchors point operations and range scans in the seeded key
    space; ``span`` is how many rows the statement touches — the knob
    the planner uses to make expensive spec draws expensive SQL.
    """

    kind: OpKind
    key: int = 0
    span: int = 1
    payload: str = ""


class BackendDriver(abc.ABC):
    """One real execution engine behind the backend runner.

    Connections are opaque to the runner — it only moves them between
    the pool and :meth:`execute`.  Drivers must be safe for concurrent
    use of *distinct* connections from multiple threads; a single
    connection is only ever used by one worker (worker ``i`` owns pool
    slot ``i``).
    """

    name: str = "abstract"

    @abc.abstractmethod
    def setup(self, seed: int = 0, rows: int = 10_000) -> None:
        """Create the schema and deterministically seed ``rows`` rows.

        Seeding must be a pure function of ``seed`` and ``rows`` so two
        runs against fresh databases see identical data.
        """

    @abc.abstractmethod
    def connect(self) -> Any:
        """Open and return a new connection."""

    @abc.abstractmethod
    def close_connection(self, conn: Any) -> None:
        """Close a connection (errors are the caller's to ignore)."""

    @abc.abstractmethod
    def healthcheck(self, conn: Any) -> bool:
        """True when the connection can still serve statements."""

    @abc.abstractmethod
    def execute(
        self, conn: Any, op: Operation, deadline: Optional[float] = None
    ) -> int:
        """Run one operation; return the rows touched.

        ``deadline`` is an absolute ``time.monotonic()`` instant after
        which the driver should abort the statement with an error that
        classifies as :attr:`ErrorKind.TIMEOUT`.
        """

    @abc.abstractmethod
    def classify_error(self, error: Exception) -> ErrorKind:
        """Map an exception raised by :meth:`execute` onto the taxonomy."""

    def teardown(self) -> None:
        """Release everything :meth:`setup` created (optional override)."""
