"""Query model: cost vectors, plans, and lifecycle state.

A :class:`Query` is the unit of work the whole library manipulates — the
paper's "request".  It carries two cost vectors:

* ``true_cost`` — what executing the query actually consumes.  Only the
  execution engine looks at this.
* ``estimated_cost`` — what the optimizer *predicted* (see
  :mod:`repro.engine.optimizer`).  Admission control, scheduling and the
  commercial system models only ever see the estimate; the gap between
  the two is what makes execution control necessary (paper §2.3).

A query also carries a :class:`QueryPlan` — an ordered pipeline of
:class:`PlanOperator` — used by progress indicators
(:mod:`repro.execution.progress`), query restructuring
(:mod:`repro.scheduling.restructuring`) and suspend/resume checkpointing
(:mod:`repro.execution.suspend_resume`).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import QueryStateError

_query_ids = itertools.count(1)


class QueryState(enum.Enum):
    """Lifecycle of a request moving through the management pipeline."""

    CREATED = "created"
    SUBMITTED = "submitted"        # arrived at the server, being identified
    QUEUED = "queued"              # held in a wait queue by scheduling
    REJECTED = "rejected"          # denied by admission control
    RUNNING = "running"            # in the execution engine
    BLOCKED = "blocked"            # waiting for a lock
    SUSPENDED = "suspended"        # checkpointed and evicted from the engine
    KILLED = "killed"              # cancelled by execution control
    COMPLETED = "completed"
    ABORTED = "aborted"            # attempt lost (wait-die, restart, crash); re-enters

    @property
    def is_terminal(self) -> bool:
        return self in (QueryState.REJECTED, QueryState.KILLED, QueryState.COMPLETED)


class StatementType(enum.Enum):
    """Statement types used by work-class identification (paper §2.2)."""

    READ = "READ"
    WRITE = "WRITE"
    DML = "DML"
    DDL = "DDL"
    LOAD = "LOAD"
    CALL = "CALL"
    UTILITY = "UTILITY"


@dataclass(frozen=True, slots=True)
class CostVector:
    """Resource demand of a query.

    ``cpu_seconds`` and ``io_seconds`` are seconds of dedicated service on
    the respective device; ``memory_mb`` is held for the whole run;
    ``lock_count`` is the number of row locks an update transaction takes;
    ``rows`` is the result cardinality (drives rows-returned thresholds).
    """

    cpu_seconds: float = 0.0
    io_seconds: float = 0.0
    memory_mb: float = 0.0
    lock_count: int = 0
    rows: int = 0

    @property
    def nominal_duration(self) -> float:
        """Unloaded run time: CPU and I/O overlap, the max dominates."""
        return max(self.cpu_seconds, self.io_seconds)

    @property
    def total_work(self) -> float:
        """Total device-seconds demanded (a scalar 'size' for the query)."""
        return self.cpu_seconds + self.io_seconds

    def scaled(self, factor: float) -> "CostVector":
        """Return a copy with time-like dimensions scaled by ``factor``."""
        return CostVector(
            cpu_seconds=self.cpu_seconds * factor,
            io_seconds=self.io_seconds * factor,
            memory_mb=self.memory_mb,
            lock_count=self.lock_count,
            rows=self.rows,
        )

    def __add__(self, other: "CostVector") -> "CostVector":
        return CostVector(
            cpu_seconds=self.cpu_seconds + other.cpu_seconds,
            io_seconds=self.io_seconds + other.io_seconds,
            memory_mb=self.memory_mb + other.memory_mb,
            lock_count=self.lock_count + other.lock_count,
            rows=self.rows + other.rows,
        )


@dataclass(frozen=True, slots=True)
class PlanOperator:
    """One operator in a query execution plan.

    ``work_fraction`` is the share of the query's total work performed by
    this operator; fractions over a plan sum to 1.  ``state_mb`` is the
    size of the operator's in-flight state (hash tables, sort runs) — the
    cost of dumping a checkpoint for suspend/resume.  ``blocking`` marks
    pipeline breakers (sorts, hash builds) whose output cannot be
    consumed until they finish; GoBack suspension must re-run work since
    the last blocking edge.
    """

    name: str
    work_fraction: float
    state_mb: float = 0.0
    blocking: bool = False


#: A request class's operator shape, ``(names, blocking flags,
#: state_mb)``: the part of a plan that does not depend on the draw.
PlanShape = Tuple[Tuple[str, ...], Tuple[bool, ...], float]


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """An ordered pipeline of operators."""

    operators: Sequence[PlanOperator]

    def __post_init__(self) -> None:
        total = sum(op.work_fraction for op in self.operators)
        if self.operators and abs(total - 1.0) > 1e-6:
            raise ValueError(f"plan work fractions sum to {total}, expected 1.0")

    @classmethod
    def from_split(cls, shape: PlanShape, fractions: Sequence[float]) -> QueryPlan:
        """The plan of ``shape``'s operators carrying ``fractions``.

        The split is not checked here: :meth:`WorkloadSpec.draw
        <repro.workloads.models.WorkloadSpec.draw>` checks every row it
        draws, on the whole block at once.
        """
        names, blocking, state_mb = shape
        plan = object.__new__(cls)
        object.__setattr__(
            plan,
            "operators",
            tuple(map(PlanOperator, names, fractions, itertools.repeat(state_mb), blocking)),
        )
        return plan

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def operator_at_progress(self, progress: float) -> int:
        """Index of the operator active at overall ``progress`` ∈ [0, 1]."""
        cumulative = 0.0
        for index, op in enumerate(self.operators):
            cumulative += op.work_fraction
            if progress < cumulative - 1e-12:
                return index
        return max(len(self.operators) - 1, 0)

    def progress_at_operator_start(self, index: int) -> float:
        """Overall progress reached when operator ``index`` begins."""
        return sum(op.work_fraction for op in self.operators[:index])

    @staticmethod
    def trivial() -> "QueryPlan":
        """The single-operator plan for queries nobody needs to introspect.

        One immutable instance, shared by every query built without a
        plan: a plan is never mutated, only replaced.
        """
        return _TRIVIAL_PLAN

    @staticmethod
    def uniform(names: Sequence[str], state_mb: float = 0.0) -> "QueryPlan":
        """A plan with equal work split across ``names``."""
        fraction = 1.0 / len(names)
        return QueryPlan(
            operators=tuple(PlanOperator(n, fraction, state_mb=state_mb) for n in names)
        )


_TRIVIAL_PLAN = QueryPlan(operators=(PlanOperator("scan", 1.0),))


@dataclass(slots=True)
class Query:
    """A request flowing through the workload-management pipeline."""

    true_cost: CostVector
    estimated_cost: CostVector
    statement_type: StatementType = StatementType.READ
    plan: QueryPlan = _TRIVIAL_PLAN
    session_id: Optional[int] = None
    workload_name: Optional[str] = None
    priority: int = 1               # business priority: larger = more important
    query_id: int = field(default_factory=_query_ids.__next__)
    sql: str = ""
    #: database objects (tables/views) the query accesses — the "where"
    #: dimension of Teradata's classification criteria (paper §4.1.3)
    objects: Tuple[str, ...] = ()

    # -- lifecycle bookkeeping, managed by the engine/manager ----------
    state: QueryState = QueryState.CREATED
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    progress: float = 0.0           # fraction of work completed, in [0, 1]
    restarts: int = 0               # attempts ended ABORTED, each to re-enter
    suspend_count: int = 0
    demotions: int = 0              # priority-aging demotions applied
    service_class: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 <= self.progress <= 1:
            raise ValueError(f"progress must be in [0,1], got {self.progress}")

    # ------------------------------------------------------------------
    # derived timings (available once terminal)
    # ------------------------------------------------------------------
    @property
    def response_time(self) -> Optional[float]:
        """Submit-to-completion elapsed time, or None if not finished."""
        if self.end_time is None or self.submit_time is None:
            return None
        return self.end_time - self.submit_time

    @property
    def queueing_delay(self) -> Optional[float]:
        """Time spent before first entering the execution engine."""
        if self.start_time is None or self.submit_time is None:
            return None
        return self.start_time - self.submit_time

    def execution_velocity(self, now: float) -> Optional[float]:
        """Execution velocity per paper §2.1.

        The ratio of the query's *expected* (unloaded) execution time to
        the time it has actually spent in the system so far.  Close to 1
        means negligible delay; close to 0 means significant delay.
        """
        if self.submit_time is None:
            return None
        end = self.end_time if self.end_time is not None else now
        elapsed = end - self.submit_time
        if elapsed <= 0:
            return 1.0
        return min(1.0, self.true_cost.nominal_duration / elapsed)

    # ------------------------------------------------------------------
    # lifecycle transitions (assertions against misuse)
    # ------------------------------------------------------------------
    _ALLOWED = {
        QueryState.CREATED: {QueryState.SUBMITTED},
        # SUBMITTED -> SUBMITTED: a cluster dispatcher placing a
        # request on a node re-runs that node's intake.
        QueryState.SUBMITTED: {
            QueryState.SUBMITTED,
            QueryState.QUEUED,
            QueryState.RUNNING,
            QueryState.REJECTED,
        },
        # QUEUED -> SUBMITTED: a queued request withdrawn from a
        # crashed node and re-submitted elsewhere.
        QueryState.QUEUED: {
            QueryState.SUBMITTED,
            QueryState.RUNNING,
            QueryState.REJECTED,
            QueryState.KILLED,
        },
        QueryState.RUNNING: {
            QueryState.BLOCKED,
            QueryState.SUSPENDED,
            QueryState.KILLED,
            QueryState.COMPLETED,
            QueryState.ABORTED,
        },
        QueryState.BLOCKED: {
            QueryState.RUNNING,
            QueryState.KILLED,
            QueryState.ABORTED,
            QueryState.SUSPENDED,
        },
        QueryState.SUSPENDED: {QueryState.RUNNING, QueryState.QUEUED, QueryState.KILLED},
        QueryState.ABORTED: {QueryState.SUBMITTED, QueryState.QUEUED},
        QueryState.REJECTED: set(),
        QueryState.KILLED: set(),
        QueryState.COMPLETED: set(),
    }

    def transition(self, new_state: QueryState) -> None:
        """Move to ``new_state``, validating against the lifecycle graph."""
        if not self.state._successors & new_state._bit:
            raise QueryStateError(
                f"query {self.query_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def __repr__(self) -> str:  # keep runs debuggable
        return (
            f"Query(id={self.query_id}, wl={self.workload_name!r}, "
            f"state={self.state.value}, prio={self.priority}, "
            f"est={self.estimated_cost.total_work:.2f}s, "
            f"true={self.true_cost.total_work:.2f}s, prog={self.progress:.2f})"
        )


# ``_ALLOWED`` as bits: each state gets one bit and the mask of the
# states it may move to, so ``transition`` tests a bit instead of hashing
# two enum members per call.
for _index, _state in enumerate(QueryState):
    _state._bit = 1 << _index
for _state, _targets in Query._ALLOWED.items():
    _state._successors = sum(target._bit for target in _targets)


def workload_key(query: Query) -> Optional[str]:
    """The query's workload: its identified name, else the ``workload``
    part of the generator's ``tenant/workload:class`` sql tag, else None."""
    if query.workload_name:
        return query.workload_name
    if ":" in query.sql:
        return query.sql.split(":", 1)[0]
    return None


def tenant_key(query: Query) -> Optional[str]:
    """The ``tenant`` part of the query's workload key; None for untenanted
    work (every single-tenant scenario), which tenant quotas exempt."""
    key = workload_key(query)
    return key.split("/", 1)[0] if key and "/" in key else None


def split_query(query: Query, pieces: int) -> List[Query]:
    """Split ``query`` into ``pieces`` equal slices (query restructuring).

    Each slice carries a proportional share of the cost vectors and a
    trivial plan; slices inherit identity-relevant attributes so workload
    classification still maps them to the same workload.  Used by
    :mod:`repro.scheduling.restructuring`, exposed here because it is a
    pure function of the query model.
    """
    if pieces < 1:
        raise ValueError(f"pieces must be >= 1, got {pieces}")
    if pieces == 1:
        return [query]
    fraction = 1.0 / pieces
    slices = []
    for index in range(pieces):
        piece = Query(
            true_cost=query.true_cost.scaled(fraction),
            estimated_cost=query.estimated_cost.scaled(fraction),
            statement_type=query.statement_type,
            session_id=query.session_id,
            workload_name=query.workload_name,
            priority=query.priority,
            sql=f"{query.sql or 'Q'}#slice{index + 1}/{pieces}",
            objects=query.objects,
        )
        slices.append(piece)
    return slices
