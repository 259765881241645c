"""Workload generators: drive workload specs on a simulator.

A :class:`WorkloadGenerator` turns :class:`~repro.workloads.models.WorkloadSpec`
objects into a stream of submitted queries: it opens sessions carrying
the spec's origin attributes, reads request classes/costs/plans off
blocks of pre-drawn columns (:meth:`WorkloadSpec.draw
<repro.workloads.models.WorkloadSpec.draw>`, the same draw the backend
planner uses), attaches optimizer estimates, and schedules submissions.
Closed workloads resubmit per-client after a think time when notified
of completion.

A spec's ``costs:{name}`` stream is consumed ``_BLOCK_ROWS`` requests at
a time, so the k-th query of a spec is row k of its stream however it
was triggered — an open arrival or a completion, in any order.

The module also ships the canonical workload builders used across
examples, tests and benchmarks — the OLTP / BI / report-batch / utility
mix the paper's introduction motivates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.optimizer import Optimizer, OptimizerProfile
from repro.engine.query import CostVector, Query, StatementType
from repro.engine.sessions import ConnectionAttributes, Session, SessionRegistry
from repro.engine.simulator import Simulator
from repro.workloads.models import (
    BatchArrivals,
    ClosedArrivals,
    Constant,
    Distribution,
    Exponential,
    LogNormal,
    OpenArrivals,
    RequestClass,
    Uniform,
    WorkloadSpec,
)

SubmitFn = Callable[[Query], None]

#: Requests drawn per refill of a spec's row cursor.  A constant, not a
#: knob: 32 / 256 / 2048 rows measured within 10% of each other on the
#: ledger, and a lazily drawn block serves closed populations (whose
#: request count is unknown up front) with the same code as open ones.
_BLOCK_ROWS = 256
_NO_ROWS: Iterator[tuple] = iter(())


class _ClientLoop:
    """A closed spec's client loop: what one completion re-arms.

    ``emit`` is the spec's arrival action (bound to this loop); ``rng``,
    the think stream, stays None until the spec's first re-arm.
    """

    __slots__ = ("think", "label", "rng", "emit")

    def __init__(self, think: Distribution, label: str) -> None:
        self.think = think
        self.label = label
        self.rng = None
        self.emit = None


class WorkloadGenerator:
    """Generates and submits queries for a set of workload specs.

    Parameters
    ----------
    sim:
        The simulator to schedule arrivals on.
    submit:
        Callback receiving each newly created query (normally
        ``WorkloadManager.submit``).
    optimizer:
        Annotates estimated costs.  Defaults to a perfect optimizer.
    """

    def __init__(
        self,
        sim: Simulator,
        submit: SubmitFn,
        optimizer: Optional[Optimizer] = None,
        sessions: Optional[SessionRegistry] = None,
    ) -> None:
        self.sim = sim
        self.submit = submit
        self.optimizer = optimizer or Optimizer(
            OptimizerProfile(), sim.rng("optimizer")
        )
        # Share the manager's registry so identification by connection
        # attributes (static characterization) can resolve sessions.
        self.sessions = sessions if sessions is not None else SessionRegistry()
        self._specs: List[WorkloadSpec] = []
        self._spec_sessions: Dict[str, List[Session]] = {}
        self._next_session: Dict[str, int] = {}
        # Each outstanding closed query maps to its spec's client loop,
        # so a re-arm is one pop, one sample and one schedule.
        self._closed_outstanding: Dict[int, _ClientLoop] = {}  # query_id -> loop
        # Per-spec hot-path handles: the unread rows of the current
        # drawn block and the sql labels, per (spec, class object):
        # specs may share a class.
        self._rows: Dict[str, Iterator[tuple]] = {}
        self._sql_labels: Dict[Tuple[str, int], str] = {}
        self._horizon = 0.0
        self.generated_count = 0

    def add(self, spec: WorkloadSpec) -> None:
        """Register a workload spec (before :meth:`start`)."""
        self._specs.append(spec)

    def start(self, horizon: float) -> None:
        """Schedule all arrivals within ``[0, horizon)``."""
        self._horizon = horizon
        for spec in self._specs:
            sessions = [
                self.sessions.open(spec.session_attributes)
                for _ in range(max(1, spec.sessions))
            ]
            self._spec_sessions[spec.name] = sessions
            self._next_session[spec.name] = 0
            if isinstance(spec.arrivals, ClosedArrivals):
                loop = _ClientLoop(spec.arrivals.think_time, f"think:{spec.name}")
                emit = loop.emit = partial(self._emit, spec, loop)
            else:
                emit = partial(self._emit, spec, None)
            rng = self.sim.rng(f"arrivals:{spec.name}")
            label = f"arrival:{spec.name}"
            for time in spec.arrivals.arrival_times(rng, horizon):
                self.sim.schedule_at(time, emit, label=label)

    def notify_done(self, query: Query) -> None:
        """Tell the generator a query finished (drives closed workloads).

        Wire this to the manager's completion listener.  Open and batch
        workloads ignore it.
        """
        loop = self._closed_outstanding.pop(query.query_id, None)
        if loop is None or self.sim.now >= self._horizon:
            return
        rng = loop.rng
        if rng is None:
            # Created at the first re-arm, not at start(): set-up builds
            # no stream a run may never read.
            rng = loop.rng = self.sim.rng(loop.label)
        self.sim.schedule(max(0.0, loop.think.sample(rng)), loop.emit, label=loop.label)

    # ------------------------------------------------------------------
    def make_query(self, spec: WorkloadSpec) -> Query:
        """Create one query for ``spec`` without submitting it."""
        name = spec.name
        row = next(self._rows.get(name, _NO_ROWS), None)
        if row is None:
            # Refilled here, not at start(): generation cost stays inside
            # this call, and closed workloads draw only what they use.
            rows = self._rows[name] = zip(
                *spec.draw(self.sim.rng(f"costs:{name}"), _BLOCK_ROWS)
            )
            row = next(rows)
        request_class, *cost, fractions = row
        true_cost = CostVector(*cost)
        sessions = self._spec_sessions.get(name) or [
            self.sessions.open(spec.session_attributes)
        ]
        index = self._next_session.get(name, 0)
        session = sessions[index % len(sessions)]
        self._next_session[name] = index + 1
        label_key = (name, id(request_class))
        sql = self._sql_labels.get(label_key)
        if sql is None:
            sql = self._sql_labels[label_key] = f"{name}:{request_class.name}"
        query = Query(
            true_cost=true_cost,
            estimated_cost=self.optimizer.estimate(true_cost),
            statement_type=request_class.statement_type,
            plan=request_class.plan(fractions),
            session_id=session.session_id,
            priority=spec.priority,
            sql=sql,
            objects=tuple(request_class.objects),
        )
        self.generated_count += 1
        return query

    def _emit(self, spec: WorkloadSpec, loop: Optional[_ClientLoop]) -> None:
        query = self.make_query(spec)
        if loop is not None:
            self._closed_outstanding[query.query_id] = loop
        self.submit(query)


@dataclass
class Scenario:
    """A bundle of workload specs plus a horizon, ready to run."""

    specs: Sequence[WorkloadSpec]
    horizon: float = 300.0
    optimizer_profile: OptimizerProfile = field(default_factory=OptimizerProfile)

    def build(
        self,
        sim: Simulator,
        submit: SubmitFn,
        sessions: Optional[SessionRegistry] = None,
    ) -> WorkloadGenerator:
        """Create a generator for this scenario and schedule arrivals."""
        optimizer = Optimizer(self.optimizer_profile, sim.rng("optimizer"))
        generator = WorkloadGenerator(sim, submit, optimizer, sessions=sessions)
        for spec in self.specs:
            generator.add(spec)
        generator.start(self.horizon)
        return generator

    def spec(self, name: str) -> WorkloadSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(name)


# ----------------------------------------------------------------------
# canonical workload builders
# ----------------------------------------------------------------------
def oltp_workload(
    name: str = "oltp",
    rate: float = 10.0,
    priority: int = 3,
    write_fraction: float = 0.6,
    mean_cpu: float = 0.015,
    mean_io: float = 0.02,
    lock_count: float = 8.0,
    application: str = "order-entry",
) -> WorkloadSpec:
    """Short, cheap, high-priority transaction processing (paper §1).

    Transactions "may require only milliseconds of CPU time and very
    small amounts of disk I/O".  Writes take row locks; reads do not.
    """
    write_class = RequestClass(
        name="txn-write",
        cpu=Exponential(mean_cpu),
        io=Exponential(mean_io),
        memory_mb=Constant(4.0),
        locks=Constant(lock_count),
        rows=Constant(5.0),
        statement_type=StatementType.WRITE,
        plan_shape=("index-probe", "update"),
        operator_state_mb=0.5,
    )
    read_class = RequestClass(
        name="txn-read",
        cpu=Exponential(mean_cpu * 0.7),
        io=Exponential(mean_io * 0.7),
        memory_mb=Constant(2.0),
        locks=Constant(0.0),
        rows=Constant(20.0),
        statement_type=StatementType.READ,
        plan_shape=("index-probe", "fetch"),
        operator_state_mb=0.5,
    )
    return WorkloadSpec(
        name=name,
        request_classes=(
            (write_class, write_fraction),
            (read_class, 1.0 - write_fraction),
        ),
        arrivals=OpenArrivals(rate=rate),
        priority=priority,
        session_attributes=ConnectionAttributes(
            application=application, user="clerk", client_ip="10.0.0.1"
        ),
        sessions=8,
    )


def bi_workload(
    name: str = "bi",
    rate: float = 0.1,
    priority: int = 1,
    median_cpu: float = 15.0,
    median_io: float = 25.0,
    sigma: float = 0.9,
    memory_low: float = 200.0,
    memory_high: float = 1500.0,
    application: str = "analytics",
) -> WorkloadSpec:
    """Long, heavy, low-priority business-intelligence queries (§1).

    "Longer, more complex and resource-intensive queries that can
    require hours or an even longer time to complete" — heavy-tailed
    log-normal demands and large working memory.
    """
    adhoc = RequestClass(
        name="bi-adhoc",
        cpu=LogNormal(median=median_cpu, sigma=sigma),
        io=LogNormal(median=median_io, sigma=sigma),
        memory_mb=Uniform(memory_low, memory_high),
        rows=LogNormal(median=50_000, sigma=1.2),
        statement_type=StatementType.READ,
        plan_shape=("scan", "hash-build", "join", "sort", "aggregate"),
        operator_state_mb=120.0,
    )
    return WorkloadSpec(
        name=name,
        request_classes=((adhoc, 1.0),),
        arrivals=OpenArrivals(rate=rate),
        priority=priority,
        session_attributes=ConnectionAttributes(
            application=application, user="analyst", client_ip="10.0.1.7"
        ),
        sessions=4,
    )


def report_batch_workload(
    name: str = "reports",
    count: int = 40,
    at: float = 0.0,
    priority: int = 2,
    median_cpu: float = 4.0,
    median_io: float = 6.0,
    sigma: float = 0.7,
) -> WorkloadSpec:
    """A report-generation batch (paper §2.2's "daily routine" example)."""
    report = RequestClass(
        name="report",
        cpu=LogNormal(median=median_cpu, sigma=sigma),
        io=LogNormal(median=median_io, sigma=sigma),
        memory_mb=Uniform(50.0, 300.0),
        rows=LogNormal(median=5_000, sigma=0.8),
        statement_type=StatementType.READ,
        plan_shape=("scan", "join", "aggregate"),
        operator_state_mb=40.0,
    )
    return WorkloadSpec(
        name=name,
        request_classes=((report, 1.0),),
        arrivals=BatchArrivals(count=count, at=at),
        priority=priority,
        session_attributes=ConnectionAttributes(
            application="report-runner", user="batch", client_ip="10.0.2.2"
        ),
        sessions=2,
    )


def utility_workload(
    name: str = "utilities",
    count: int = 2,
    at: float = 0.0,
    io_seconds: float = 120.0,
    priority: int = 1,
) -> WorkloadSpec:
    """On-line maintenance utilities (backup, reorg) per Parekh et al. [64]."""
    utility = RequestClass(
        name="backup",
        cpu=Constant(io_seconds * 0.2),
        io=Constant(io_seconds),
        memory_mb=Constant(100.0),
        rows=Constant(0.0),
        statement_type=StatementType.UTILITY,
        plan_shape=("read-pages", "write-archive"),
        operator_state_mb=10.0,
    )
    return WorkloadSpec(
        name=name,
        request_classes=((utility, 1.0),),
        arrivals=BatchArrivals(count=count, at=at),
        priority=priority,
        session_attributes=ConnectionAttributes(
            application="maintenance", user="dba", client_ip="10.0.9.9"
        ),
        sessions=1,
    )


#: The canonical workload shapes by the name scenario specs
#: (``WorkloadPattern.kind``) and the CLI (``backend --workloads``) use.
WORKLOAD_BUILDERS: Dict[str, Callable[..., WorkloadSpec]] = {
    "oltp": oltp_workload,
    "bi": bi_workload,
    "reports": report_batch_workload,
    "utilities": utility_workload,
}


def mixed_scenario(
    horizon: float = 300.0,
    oltp_rate: float = 10.0,
    bi_rate: float = 0.08,
    optimizer_error: float = 0.0,
) -> Scenario:
    """The paper's motivating consolidation mix: OLTP + BI + reports."""
    return Scenario(
        specs=(
            oltp_workload(rate=oltp_rate),
            bi_workload(rate=bi_rate),
            report_batch_workload(at=horizon * 0.1),
        ),
        horizon=horizon,
        optimizer_profile=OptimizerProfile(
            error_sigma=optimizer_error, cardinality_sigma=optimizer_error
        ),
    )
