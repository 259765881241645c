"""The WorkloadManager: identify → control → execute, with monitoring.

This is the integration point of the whole library — the equivalent of
DB2 Workload Manager / SQL Server Resource Governor / Teradata ASM in
our simulated server.  Arriving queries are identified (characterizer),
subjected to admission control, queued and dispatched by a scheduler,
run on the execution engine with priority-derived fair-share weights,
and supervised by execution controllers on a periodic control tick.

Every stage is pluggable through the interfaces in
:mod:`repro.core.interfaces`, and each is handed the manager itself as
its ``context``; the defaults (tag characterizer, accept-all admission,
FCFS dispatch with an optional MPL) make an unconfigured manager behave
like a plain DBMS with no workload management — the baseline of every
experiment.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.interfaces import (
    AdmissionController,
    AdmissionDecision,
    AdmissionOutcome,
    Characterizer,
    ControlEvent,
    ExecutionController,
    MplController,
    MplLike,
    PartitionedQueue,
    QueueKey,
    Scheduler,
)
from repro.core.metrics import MetricsCollector, SystemSample
from repro.core.sla import SLASet
from repro.engine.executor import CompletionOutcome, EngineConfig, ExecutionEngine
from repro.engine.query import Query, QueryState, workload_key
from repro.engine.resources import MachineSpec, ResourceKind
from repro.engine.sessions import SessionRegistry
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError


class TagCharacterizer(Characterizer):
    """Default identification: parse the generator's ``workload:class`` tag.

    Real identification techniques live in :mod:`repro.characterization`;
    the tag characterizer makes an unconfigured manager usable and is
    also the "oracle" identifier experiments use when identification is
    not the variable under study.
    """

    def identify(self, query: Query, context: WorkloadManager) -> Optional[str]:
        return workload_key(query)


_ACCEPT_ALL = AdmissionDecision.accept("no admission control")


class AcceptAllAdmission(AdmissionController):
    """No admission control (the paper's uncontrolled baseline)."""

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        return _ACCEPT_ALL


class WaitQueue(Scheduler):
    """One wait queue drained under an MPL: the single-queue scheduler.

    The queue is a one-bucket :class:`~repro.core.interfaces.PartitionedQueue`
    ordered by ``key`` (``None``: arrival order), a discipline of
    :mod:`repro.scheduling.queues` or any function of the query, evaluated
    once at enqueue.  ``max_concurrency=None`` dispatches everything at
    once — the uncontrolled baseline that thrashes under load; an int is
    a static MPL, an :class:`~repro.core.interfaces.MplController` a
    dynamic one.
    """

    def __init__(self, max_concurrency: MplLike = None, key: Optional[QueueKey] = None) -> None:
        if isinstance(max_concurrency, int) and max_concurrency < 1:
            raise ConfigurationError("max_concurrency must be >= 1 or None")
        self.mpl = MplController.of(max_concurrency)
        self.queue = PartitionedQueue(order=key)

    def attach(self, context: WorkloadManager) -> None:
        self.mpl.attach(context)

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        self.mpl.notify_completion()

    def enqueue(self, query: Query, context: WorkloadManager) -> None:
        self.queue.push(query)

    def next_batch(self, context: WorkloadManager) -> List[Query]:
        queue = self.queue
        room = len(queue)
        limit = self.mpl.current_limit(context) if room else None
        if limit is not None:
            room = limit - context.engine.running_count
        batch: List[Query] = []
        while len(batch) < room and len(queue):
            batch.append(queue.pop())
        return batch


#: The name the default scheduler has always had (benchmarks import it).
FCFSDispatcher = WaitQueue


WeightFn = Callable[[Query], float]
CompletionListener = Callable[[Query], None]


def priority_weight(query: Query) -> float:
    """The default fair-share weight: the query's business priority,
    at least 1."""
    return float(max(query.priority, 1))


class WorkloadManager:
    """Front end of the simulated database server.

    Parameters
    ----------
    sim:
        The simulator everything is scheduled on.
    machine, engine_config:
        Build the manager's :class:`ExecutionEngine`.
    characterizer, admission, scheduler, execution_controllers:
        The pluggable stages; all optional (see class docstring).
    slas:
        Server-level objectives; an SLA's importance becomes the
        priority of the requests identified as its workload.
    control_period:
        Seconds between execution-control/monitor ticks.
    weight_fn:
        Maps a dispatched query to its fair-share weight; the default
        uses the query's business priority.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: Optional[MachineSpec] = None,
        engine_config: Optional[EngineConfig] = None,
        characterizer: Optional[Characterizer] = None,
        admission: Optional[AdmissionController] = None,
        scheduler: Optional[Scheduler] = None,
        execution_controllers: Sequence[ExecutionController] = (),
        slas: Optional[SLASet] = None,
        control_period: float = 1.0,
        weight_fn: Optional[WeightFn] = None,
    ) -> None:
        self.sim = sim
        self.engine = ExecutionEngine(sim, machine, engine_config)
        self.metrics = MetricsCollector()
        self.sessions = SessionRegistry()
        self.slas = slas or SLASet()
        self.characterizer = characterizer or TagCharacterizer()
        self.admission = admission or AcceptAllAdmission()
        self.scheduler = scheduler or WaitQueue()
        self.execution_controllers = list(execution_controllers)
        self.weight_fn = weight_fn or priority_weight
        self.control_period = control_period

        #: append-only record of this manager's control actions (node tier)
        self.decisions: List[ControlEvent] = []
        self._delayed: List[Tuple[Query, AdmissionDecision]] = []  # holds, FIFO
        self._listeners: List[CompletionListener] = []
        self._backlog_listeners: List[Callable[[], None]] = []
        self._pumping = False
        self._pump_again = False  # a pump was suppressed while pumping
        # The query :meth:`restart` is ending: its re-entry is not a
        # wait-die victim's backoff.
        self._restarting: Optional[Query] = None
        self.submitted_count = 0
        self.rejected_count = 0

        self.engine.on_exit(self._on_engine_exit)
        for stage in (self.characterizer, self.admission, self.scheduler):
            stage.attach(self)
        for controller in self.execution_controllers:
            controller.attach(self)
        self._ticker = sim.schedule_periodic(
            control_period, self._tick, label="manager:tick"
        )

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_execution_controller(self, controller: ExecutionController) -> None:
        controller.attach(self)
        self.execution_controllers.append(controller)

    def add_completion_listener(self, listener: CompletionListener) -> None:
        """Called once per request, for its client-visible terminal
        outcome (completed, rejected or killed), in registration order.
        An attempt that ends ``ABORTED`` is no outcome: the same request
        re-enters (:meth:`restart`).  A DBQL trace is one listener,
        ``QueryLog.record_query``."""
        self._listeners.append(listener)

    def add_backlog_listener(self, listener: Callable[[], None]) -> None:
        """Called whenever running or queued may have changed.

        Every change to :attr:`running_count` or :attr:`queued_count`
        funnels through request intake, engine exits, delayed-admission
        retries, queue evacuation or a :meth:`pump` (queued -> running,
        which keeps their sum), so those paths fire the listeners: once
        the instant the counts move and again after any pump that
        follows.  A cluster node forwards each ping as its ``on_change``,
        which only marks the node dirty in the cluster's ranked indexes
        (the eligible set among them); the next read re-ranks it.  Only
        work a controller starts on the engine from an event of its own
        (suspend/resume's delayed restart) bypasses the manager; the
        next tick reports it.
        """
        self._backlog_listeners.append(listener)

    def record(
        self, emitter: object, action: str, query: Optional[Query] = None, detail: Any = None
    ) -> None:
        """Append one action taken by ``emitter`` to :attr:`decisions`."""
        self.decisions.append(ControlEvent.of(self.sim.now, emitter, action, query, detail))

    def _backlog_changed(self) -> None:
        for listener in self._backlog_listeners:
            listener()

    def _reject(self, query: Query, decision: AdmissionDecision) -> None:
        """Finalize a rejection: the admission verdict is the outcome."""
        query.transition(QueryState.REJECTED)
        query.end_time = self.sim.now
        self.rejected_count += 1
        self.metrics.record_rejection(query)
        self.record(self.admission, "reject", query, decision.reason)
        self._notify(query)

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def submit(self, query: Query) -> AdmissionDecision:
        """A request arrives at the database server."""
        query.transition(QueryState.SUBMITTED)
        if query.submit_time is None:
            query.submit_time = self.sim.now
        self.submitted_count += 1

        workload = self.characterizer.identify(query, self)
        if workload is not None:
            query.workload_name = workload
            sla = self.slas.get(workload)
            if sla is not None:
                query.priority = sla.importance

        decision = self.admission.decide(query, self)
        if decision.outcome is AdmissionOutcome.REJECT:
            self._reject(query, decision)
        elif decision.outcome is AdmissionOutcome.DELAY:
            query.transition(QueryState.QUEUED)
            self._delayed.append((query, decision))
            if self._backlog_listeners:
                self._backlog_changed()
        else:
            query.transition(QueryState.QUEUED)
            self.scheduler.enqueue(query, self)
            # listeners see the grown backlog before pump, whose
            # callbacks (synchronous completions) may read it
            if self._backlog_listeners:
                self._backlog_changed()
            self.pump()
            if self._backlog_listeners:
                self._backlog_changed()
        return decision

    def restart(self, query: Query, delay: Optional[float]) -> None:
        """End ``query``'s running attempt ``ABORTED``, the way a wait-die
        victim's ends, and re-enter the same request ``delay`` seconds
        later with a fresh elapsed-time clock: the rule that restarted it
        measures one attempt.  ``None`` leaves the re-entry to the
        caller: a cluster re-places a crashed node's work itself."""
        self._restarting = query
        try:
            self.engine.abort(query.query_id)
        finally:
            self._restarting = None
        if delay is not None:
            query.start_time = None
            self.sim.schedule(delay, partial(self.submit, query), label="resubmit")

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Drain the scheduler's dispatchable requests into the engine.

        A batch is everything dispatchable now, so the scheduler is asked
        again only when a pump re-entered while the batch started (a
        request that finished inside ``start``, a listener that
        submitted) and was suppressed here."""
        if self._pumping:
            self._pump_again = True
            return
        self._pumping = True
        # A dispatch burst happens at one instant: the engine solves its
        # fair-share reallocation once, after the instant's last event.
        engine = self.engine
        try:
            for _ in range(10_000):  # safety bound against livelock
                self._pump_again = False
                for query in self.scheduler.next_batch(self):
                    engine.start(query, weight=self.weight_fn(query))
                if not self._pump_again:
                    break
        finally:
            self._pumping = False

    def _retry_delayed(self) -> None:
        if not self._delayed:
            return
        pending, self._delayed = self._delayed, []
        # the held queries just left the backlog; re-entries below ping
        # again, so listeners never observe a state they weren't told of
        if self._backlog_listeners:
            self._backlog_changed()
        closed = set()  # waits re-delayed this sweep: their later holds stay undecided
        for query, decision in pending:
            if decision.wait is None or decision.wait not in closed:
                decision = self.admission.decide(query, self)
            if decision.outcome is AdmissionOutcome.REJECT:
                self._reject(query, decision)
            elif decision.outcome is AdmissionOutcome.DELAY:
                closed.add(decision.wait)
                self._delayed.append((query, decision))
                if self._backlog_listeners:
                    self._backlog_changed()
            else:
                self.scheduler.enqueue(query, self)
                if self._backlog_listeners:
                    self._backlog_changed()
                # Dispatch immediately so the next decision in this
                # sweep sees the updated running count — otherwise an
                # MPL gate would admit the whole backlog at once.
                self.pump()
        self.pump()
        if self._backlog_listeners:
            self._backlog_changed()

    # ------------------------------------------------------------------
    # engine feedback
    # ------------------------------------------------------------------
    def _on_engine_exit(self, query: Query, outcome: CompletionOutcome) -> None:
        # The engine already removed the query from the running set:
        # backlog listeners must observe that before the completion
        # listeners below can act on (and read through) this manager.
        if self._backlog_listeners:
            self._backlog_changed()
        if outcome is CompletionOutcome.COMPLETED:
            self.metrics.record_completion(query, self.sim.now)
            self._notify(query)
        elif outcome is CompletionOutcome.KILLED:
            self.metrics.record_kill(query)
            self._notify(query)
        elif outcome is CompletionOutcome.ABORTED:
            self.metrics.record_abort(query)
            backoff = 0.05 * (2 ** min(query.restarts, 6))
            query.restarts += 1
            if query is not self._restarting:  # a wait-die victim backs off
                self.sim.schedule(backoff, partial(self.submit, query), label="resubmit")
        elif outcome is CompletionOutcome.SUSPENDED:
            self.metrics.record_suspension(query)
        self.admission.notify_exit(query, self)
        self.scheduler.notify_exit(query, self)
        for controller in self.execution_controllers:
            controller.notify_exit(query, self)
        # Retry DELAYed admissions immediately: a departure is exactly
        # when an MPL/indicator gate may reopen.
        self._retry_delayed()
        self.pump()
        if self._backlog_listeners:
            self._backlog_changed()

    def _notify(self, query: Query) -> None:
        for listener in list(self._listeners):
            listener(query)

    # ------------------------------------------------------------------
    # periodic control tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        sample = SystemSample(
            time=self.sim.now,
            cpu_utilization=self.engine.utilization(ResourceKind.CPU),
            disk_utilization=self.engine.utilization(ResourceKind.DISK),
            memory_pressure=self.engine.memory_pressure(),
            conflict_ratio=self.engine.conflict_ratio(),
            running=self.engine.running_count,
            queued=self.queued_count,
        )
        self.metrics.record_sample(sample)
        for controller in self.execution_controllers:
            controller.control(self)
        self._retry_delayed()
        self.pump()
        if self._backlog_listeners:
            self._backlog_changed()

    # ------------------------------------------------------------------
    # introspection / teardown
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def queued_count(self) -> int:
        return self.scheduler.queued_count() + len(self._delayed)

    @property
    def running_count(self) -> int:
        return self.engine.running_count

    def outstanding_work(self) -> int:
        return self.queued_count + self.running_count

    def evacuate_queued(self) -> List[Query]:
        """Withdraw every waiting request (wait queue, then delayed holds
        in arrival order) in one pass, still QUEUED, for a crashed node's
        dispatcher to re-place; running work is untouched."""
        evacuated = self.scheduler.queue.pop_all()
        evacuated.extend(query for query, _ in self._delayed)
        self._delayed.clear()
        if self._backlog_listeners:
            self._backlog_changed()
        return evacuated

    def shutdown(self) -> None:
        """Stop the periodic tick so the simulator can drain."""
        self._ticker.stop()

    def resume_ticks(self) -> None:
        """Re-arm the periodic control tick after :meth:`shutdown`.

        Used when a crashed/drained node is brought back into service.
        """
        self._ticker.stop()
        self._ticker = self.sim.schedule_periodic(
            self.control_period, self._tick, label="manager:tick"
        )

    def run(
        self,
        horizon: float,
        drain: float = 0.0,
        max_events: Optional[int] = None,
    ) -> None:
        """Run the simulation to ``horizon`` plus a drain window.

        The observation ends at ``horizon + drain``: work still running
        then stays unfinished (and unrecorded), exactly as a real
        measurement window would leave it.  A fixed endpoint also
        guarantees termination even though controllers keep periodic
        processes armed.  ``max_events`` bounds the event count; hitting
        it raises :class:`~repro.errors.SimulationBudgetExceeded` rather
        than silently truncating the run.
        """
        self.sim.run_until(horizon + drain, max_events=max_events)
        self.shutdown()
