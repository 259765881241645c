"""Query suspend-and-resume (Chandramouli et al. [10], §4.2.3, Table 3).

The query lifecycle is augmented with *suspend* and *resume* phases.
On a suspension request a ``SuspendedQuery`` structure is produced; the
suspend strategy determines its cost split:

* **DumpState** — write every stateful operator's in-flight state to
  disk.  Suspend cost = state size / dump bandwidth; resume restores
  the exact progress after reading the state back.
* **GoBack** — write only control state.  Suspend cost ≈ 0, but on
  resume the query re-executes everything since the last completed
  checkpoint boundary — a lower suspend cost traded for a higher resume
  cost, exactly the trade-off of [10].
* **Optimal plan** — per-operator dump/discard choices minimizing total
  overhead subject to a suspend-cost constraint ([10] solves this with
  mixed-integer programming; our plans are small enough for exact
  enumeration, which *is* the optimum).

The :class:`SuspendResumeController` applies the machinery as execution
control: when high-priority pressure appears it suspends the heaviest
low-priority victims; when pressure clears it resumes them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.classify import Feature
from repro.core.interfaces import ExecutionController
from repro.core.manager import WorkloadManager
from repro.engine.query import PlanOperator, Query, QueryState


class SuspendStrategy(enum.Enum):
    """The suspend strategies of [10], plus the optimizing planner."""

    DUMP_STATE = "dump_state"
    GO_BACK = "go_back"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class SuspendPlan:
    """The costed outcome of planning a suspension.

    ``suspend_cost``/``resume_cost`` are seconds; ``resume_progress`` is
    where execution restarts (≤ the progress at suspension; the gap is
    re-executed work, already folded into ``resume_cost``).
    """

    strategy: SuspendStrategy
    dumped_operators: Tuple[int, ...]
    suspend_cost: float
    resume_cost: float
    resume_progress: float

    @property
    def total_overhead(self) -> float:
        return self.suspend_cost + self.resume_cost


@dataclass
class SuspendedQuery:
    """The persisted structure that lets a query resume later [10]."""

    query: Query
    plan: SuspendPlan
    suspended_at: float


def _stateful_operators(query: Query, progress: float) -> List[Tuple[int, PlanOperator]]:
    """Operators with recoverable in-flight state at ``progress``."""
    current = query.plan.operator_at_progress(progress)
    out = []
    for index, op in enumerate(query.plan):
        if index > current:
            break
        if op.state_mb > 0 and (op.blocking or index == current):
            out.append((index, op))
    return out


def plan_suspension(
    query: Query,
    progress: float,
    strategy: SuspendStrategy = SuspendStrategy.OPTIMAL,
    dump_bandwidth_mb_s: float = 100.0,
    suspend_cost_budget: Optional[float] = None,
) -> SuspendPlan:
    """Compute the costed suspension plan for ``query`` at ``progress``.

    For ``OPTIMAL`` the planner enumerates all dump/discard subsets over
    the stateful operators (exact for the plan sizes we generate) and
    returns the plan minimizing suspend+resume overhead subject to the
    optional ``suspend_cost_budget``; ``DUMP_STATE`` and ``GO_BACK`` fix
    the subset to all / none respectively.
    """
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0,1], got {progress}")
    stateful = _stateful_operators(query, progress)
    duration = query.true_cost.nominal_duration

    def cost_of(dumped: Sequence[int]) -> SuspendPlan:
        dumped_set = set(dumped)
        dump_mb = sum(op.state_mb for i, op in stateful if i in dumped_set)
        suspend_cost = dump_mb / dump_bandwidth_mb_s
        read_cost = dump_mb / dump_bandwidth_mb_s
        # earliest discarded stateful operator forces re-execution from
        # its start; with nothing discarded we resume exactly here.
        discarded = [i for i, _ in stateful if i not in dumped_set]
        if discarded:
            resume_progress = min(
                query.plan.progress_at_operator_start(i) for i in discarded
            )
            resume_progress = min(resume_progress, progress)
        else:
            resume_progress = progress
        reexecution = (progress - resume_progress) * duration
        return SuspendPlan(
            strategy=strategy,
            dumped_operators=tuple(sorted(dumped_set)),
            suspend_cost=suspend_cost,
            resume_cost=read_cost + reexecution,
            resume_progress=resume_progress,
        )

    indices = [i for i, _ in stateful]
    if strategy is SuspendStrategy.DUMP_STATE:
        return cost_of(indices)
    if strategy is SuspendStrategy.GO_BACK:
        return cost_of([])

    best: Optional[SuspendPlan] = None
    for r in range(len(indices) + 1):
        for subset in itertools.combinations(indices, r):
            plan = cost_of(subset)
            if (
                suspend_cost_budget is not None
                and plan.suspend_cost > suspend_cost_budget + 1e-12
            ):
                continue
            if best is None or plan.total_overhead < best.total_overhead - 1e-12:
                best = plan
    if best is None:
        # budget unsatisfiable: fall back to GoBack (cheapest suspend)
        best = cost_of([])
    return best


class SuspendResumeController(ExecutionController):
    """Suspend low-priority victims under pressure, resume when clear.

    Parameters
    ----------
    pressure:
        Predicate deciding whether the system is under high-priority
        pressure; the default fires when any request with priority >=
        ``protected_priority`` is queued or running slower than
        ``velocity_floor``.
    strategy, dump_bandwidth_mb_s, suspend_cost_budget:
        Forwarded to :func:`plan_suspension`.
    min_victim_work:
        Only queries with at least this much estimated remaining work
        are suspended (suspending a nearly-done query wastes overhead).
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_RUNTIME,
            Feature.TERMINATES_RUNNING_REQUEST,
            Feature.CHECKPOINTS_STATE,
        }
    )

    def __init__(
        self,
        protected_priority: int = 3,
        max_victim_priority: int = 1,
        strategy: SuspendStrategy = SuspendStrategy.OPTIMAL,
        dump_bandwidth_mb_s: float = 100.0,
        suspend_cost_budget: Optional[float] = None,
        min_victim_work: float = 5.0,
        resume_when_idle_below: int = 1,
        velocity_floor: float = 0.8,
        pressure: Optional[Callable[[WorkloadManager], bool]] = None,
    ) -> None:
        self.protected_priority = protected_priority
        self.max_victim_priority = max_victim_priority
        self.strategy = strategy
        self.dump_bandwidth_mb_s = dump_bandwidth_mb_s
        self.suspend_cost_budget = suspend_cost_budget
        self.min_victim_work = min_victim_work
        self.resume_when_idle_below = resume_when_idle_below
        self.velocity_floor = velocity_floor
        self._pressure = pressure or self._default_pressure
        self.suspended: List[SuspendedQuery] = []
        self._dumping: set = set()

    # ------------------------------------------------------------------
    def _default_pressure(self, context: WorkloadManager) -> bool:
        queued = context.scheduler.queued_queries()
        if any(q.priority >= self.protected_priority for q in queued):
            return True
        for query in context.engine.running_queries():
            if query.priority < self.protected_priority:
                continue
            # Instantaneous slowdown: a query's full (unloaded) speed is
            # 1/nominal_duration, so speed * nominal_duration is the
            # fraction of full speed it currently receives.  Unlike the
            # elapsed-time velocity, this detects interference the
            # moment it appears.
            nominal = query.true_cost.nominal_duration
            if nominal <= 0:
                continue
            normalized = context.engine.speed_of(query.query_id) * nominal
            if normalized < self.velocity_floor:
                return True
        return False

    def control(self, context: WorkloadManager) -> None:
        if self._pressure(context):
            self._suspend_victims(context)
        else:
            self._maybe_resume(context)

    def _suspend_victims(self, context: WorkloadManager) -> None:
        victims = [
            q
            for q in context.engine.running_queries()
            if q.priority <= self.max_victim_priority
            and q.query_id not in self._dumping
        ]
        for victim in victims:
            progress = context.engine.progress_of(victim.query_id)
            remaining = (1.0 - progress) * victim.true_cost.total_work
            if remaining < self.min_victim_work:
                continue
            plan = plan_suspension(
                victim,
                progress,
                strategy=self.strategy,
                dump_bandwidth_mb_s=self.dump_bandwidth_mb_s,
                suspend_cost_budget=self.suspend_cost_budget,
            )
            # The dump itself takes suspend_cost seconds: the victim is
            # paused (rates freed) but holds memory until the dump ends.
            context.engine.pause(victim.query_id)
            context.sim.schedule(
                plan.suspend_cost,
                partial(self._complete_suspension, victim, plan, context),
                label=f"suspend:q{victim.query_id}",
            )
            self._dumping.add(victim.query_id)

    def _complete_suspension(
        self, victim: Query, plan: SuspendPlan, context: WorkloadManager
    ) -> None:
        self._dumping.discard(victim.query_id)
        if not context.engine.is_running(victim.query_id):
            return  # completed or killed while dumping
        query = context.engine.remove_suspended(victim.query_id)
        query.progress = plan.resume_progress
        record = SuspendedQuery(
            query=query, plan=plan, suspended_at=context.now
        )
        self.suspended.append(record)
        context.record(self, "suspend", query, plan)

    def _maybe_resume(self, context: WorkloadManager) -> None:
        if not self.suspended:
            return
        if context.engine.running_count >= self.resume_when_idle_below:
            return
        record = self.suspended.pop(0)
        query = record.query
        # Re-execution cost is realized by the rolled-back progress the
        # engine will redo; the state *read* cost delays the restart.
        read_cost = sum(
            op.state_mb
            for i, op in enumerate(query.plan)
            if i in record.plan.dumped_operators
        ) / self.dump_bandwidth_mb_s
        context.record(self, "resume", query)
        context.sim.schedule(
            read_cost,
            partial(self._restart, query, context),
            label=f"resume:q{query.query_id}",
        )

    def _restart(self, query: Query, context: WorkloadManager) -> None:
        if query.state is not QueryState.SUSPENDED:
            return
        context.engine.start(query, weight=float(max(query.priority, 1)))

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        self._dumping.discard(query.query_id)
