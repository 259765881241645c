"""The autonomic workload-management loop of paper §5.3.

"The feedback loop control consists of four components: a monitor that
continuously monitors a database system performance, an analyzer that
analyzes the database system available capacity and the running query's
execution progress, and compares the running query's performance with
their required performance goals, a planner that decides what technique
is most effective for a running workload under its certain circumstances
by applying the utility function, and an effector that imposes the
control on the workload."

:class:`AutonomicLoop` is an :class:`~repro.core.interfaces.ExecutionController`
so it slots straight into the manager's control tick.  Each stage is a
replaceable object; the defaults implement the paper's sketch:

* **Monitor** — SLA attainment per workload + the system sample;
* **Analyze** — symptoms: which *goal* workloads miss objectives, is
  the system overloaded (memory/conflict), which running queries are
  *problematic* (low priority, heavy, long-running, little progress);
* **Plan** — score each candidate action with a utility function
  (expected attainment gain, importance-weighted, minus action cost:
  kill loses completed work, suspend pays overhead, throttle is cheap
  but weak) and pick the argmax;
* **Execute** — impose the action through the engine/manager.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.classify import Feature
from repro.core.interfaces import ExecutionController, decisions_by
from repro.core.manager import WorkloadManager
from repro.engine.query import Query
from repro.execution.progress import ProgressIndicator, SpeedAwareProgressIndicator


class LoopAction(enum.Enum):
    """Techniques the planner can choose among (§5.2's open problem)."""

    NONE = "none"
    DEMOTE = "demote"                  # reprioritization
    THROTTLE = "throttle"              # request throttling
    SUSPEND = "suspend"                # pause outright (suspension)
    KILL_AND_RESUBMIT = "kill_and_resubmit"
    RELEASE = "release"                # undo controls once goals recover


@dataclass
class Observations:
    """Monitor output."""

    time: float
    attainment: Dict[str, float]        # workload -> fraction of goals met
    memory_pressure: float
    conflict_ratio: float
    running: int
    queued: int


@dataclass
class Symptoms:
    """Analyzer output."""

    missing_workloads: List[str]
    overloaded: bool
    problematic: List[Query]
    total_missing_importance: int = 0


class MonitorStage:
    """Collects SLA attainment and system-level state."""

    def observe(self, context: WorkloadManager) -> Observations:
        attainment = context.metrics.attainment(context.slas, context.now)
        return Observations(
            time=context.now,
            attainment=attainment,
            memory_pressure=context.engine.memory_pressure(),
            conflict_ratio=min(context.engine.conflict_ratio(), 1e6),
            running=context.engine.running_count,
            queued=context.queued_count,
        )


class AnalyzeStage:
    """Derives symptoms from observations."""

    def __init__(
        self,
        problem_priority: int = 1,
        problem_work: float = 10.0,
        problem_age: float = 5.0,
        progress_indicator: Optional[ProgressIndicator] = None,
    ) -> None:
        self.problem_priority = problem_priority
        self.problem_work = problem_work
        self.problem_age = problem_age
        self.progress = progress_indicator or SpeedAwareProgressIndicator()

    def analyze(
        self, observations: Observations, context: WorkloadManager
    ) -> Symptoms:
        missing = [
            workload
            for workload, attained in observations.attainment.items()
            if attained < 1.0
        ]
        total_importance = sum(
            context.slas.importance_of(workload) for workload in missing
        )
        overloaded = (
            observations.memory_pressure > 1.2
            or observations.conflict_ratio > 1.5
        )
        problematic = []
        for query in context.engine.running_queries():
            if query.priority > self.problem_priority:
                continue
            started = query.start_time if query.start_time is not None else observations.time
            age = observations.time - started
            if age < self.problem_age:
                continue
            if query.true_cost.total_work < self.problem_work:
                continue
            if self.progress.work_done(query, context) > 0.9:
                continue  # nearly done: controlling it frees little
            problematic.append(query)
        problematic.sort(
            key=lambda q: q.estimated_cost.total_work, reverse=True
        )
        return Symptoms(
            missing_workloads=missing,
            overloaded=overloaded,
            problematic=problematic,
            total_missing_importance=total_importance,
        )


class PlanStage:
    """Utility-scored action selection."""

    def __init__(
        self,
        progress_indicator: Optional[ProgressIndicator] = None,
    ) -> None:
        self.progress = progress_indicator or SpeedAwareProgressIndicator()

    def action_utilities(
        self, symptoms: Symptoms, context: WorkloadManager
    ) -> Dict[LoopAction, float]:
        """Utility of each action under the current symptoms."""
        utilities = {action: 0.0 for action in LoopAction}
        if not symptoms.missing_workloads:
            utilities[LoopAction.RELEASE] = 0.5
            utilities[LoopAction.NONE] = 0.4
            return utilities
        if not symptoms.problematic:
            utilities[LoopAction.NONE] = 0.1
            return utilities
        need = float(symptoms.total_missing_importance)
        victim = symptoms.problematic[0]
        done = self.progress.work_done(victim, context)
        # freed resources scale with the victim's remaining footprint
        footprint = min(1.0, victim.true_cost.total_work / 40.0)
        utilities[LoopAction.DEMOTE] = need * 0.4 * footprint
        utilities[LoopAction.THROTTLE] = need * 0.6 * footprint
        # suspension frees everything but pays overhead
        utilities[LoopAction.SUSPEND] = need * 0.85 * footprint - 0.1
        # kill frees everything immediately but wastes completed work
        utilities[LoopAction.KILL_AND_RESUBMIT] = (
            need * footprint - 1.5 * done - 0.2
        )
        if symptoms.overloaded:
            utilities[LoopAction.SUSPEND] += 0.3
            utilities[LoopAction.KILL_AND_RESUBMIT] += 0.3
        return utilities

    def plan(self, symptoms: Symptoms, context: WorkloadManager) -> LoopAction:
        utilities = self.action_utilities(symptoms, context)
        return max(utilities, key=lambda a: (utilities[a], a.value))


class ExecuteStage:
    """Imposes the chosen action through the engine/manager."""

    def __init__(self, throttle_factor: float = 0.2, resubmit_delay: float = 20.0):
        self.throttle_factor = throttle_factor
        self.resubmit_delay = resubmit_delay
        self._suspended: List[Query] = []

    def execute(
        self,
        action: LoopAction,
        symptoms: Symptoms,
        context: WorkloadManager,
    ) -> Optional[Query]:
        """Apply ``action``; returns the affected query (if any)."""
        engine = context.engine
        if action is LoopAction.RELEASE:
            released = None
            for query in self._suspended:
                if engine.is_running(query.query_id):
                    engine.resume(query.query_id)
                    released = query
            self._suspended.clear()
            for query in engine.running_queries():
                if engine.throttle_of(query.query_id) < 1.0:
                    engine.resume(query.query_id)
                    released = query
            return released
        if action is LoopAction.NONE or not symptoms.problematic:
            return None
        victim = symptoms.problematic[0]
        qid = victim.query_id
        if not engine.is_running(qid):
            return None
        if action is LoopAction.DEMOTE:
            engine.set_weight(qid, max(0.05, engine.weight_of(qid) / 2.0))
        elif action is LoopAction.THROTTLE:
            engine.set_throttle(qid, self.throttle_factor)
        elif action is LoopAction.SUSPEND:
            engine.pause(qid)
            self._suspended.append(victim)
        elif action is LoopAction.KILL_AND_RESUBMIT:
            context.restart(victim, self.resubmit_delay)
        return victim


class AutonomicLoop(ExecutionController):
    """Monitor → Analyze → Plan → Execute, once per control tick."""

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_RUNTIME,
            Feature.USES_FEEDBACK_CONTROLLER,
            Feature.USES_UTILITY_FUNCTIONS,
            Feature.CHANGES_RUNNING_PRIORITY,
            Feature.PAUSES_RUNNING_REQUEST,
            Feature.TERMINATES_RUNNING_REQUEST,
            Feature.RESUBMITS_AFTER_KILL,
        }
    )

    def __init__(
        self,
        monitor: Optional[MonitorStage] = None,
        analyzer: Optional[AnalyzeStage] = None,
        planner: Optional[PlanStage] = None,
        effector: Optional[ExecuteStage] = None,
    ) -> None:
        self.monitor = monitor or MonitorStage()
        self.analyzer = analyzer or AnalyzeStage()
        self.planner = planner or PlanStage()
        self.effector = effector or ExecuteStage()

    def attach(self, context: WorkloadManager) -> None:
        self._context = context

    def control(self, context: WorkloadManager) -> None:
        observations = self.monitor.observe(context)
        symptoms = self.analyzer.analyze(observations, context)
        action = self.planner.plan(symptoms, context)
        affected = self.effector.execute(action, symptoms, context)
        if affected is not None:  # a no-op is no decision
            context.record(self, action.value, affected)

    def actions_taken(self) -> Dict[LoopAction, int]:
        """How often each :class:`LoopAction` affected a query."""
        events = decisions_by(self._context.decisions, type(self).__name__)
        return dict(Counter(LoopAction(event.action) for event in events))
