"""Request throttling (Parekh et al. [64]; Powley et al. [65][66]).

Two surveyed throttling systems, both "a self-imposed sleep used to
slow down" running work (§4.2.2):

* :class:`UtilityThrottlingController` — Parekh et al.: work is divided
  into *production* and *utilities*; the production classes' performance
  degradation (vs. a baseline) feeds a Proportional-Integral controller
  whose output is the utilities' throttling level; "a workload control
  function translates the throttling level into a sleep fraction".
* :class:`QueryThrottlingController` — Powley et al.: large queries are
  throttled so high-priority workloads meet their goals; the amount of
  throttling comes from either a diminishing *step* controller or a
  *black-box model* controller, applied by one of two methods:

  - **constant throttle** — many short, evenly distributed pauses; in
    the fluid engine this is exactly a speed cap of ``1 - sleep``;
  - **interrupt throttle** — a single long pause: the query is paused
    outright for a duration proportional to the throttle level, then
    resumed.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Dict, Optional, Sequence

from repro.control.controllers import (
    BlackBoxModelController,
    PIController,
    StepController,
)
from repro.core.classify import Feature
from repro.core.interfaces import ExecutionController
from repro.core.manager import WorkloadManager
from repro.engine.query import Query, StatementType
from repro.errors import ConfigurationError


def _normalized_speed(query: Query, context: WorkloadManager) -> Optional[float]:
    """Instantaneous fraction of full speed a running query receives.

    A query's unloaded speed is ``1 / nominal_duration``; multiplying
    the current fluid speed by the nominal duration therefore yields a
    velocity-like signal in [0, 1] that reacts immediately to
    interference — the controllers' feedback input.
    """
    nominal = query.true_cost.nominal_duration
    if nominal <= 0 or not context.engine.is_running(query.query_id):
        return None
    return min(1.0, context.engine.speed_of(query.query_id) * nominal)


#: Completion velocities per workload the feedback velocity reads, newest last.
RECENT_VELOCITIES = 20


def _feedback_velocity(
    context: WorkloadManager,
    running: Callable[[Query], bool],
    workload: Callable[[str], bool],
) -> Optional[float]:
    """The controllers' feedback input: the mean of the normalized speeds
    of the running queries ``running`` keeps and of the last
    :data:`RECENT_VELOCITIES` completion velocities of each workload
    ``workload`` keeps (so short transactions count); ``None`` if none."""
    velocities = []
    for query in context.engine.running_queries():
        if running(query):
            velocity = _normalized_speed(query, context)
            if velocity is not None:
                velocities.append(velocity)
    for name in context.metrics.workloads():
        if workload(name):
            velocities.extend(context.metrics.stats_for(name).velocities[-RECENT_VELOCITIES:])
    if not velocities:
        return None
    return sum(velocities) / len(velocities)


class ThrottleMethod(enum.Enum):
    """How a computed throttling level is imposed on a query."""

    CONSTANT = "constant"     # continuous speed cap (many short sleeps)
    INTERRUPT = "interrupt"   # one long pause per control period


class UtilityThrottlingController(ExecutionController):
    """PI-controlled throttling of on-line utilities [64].

    Parameters
    ----------
    degradation_target:
        Acceptable relative degradation of production performance (e.g.
        0.3 = production velocity may drop 30% below baseline before
        the utilities are slowed).
    baseline_velocity:
        Expected production velocity when unimpacted (the "baseline
        performance acquired by the production applications").
    utility_workloads:
        Workload names treated as utilities; statements of type UTILITY
        are always included.
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_RUNTIME,
            Feature.PAUSES_RUNNING_REQUEST,
            Feature.USES_FEEDBACK_CONTROLLER,
        }
    )

    def __init__(
        self,
        degradation_target: float = 0.2,
        baseline_velocity: float = 0.9,
        utility_workloads: Sequence[str] = ("utilities",),
        kp: float = 1.2,
        ki: float = 0.4,
    ) -> None:
        if not 0 < baseline_velocity <= 1:
            raise ConfigurationError("baseline_velocity must be in (0, 1]")
        self.degradation_target = degradation_target
        self.baseline_velocity = baseline_velocity
        self.utility_workloads = set(utility_workloads)
        # PI on degradation: setpoint is the acceptable degradation,
        # output the sleep fraction in [0, 0.95].
        self.controller = PIController(
            kp=kp, ki=ki, setpoint=degradation_target, minimum=0.0, maximum=0.95
        )
        self.throttle_level = 0.0

    def _is_utility(self, query: Query) -> bool:
        return (
            query.statement_type is StatementType.UTILITY
            or (query.workload_name in self.utility_workloads)
        )

    def control(self, context: WorkloadManager) -> None:
        velocity = _feedback_velocity(
            context,
            lambda query: not self._is_utility(query),
            lambda name: name not in self.utility_workloads,
        )
        if velocity is None:
            return
        degradation = max(
            0.0, (self.baseline_velocity - velocity) / self.baseline_velocity
        )
        self.throttle_level = self.controller.update(degradation)
        context.record(self, "throttle", detail=self.throttle_level)
        factor = 1.0 - self.throttle_level  # sleep fraction -> speed cap
        for query in context.engine.running_queries():
            if self._is_utility(query):
                context.engine.set_throttle(query.query_id, factor)


class QueryThrottlingController(ExecutionController):
    """Autonomic large-query throttling [65][66].

    Throttles queries selected by ``victim_selector`` (default: any
    running query with priority <= ``max_victim_priority`` and estimated
    work >= ``large_query_work``) so that the protected workloads'
    velocity reaches ``velocity_goal``.
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_RUNTIME,
            Feature.PAUSES_RUNNING_REQUEST,
            Feature.USES_FEEDBACK_CONTROLLER,
        }
    )

    def __init__(
        self,
        velocity_goal: float = 0.7,
        protected_priority: int = 3,
        max_victim_priority: int = 1,
        large_query_work: float = 10.0,
        controller: str = "step",
        method: ThrottleMethod = ThrottleMethod.CONSTANT,
        pause_scale: float = 0.8,
        victim_selector: Optional[Callable[[Query], bool]] = None,
    ) -> None:
        if controller not in ("step", "blackbox"):
            raise ConfigurationError("controller must be 'step' or 'blackbox'")
        self.velocity_goal = velocity_goal
        self.protected_priority = protected_priority
        self.max_victim_priority = max_victim_priority
        self.large_query_work = large_query_work
        self.method = method
        self.pause_scale = pause_scale
        self.controller_kind = controller
        if controller == "step":
            self._step = StepController(initial_step=0.3, maximum=0.95)
            self._blackbox = None
        else:
            self._step = None
            self._blackbox = BlackBoxModelController(
                setpoint=velocity_goal, maximum=0.95
            )
        self.victim_selector = victim_selector or self._default_victim
        self.throttle_level = 0.0
        self._paused: Dict[int, object] = {}  # qid -> resume event handle

    def _default_victim(self, query: Query) -> bool:
        return (
            query.priority <= self.max_victim_priority
            and query.estimated_cost.total_work >= self.large_query_work
        )

    def control(self, context: WorkloadManager) -> None:
        protected = self.protected_priority
        velocity = _feedback_velocity(
            context,
            lambda query: query.priority >= protected,
            lambda name: context.slas.importance_of(name) >= protected,
        )
        if velocity is None:
            return
        if self._step is not None:
            violation = self.velocity_goal - velocity
            # deadband so the controller settles once the goal is met
            if abs(violation) < 0.02:
                violation = 0.0
            self.throttle_level = self._step.update(violation)
        else:
            self.throttle_level = self._blackbox.update(velocity)
        context.record(self, "throttle", detail=self.throttle_level)
        self._apply(context)

    def _apply(self, context: WorkloadManager) -> None:
        factor = 1.0 - self.throttle_level
        for query in context.engine.running_queries():
            if not self.victim_selector(query):
                continue
            qid = query.query_id
            if self.method is ThrottleMethod.CONSTANT:
                context.engine.set_throttle(qid, factor)
            else:
                if qid in self._paused or self.throttle_level <= 0:
                    continue
                # one pause whose length realizes the sleep fraction
                pause = (
                    self.throttle_level
                    * context.control_period
                    * self.pause_scale
                )
                context.engine.pause(qid)
                handle = context.sim.schedule(
                    pause,
                    partial(self._resume, qid, context),
                    label=f"interrupt-throttle:q{qid}",
                )
                self._paused[qid] = handle

    def _resume(self, qid: int, context: WorkloadManager) -> None:
        self._paused.pop(qid, None)
        if context.engine.is_running(qid):
            context.engine.resume(qid)

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        handle = self._paused.pop(query.query_id, None)
        if handle is not None:
            handle.cancel()
