"""Priority aging by service-class demotion (paper §3.4, Table 3, [9]).

"Priority aging ... dynamically changes the priority of shared system
resource access for a request as it runs.  When the running request
tries to access more rows than its estimated row counts or executes
longer than a certain allowed time period, the request's service level
will be dynamically degraded, such as from a high level to a medium
level."  This is DB2's remap-to-lower-service-subclass action.

:class:`ServiceClassLadder` defines the levels and their fair-share
weights; :class:`PriorityAgingController` checks threshold violations
every control tick and demotes offenders one rung at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.classify import Feature
from repro.core.interfaces import ExecutionController
from repro.core.manager import WorkloadManager
from repro.core.policy import Threshold, ThresholdAction, ThresholdKind, runtime_observer
from repro.engine.query import Query
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ServiceClassLadder:
    """Ordered service levels, highest first: (name, weight) pairs."""

    levels: Tuple[Tuple[str, float], ...] = (
        ("high", 4.0),
        ("medium", 2.0),
        ("low", 1.0),
    )

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise ConfigurationError("a ladder needs at least two levels")
        weights = [w for _, w in self.levels]
        if any(w <= 0 for w in weights):
            raise ConfigurationError("level weights must be positive")
        if any(a <= b for a, b in zip(weights, weights[1:])):
            raise ConfigurationError("level weights must strictly decrease")

    def index_of(self, name: str) -> int:
        for index, (level, _) in enumerate(self.levels):
            if level == name:
                return index
        raise KeyError(name)

    def weight_of(self, name: str) -> float:
        return self.levels[self.index_of(name)][1]

    def below(self, name: str) -> Optional[str]:
        """The next lower level, or None at the bottom."""
        index = self.index_of(name)
        if index + 1 >= len(self.levels):
            return None
        return self.levels[index + 1][0]

    @property
    def top(self) -> str:
        return self.levels[0][0]


class PriorityAgingController(ExecutionController):
    """Demote running queries that violate execution thresholds.

    Parameters
    ----------
    ladder:
        The service-class ladder (weights applied via the engine).
    thresholds:
        Violations that trigger a demotion, on the kinds measurable at
        run time (:func:`~repro.core.policy.runtime_observer`): ELAPSED_TIME,
        ROWS_RETURNED (≈ progress × actual rows), CPU_TIME, MEMORY_MB.
    demote_cooldown:
        Minimum seconds between demotions of the same query (one rung
        per violation event, as DB2 remaps once per threshold trip).
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_RUNTIME,
            Feature.CHANGES_RUNNING_PRIORITY,
            Feature.USES_THRESHOLDS,
        }
    )

    def __init__(
        self,
        ladder: Optional[ServiceClassLadder] = None,
        thresholds: Sequence[Threshold] = (
            Threshold(ThresholdKind.ELAPSED_TIME, 30.0, ThresholdAction.DEMOTE),
        ),
        demote_cooldown: float = 10.0,
    ) -> None:
        self.ladder = ladder or ServiceClassLadder()
        self.thresholds = list(thresholds)
        for threshold in self.thresholds:
            if threshold.action is not ThresholdAction.DEMOTE:
                raise ConfigurationError(
                    "PriorityAgingController thresholds must use DEMOTE"
                )
            runtime_observer(threshold.kind)  # an unobservable kind is an error
        self.demote_cooldown = demote_cooldown
        self._last_demotion: Dict[int, float] = {}

    def _has_level(self, name: str) -> bool:
        return any(level == name for level, _ in self.ladder.levels)

    def control(self, context: WorkloadManager) -> None:
        for query in context.engine.running_queries():
            level = query.service_class or self.ladder.top
            if not self._has_level(level):
                # the query was mapped to a service *class* (e.g. DB2's
                # "main"); aging operates on its subclasses, starting
                # from the top one
                level = self.ladder.top
            if query.service_class != level:
                query.service_class = level
            last = self._last_demotion.get(query.query_id, float("-inf"))
            if context.now - last < self.demote_cooldown:
                continue
            violated = any(
                threshold.violated_by(
                    runtime_observer(threshold.kind)(query, context)
                )
                for threshold in self.thresholds
            )
            if not violated:
                continue
            lower = self.ladder.below(level)
            if lower is None:
                continue
            query.service_class = lower
            query.demotions += 1
            self._last_demotion[query.query_id] = context.now
            context.engine.set_weight(
                query.query_id, self.ladder.weight_of(lower)
            )
            context.record(self, "demote", query, lower)

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        self._last_demotion.pop(query.query_id, None)
