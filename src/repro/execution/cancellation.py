"""Query cancellation: kill and kill-and-resubmit (Table 3).

"Query cancellation is widely used in workload management facilities of
commercial databases to kill the process of a running query.  When a
running query is terminated, the shared system resources used by the
query are immediately released...  The terminated query may be
re-submitted to the system for later execution based on a query
execution control policy" (§3.4).

A :class:`KillRule` pairs a trigger threshold with an optional progress
guard.  The threshold's action is the disposition: ``STOP_EXECUTION``
kills outright, ``KILL_AND_RESUBMIT`` ends the running attempt and the
same request re-enters after ``resubmit_delay``.  Per §5.2, killing a
query that is nearly done frees few resources and wastes its work, so
rules can consult a progress indicator and spare queries beyond
``spare_over_progress``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.classify import Feature
from repro.core.interfaces import ExecutionController
from repro.core.manager import WorkloadManager
from repro.core.policy import Threshold, ThresholdAction, ThresholdKind, runtime_observer
from repro.engine.query import Query
from repro.errors import ConfigurationError
from repro.execution.progress import ProgressIndicator, SpeedAwareProgressIndicator


@dataclass(frozen=True)
class KillRule:
    """One cancellation rule."""

    threshold: Threshold
    resubmit_delay: float = 30.0           # KILL_AND_RESUBMIT only
    max_priority: Optional[int] = None     # only kill at or below this
    spare_over_progress: Optional[float] = None  # progress guard
    applies_to_workloads: Optional[Tuple[str, ...]] = None  # None = all

    def __post_init__(self) -> None:
        if self.threshold.action not in (
            ThresholdAction.STOP_EXECUTION,
            ThresholdAction.KILL_AND_RESUBMIT,
        ):
            raise ConfigurationError(
                "KillRule thresholds must use STOP_EXECUTION or "
                "KILL_AND_RESUBMIT"
            )
        runtime_observer(self.threshold.kind)  # an unobservable kind is an error


def elapsed_time_kill(
    limit: float,
    resubmit: bool = False,
    resubmit_delay: float = 30.0,
    max_priority: Optional[int] = None,
    spare_over_progress: Optional[float] = None,
) -> KillRule:
    """The ubiquitous rule: kill after running ``limit`` seconds."""
    action = (
        ThresholdAction.KILL_AND_RESUBMIT
        if resubmit
        else ThresholdAction.STOP_EXECUTION
    )
    return KillRule(
        threshold=Threshold(ThresholdKind.ELAPSED_TIME, limit, action),
        resubmit_delay=resubmit_delay,
        max_priority=max_priority,
        spare_over_progress=spare_over_progress,
    )


class QueryKillController(ExecutionController):
    """Automatic cancellation on threshold violation."""

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_RUNTIME,
            Feature.TERMINATES_RUNNING_REQUEST,
            Feature.USES_THRESHOLDS,
        }
    )

    def __init__(
        self,
        rules: Sequence[KillRule],
        progress_indicator: Optional[ProgressIndicator] = None,
    ) -> None:
        if not rules:
            raise ConfigurationError("QueryKillController needs rules")
        self.rules = list(rules)
        self.progress_indicator = progress_indicator or SpeedAwareProgressIndicator()

    def control(self, context: WorkloadManager) -> None:
        for query in list(context.engine.running_queries()):
            rule = self._matching_rule(query, context)
            if rule is None:
                continue
            if not context.engine.is_running(query.query_id):
                continue  # removed by an earlier kill's side effects
            if rule.threshold.action is ThresholdAction.KILL_AND_RESUBMIT:
                context.restart(query, rule.resubmit_delay)
                action = "kill_and_resubmit"
            else:
                context.engine.kill(query.query_id)
                action = "kill"
            context.record(self, action, query, rule.threshold.describe())

    def _matching_rule(
        self, query: Query, context: WorkloadManager
    ) -> Optional[KillRule]:
        for rule in self.rules:
            if rule.max_priority is not None and query.priority > rule.max_priority:
                continue
            if (
                rule.applies_to_workloads is not None
                and query.workload_name not in rule.applies_to_workloads
            ):
                continue
            value = runtime_observer(rule.threshold.kind)(query, context)
            if not rule.threshold.violated_by(value):
                continue
            if rule.spare_over_progress is not None:
                done = self.progress_indicator.work_done(query, context)
                if done >= rule.spare_over_progress:
                    continue
            return rule
        return None
