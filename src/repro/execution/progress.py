"""Query progress indicators (paper §3.4, [11][41][43][45][55]).

"A query progress indicator attempts to estimate how much work a
running query has completed and how much work the query will require to
finish... progress indicators keep track of a running query and
continuously estimate the query's remaining execution time."

Three estimators of decreasing privilege:

* :class:`SpeedAwareProgressIndicator` — sees the fluid progress and
  current speed (the idealized GSLPI-style indicator [43]);
* :class:`OperatorBoundaryProgressIndicator` — only observes completed
  plan-operator boundaries (driver-level observability, as in [45]):
  progress is floored to the last boundary, making the estimate
  conservative mid-operator;
* :class:`OptimizerCostProgressIndicator` — no runtime observation at
  all: remaining time from the optimizer's estimate minus elapsed time,
  the naive baseline whose failure modes ([11]'s "when can we trust
  progress estimators?") the comparison experiment exhibits.

The indicators are what lets execution control distinguish a
nearly-done long query (not worth killing — §5.2's open problem) from
one that will run for hours more.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.classify import Feature
from repro.core.manager import WorkloadManager
from repro.engine.query import Query


class ProgressIndicator(abc.ABC):
    """Estimates completed-work fraction and remaining seconds."""

    TECHNIQUE_FEATURES = frozenset(
        {Feature.ACTS_AT_RUNTIME, Feature.TRACKS_QUERY_PROGRESS}
    )

    @abc.abstractmethod
    def work_done(self, query: Query, context: WorkloadManager) -> float:
        """Estimated fraction of the query's work completed, in [0, 1]."""

    @abc.abstractmethod
    def remaining_seconds(
        self, query: Query, context: WorkloadManager
    ) -> Optional[float]:
        """Estimated seconds to completion (None = cannot estimate)."""


class SpeedAwareProgressIndicator(ProgressIndicator):
    """Fluid progress and current speed from the engine (idealized)."""

    def work_done(self, query: Query, context: WorkloadManager) -> float:
        if not context.engine.is_running(query.query_id):
            return query.progress
        return context.engine.progress_of(query.query_id)

    def remaining_seconds(
        self, query: Query, context: WorkloadManager
    ) -> Optional[float]:
        if not context.engine.is_running(query.query_id):
            return None
        progress = context.engine.progress_of(query.query_id)
        speed = context.engine.speed_of(query.query_id)
        if speed <= 0:
            return float("inf")
        return (1.0 - progress) / speed


class OperatorBoundaryProgressIndicator(ProgressIndicator):
    """Progress observed only at plan-operator boundaries."""

    def work_done(self, query: Query, context: WorkloadManager) -> float:
        fluid = (
            context.engine.progress_of(query.query_id)
            if context.engine.is_running(query.query_id)
            else query.progress
        )
        index = query.plan.operator_at_progress(fluid)
        return query.plan.progress_at_operator_start(index)

    def remaining_seconds(
        self, query: Query, context: WorkloadManager
    ) -> Optional[float]:
        if not context.engine.is_running(query.query_id):
            return None
        done = self.work_done(query, context)
        started = query.start_time if query.start_time is not None else context.now
        elapsed = context.now - started
        if done <= 0:
            # nothing observed yet: fall back to the optimizer estimate
            return query.estimated_cost.nominal_duration
        rate = done / max(elapsed, 1e-9)
        return (1.0 - done) / max(rate, 1e-9)


class OptimizerCostProgressIndicator(ProgressIndicator):
    """Remaining time from the optimizer estimate alone (the baseline).

    ``work_done`` = elapsed / estimated duration, clipped — exactly the
    estimator that calls a query "nearly done" forever once the
    optimizer underestimated it.
    """

    def work_done(self, query: Query, context: WorkloadManager) -> float:
        estimate = query.estimated_cost.nominal_duration
        if estimate <= 0:
            return 1.0
        started = query.start_time if query.start_time is not None else context.now
        elapsed = context.now - started
        return min(1.0, elapsed / estimate)

    def remaining_seconds(
        self, query: Query, context: WorkloadManager
    ) -> Optional[float]:
        estimate = query.estimated_cost.nominal_duration
        started = query.start_time if query.start_time is not None else context.now
        elapsed = context.now - started
        return max(0.0, estimate - elapsed)
