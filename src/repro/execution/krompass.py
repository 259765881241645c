"""Krompass et al.'s fuzzy-logic execution controller [39] (§4.2.4).

"The execution control component is implemented with a rule-based fuzzy
logic controller, and the query execution control actions include query
reprioritize, kill and resubmit after kill...  the controller uses
information gathered at runtime to manage the queries concurrently
running in a database system.  The monitored metrics include priority,
number of query cancellations, operator progress, resource contention."

Fuzzy memberships over those monitored metrics are combined by
rule-based inference into a *problem score* per running query; the
defuzzified score band selects the action:

* mild problem    → reprioritize (halve the fair-share weight);
* serious problem → kill and resubmit (the same request restarts later);
* hopeless        → kill (dispose of intermediate results).

A query that has already been cancelled repeatedly meets a lower kill
edge, so a hopeless request stops restarting (matching the paper's
"number of query cancellations" input: endless kill loops help nobody).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.classify import Feature
from repro.core.interfaces import ExecutionController
from repro.core.manager import WorkloadManager
from repro.engine.query import Query
from repro.execution.progress import ProgressIndicator, SpeedAwareProgressIndicator


def _ramp(value: float, low: float, high: float) -> float:
    """Fuzzy membership rising linearly from 0 at ``low`` to 1 at ``high``."""
    if high <= low:
        return 1.0 if value >= high else 0.0
    return min(1.0, max(0.0, (value - low) / (high - low)))


@dataclass
class _Assessment:
    query: Query
    long_running: float
    low_priority: float
    little_progress: float
    contention: float
    score: float


class FuzzyExecutionController(ExecutionController):
    """Rule-based fuzzy controller over runtime metrics.

    Inference (max-product, per [39]'s spirit):

    * problem ⟸ long_running AND little_progress
    * problem ⟸ long_running AND contention
    * mitigation weight: low business priority amplifies the score,
      high priority suppresses it (high-priority queries are the ones
      being protected, not controlled).
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_RUNTIME,
            Feature.TERMINATES_RUNNING_REQUEST,
            Feature.RESUBMITS_AFTER_KILL,
            Feature.CHANGES_RUNNING_PRIORITY,
            Feature.REALLOCATES_RESOURCES,
        }
    )

    def __init__(
        self,
        long_running_onset: float = 20.0,
        long_running_full: float = 120.0,
        reprioritize_band: Tuple[float, float] = (0.35, 0.6),
        resubmit_band: Tuple[float, float] = (0.6, 0.85),
        max_priority: int = 2,
        progress_indicator: Optional[ProgressIndicator] = None,
    ) -> None:
        self.long_running_onset = long_running_onset
        self.long_running_full = long_running_full
        self.reprioritize_band = reprioritize_band
        self.resubmit_band = resubmit_band
        self.max_priority = max_priority
        self.progress_indicator = progress_indicator or SpeedAwareProgressIndicator()
        self._reprioritized: Dict[int, int] = {}          # qid -> times halved

    # ------------------------------------------------------------------
    def assess(self, query: Query, context: WorkloadManager) -> _Assessment:
        """Fuzzy assessment of one running query (exposed for tests)."""
        started = query.start_time if query.start_time is not None else context.now
        elapsed = context.now - started
        long_running = _ramp(
            elapsed, self.long_running_onset, self.long_running_full
        )
        # any query at or below the controllable priority has full
        # "low priority" membership; above it the controller never looks
        low_priority = _ramp(
            float(self.max_priority - query.priority + 1), 0.0, 1.0
        )
        done = self.progress_indicator.work_done(query, context)
        little_progress = 1.0 - done
        contention = max(
            _ramp(context.engine.memory_pressure(), 1.0, 2.0),
            _ramp(min(context.engine.conflict_ratio(), 10.0), 1.2, 2.0),
        )
        rule1 = long_running * little_progress
        rule2 = long_running * contention
        score = max(rule1, rule2) * low_priority
        return _Assessment(
            query=query,
            long_running=long_running,
            low_priority=low_priority,
            little_progress=little_progress,
            contention=contention,
            score=score,
        )

    def control(self, context: WorkloadManager) -> None:
        for query in list(context.engine.running_queries()):
            if query.priority > self.max_priority:
                continue
            if not context.engine.is_running(query.query_id):
                continue
            assessment = self.assess(query, context)
            score = assessment.score
            # a request restarted before meets a lower kill edge: it is
            # stopped sooner, and after three restarts a fresh attempt's
            # rising score meets the kill edge before the resubmit band
            kill_edge = self.resubmit_band[1] - 0.1 * min(query.restarts, 3)
            if score >= kill_edge:
                context.engine.kill(query.query_id)
                context.record(self, "kill", query, score)
            elif score >= self.resubmit_band[0]:
                context.restart(query, 10.0)
                context.record(self, "kill_and_resubmit", query, score)
            elif score >= self.reprioritize_band[0]:
                halvings = self._reprioritized.get(query.query_id, 0)
                if halvings < 3:
                    weight = context.engine.weight_of(query.query_id) / 2.0
                    context.engine.set_weight(query.query_id, max(weight, 0.05))
                    self._reprioritized[query.query_id] = halvings + 1
                    context.record(self, "reprioritize", query, score)

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        self._reprioritized.pop(query.query_id, None)
