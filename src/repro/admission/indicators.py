"""Indicator-based admission control (Zhang et al. [79][80], Table 2).

"The indicator approach uses a set of monitor metrics of a DBMS to
detect the performance failure.  If the indicator's values exceed
pre-defined thresholds, low priority requests are no longer admitted"
(paper §3.2).

Indicators are congestion signals computable from ordinary monitoring:
memory pressure, the memory an arriving request's estimate would
commit, conflict ratio and queue length.  When any indicator fires the
request is delayed.  The gate delays every request it sees; the §2.3
asymmetry that keeps high-priority work flowing is
:class:`~repro.admission.base.PriorityExemptAdmission` wrapped around
it.  Each read is a module-level function, so an armed gate pickles
with the run it belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core.classify import Feature
from repro.core.interfaces import AdmissionController, AdmissionDecision
from repro.core.manager import WorkloadManager
from repro.engine.query import Query


def memory_pressure(query: Query, context: WorkloadManager) -> float:
    """Committed memory over capacity (sort/hash spill pressure)."""
    return context.engine.memory_pressure()


def projected_memory(query: Query, context: WorkloadManager) -> float:
    """Memory pressure once ``query``'s *estimated* demand is committed:
    the estimate is the only pre-execution signal a real server has."""
    engine = context.engine
    committed = engine.buffer_pool.committed_mb + query.estimated_cost.memory_mb
    return committed / max(engine.machine.memory_mb, 1e-9)


def conflict_ratio(query: Query, context: WorkloadManager) -> float:
    """Lock contention, the critical-ratio signal of [56]."""
    return min(context.engine.conflict_ratio(), 1e6)


def queue_length(query: Query, context: WorkloadManager) -> float:
    """Admitted requests waiting in the scheduler's queue, not the gate's
    own holds: counting those would shut it for good past the threshold."""
    return float(context.scheduler.queued_count())


@dataclass(frozen=True)
class Indicator:
    """One monitor metric with a congestion threshold."""

    name: str
    read: Callable[[Query, WorkloadManager], float]
    threshold: float


def default_indicators() -> List[Indicator]:
    """The default congestion-indicator set.

    Mirrors the spirit of [79]: memory (sort/hash spill pressure), lock
    contention, and queueing backlog.
    """
    return [
        Indicator("memory_pressure", memory_pressure, 1.5),
        Indicator("conflict_ratio", conflict_ratio, 1.5),
        Indicator("queue_length", queue_length, 50.0),
    ]


class IndicatorAdmission(AdmissionController):
    """Delay requests while any congestion indicator fires."""

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_ARRIVAL,
            Feature.USES_THRESHOLDS,
            Feature.THRESHOLD_ON_MONITOR_METRICS,
        }
    )

    def __init__(self, indicators: Optional[Sequence[Indicator]] = None) -> None:
        self.indicators = (
            default_indicators() if indicators is None else list(indicators)
        )
        if not self.indicators:
            raise ValueError("need at least one indicator")
        self.delays = 0
        self.firings = {indicator.name: 0 for indicator in self.indicators}

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        fired = []
        for indicator in self.indicators:
            value = indicator.read(query, context)
            if value > indicator.threshold:
                self.firings[indicator.name] += 1
                fired.append(f"{indicator.name}={value:.2f}>{indicator.threshold:g}")
        if fired:
            self.delays += 1
            return AdmissionDecision.delay(f"indicators fired: {', '.join(fired)}")
        return AdmissionDecision.accept("no congestion indicators fired")
