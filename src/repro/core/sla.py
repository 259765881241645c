"""Service-level agreements and performance objectives (paper §2.1).

Objectives are expressed with the metrics the paper names: *response
time* (averages or percentiles — "x% of queries complete in y time units
or less"), *throughput*, and *request execution velocity* (expected
execution time over actual time in system; ~1 means no delay).  A
:class:`ServiceLevelAgreement` attaches objectives and a business
importance to a workload; an :class:`SLASet` holds the agreements for a
whole server and evaluates them against collected metrics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import PolicyError


class ObjectiveKind(enum.Enum):
    """The performance metrics objectives can target (§2.1)."""

    AVERAGE_RESPONSE_TIME = "average_response_time"
    PERCENTILE_RESPONSE_TIME = "percentile_response_time"
    THROUGHPUT = "throughput"
    VELOCITY = "velocity"


@dataclass(frozen=True)
class PerformanceObjective:
    """One measurable goal.

    ``target`` is an upper bound for response-time kinds and a lower
    bound for throughput/velocity kinds.  ``percentile`` only applies to
    :attr:`ObjectiveKind.PERCENTILE_RESPONSE_TIME` (e.g. 95.0 for "95% of
    queries complete within target").
    """

    kind: ObjectiveKind
    target: float
    percentile: Optional[float] = None

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise PolicyError("objective target must be positive")
        if self.kind is ObjectiveKind.PERCENTILE_RESPONSE_TIME:
            if self.percentile is None or not 0 < self.percentile < 100:
                raise PolicyError(
                    "percentile objectives need percentile in (0, 100)"
                )
        elif self.percentile is not None:
            raise PolicyError(f"{self.kind.value} objective takes no percentile")
        if self.kind is ObjectiveKind.VELOCITY and self.target > 1.0:
            raise PolicyError("velocity targets cannot exceed 1.0")

    def satisfied_by(self, measured: Optional[float]) -> Optional[bool]:
        """Whether ``measured`` meets the objective (None = no data)."""
        if measured is None:
            return None
        if self.kind in (
            ObjectiveKind.AVERAGE_RESPONSE_TIME,
            ObjectiveKind.PERCENTILE_RESPONSE_TIME,
        ):
            return measured <= self.target
        return measured >= self.target

    def describe(self) -> str:
        if self.kind is ObjectiveKind.AVERAGE_RESPONSE_TIME:
            return f"avg response time <= {self.target:g}s"
        if self.kind is ObjectiveKind.PERCENTILE_RESPONSE_TIME:
            return f"p{self.percentile:g} response time <= {self.target:g}s"
        if self.kind is ObjectiveKind.THROUGHPUT:
            return f"throughput >= {self.target:g}/s"
        return f"velocity >= {self.target:g}"


@dataclass(frozen=True)
class ObjectiveResult:
    """Evaluation of one objective against measurements."""

    objective: PerformanceObjective
    measured: Optional[float]
    satisfied: Optional[bool]

    def describe(self) -> str:
        status = (
            "no data" if self.satisfied is None
            else "MET" if self.satisfied else "MISSED"
        )
        measured = "-" if self.measured is None else f"{self.measured:.3f}"
        return f"{self.objective.describe()} [measured {measured}] {status}"


@dataclass(frozen=True)
class ServiceLevelAgreement:
    """Objectives + business importance for one workload.

    ``importance`` is the business-importance level (§2.1): it orders
    workloads for resource access and drives priority-to-weight mapping.
    Non-goal workloads (paper §2.1) simply carry no objectives.
    """

    workload: str
    objectives: Sequence[PerformanceObjective] = ()
    importance: int = 1

    def __post_init__(self) -> None:
        if self.importance < 1:
            raise PolicyError("importance must be >= 1")
        # evaluate() reads one value per ObjectiveKind, so a measurement
        # map carries one percentile: two would be judged against one
        percentiles = sorted({o.percentile for o in self.objectives} - {None})
        if len(percentiles) > 1:
            raise PolicyError(
                f"SLA for {self.workload!r} is evaluated at one percentile, got "
                + " and ".join(f"p{p:g}" for p in percentiles)
            )

    @property
    def has_goals(self) -> bool:
        return bool(self.objectives)

    def evaluate(
        self, measurements: Mapping[ObjectiveKind, Optional[float]]
    ) -> List[ObjectiveResult]:
        """Evaluate every objective against a measurement map."""
        results = []
        for objective in self.objectives:
            measured = measurements.get(objective.kind)
            results.append(
                ObjectiveResult(
                    objective=objective,
                    measured=measured,
                    satisfied=objective.satisfied_by(measured),
                )
            )
        return results


class SLASet:
    """All SLAs configured on a database server."""

    def __init__(self, agreements: Sequence[ServiceLevelAgreement] = ()) -> None:
        self._by_workload: Dict[str, ServiceLevelAgreement] = {}
        for sla in agreements:
            self.add(sla)

    def add(self, sla: ServiceLevelAgreement) -> None:
        if sla.workload in self._by_workload:
            raise PolicyError(f"duplicate SLA for workload {sla.workload!r}")
        self._by_workload[sla.workload] = sla

    def get(self, workload: Optional[str]) -> Optional[ServiceLevelAgreement]:
        if workload is None:
            return None
        return self._by_workload.get(workload)

    def importance_of(self, workload: Optional[str], default: int = 1) -> int:
        sla = self.get(workload)
        return sla.importance if sla else default

    def workloads(self) -> List[str]:
        return list(self._by_workload)

    def __len__(self) -> int:
        return len(self._by_workload)

    def __iter__(self):
        return iter(self._by_workload.values())


def response_time_sla(
    workload: str,
    average: Optional[float] = None,
    p95: Optional[float] = None,
    importance: int = 1,
    velocity: Optional[float] = None,
) -> ServiceLevelAgreement:
    """Convenience builder for the most common SLA shape."""
    objectives: List[PerformanceObjective] = []
    if average is not None:
        objectives.append(
            PerformanceObjective(ObjectiveKind.AVERAGE_RESPONSE_TIME, average)
        )
    if p95 is not None:
        objectives.append(
            PerformanceObjective(
                ObjectiveKind.PERCENTILE_RESPONSE_TIME, p95, percentile=95.0
            )
        )
    if velocity is not None:
        objectives.append(PerformanceObjective(ObjectiveKind.VELOCITY, velocity))
    return ServiceLevelAgreement(
        workload=workload, objectives=tuple(objectives), importance=importance
    )
