"""IBM DB2 Workload Manager model (paper §4.1.1, [30]).

The configuration vocabulary follows the three DB2 stages:

* **identification** — :class:`DB2Workload` (connection-attribute
  matching) and :class:`DB2WorkClass` (type + predictive elements:
  estimated cost, estimated rows);
* **management** — :class:`DB2ServiceClass` with service subclasses
  carrying agent priorities (our fair-share weights), and
  :class:`DB2Threshold` objects whose violation triggers actions:
  ``stop execution``, ``continue``, ``queue activities``, or a remap to
  a lower subclass (priority aging);
* **monitoring** — the manager's metrics/query log stand in for table
  functions and event monitors.

``DB2WorkloadManagerConfig.build()`` compiles all of it onto the
framework: static characterization, threshold-based admission
(estimated cost, concurrent activities), MPL queueing, priority aging
and query cancellation — exactly the technique set Table 4 lists for
DB2 WLM.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.admission.threshold import ThresholdAdmission
from repro.characterization.static import (
    AttributePredicate,
    StaticCharacterizer,
    WorkClassCriteria,
    WorkloadDefinition,
)
from repro.core.manager import priority_weight
from repro.core.policy import (
    AdmissionPolicy,
    Threshold,
    ThresholdAction,
    ThresholdKind,
)
from repro.engine.query import Query, StatementType
from repro.errors import ConfigurationError
from repro.execution.cancellation import KillRule, QueryKillController
from repro.execution.reprioritization import (
    PriorityAgingController,
    ServiceClassLadder,
)
from repro.scheduling.queues import MultiQueueScheduler
from repro.systems.base import SystemBundle


@dataclass(frozen=True)
class DB2Workload:
    """A DB2 workload object: identification by connection attributes."""

    name: str
    application: Optional[str] = None
    user: Optional[str] = None
    client_ip: Optional[str] = None
    service_class: str = "main"
    priority: int = 1

    def who_predicates(self) -> Tuple[AttributePredicate, ...]:
        predicates = []
        if self.application is not None:
            predicates.append(AttributePredicate("application", self.application))
        if self.user is not None:
            predicates.append(AttributePredicate("user", self.user))
        if self.client_ip is not None:
            predicates.append(AttributePredicate("client_ip", self.client_ip))
        return tuple(predicates)


@dataclass(frozen=True)
class DB2WorkClass:
    """A work class: identification by the type of incoming work."""

    name: str
    statement_types: Optional[Tuple[StatementType, ...]] = None
    min_estimated_cost: Optional[float] = None     # "timerons"
    min_estimated_rows: Optional[int] = None
    workload: str = "default"
    priority: int = 1
    service_class: str = "main"

    def criteria(self) -> WorkClassCriteria:
        return WorkClassCriteria(
            statement_types=self.statement_types,
            min_estimated_cost=self.min_estimated_cost,
            min_estimated_rows=self.min_estimated_rows,
        )


@dataclass(frozen=True)
class DB2ServiceClass:
    """A service class with its subclasses' agent priorities (weights)."""

    name: str
    subclass_weights: Tuple[Tuple[str, float], ...] = (
        ("high", 4.0),
        ("medium", 2.0),
        ("low", 1.0),
    )

    def ladder(self) -> ServiceClassLadder:
        return ServiceClassLadder(levels=self.subclass_weights)


@dataclass(frozen=True)
class DB2Threshold:
    """A DB2 threshold object: limit + action on violation.

    Supported kinds map onto DB2's ELAPSEDTIME, ESTIMATEDSQLCOST,
    SQLROWSRETURNED and CONCURRENTDBACTIVITIES thresholds; supported
    actions are STOP_EXECUTION, REJECT (for predictive thresholds),
    QUEUE (concurrency) and DEMOTE (remap action / priority aging).
    """

    kind: ThresholdKind
    limit: float
    action: ThresholdAction
    workload: Optional[str] = None       # None = database-wide

    def as_policy_threshold(self) -> Threshold:
        return Threshold(self.kind, self.limit, self.action)


def subclass_weight(weights: Dict[str, float], query: Query) -> float:
    """The weight of ``query``'s service subclass, or its priority
    weight where the ladder does not name its subclass."""
    if query.service_class in weights:
        return weights[query.service_class]
    return priority_weight(query)


@dataclass
class DB2WorkloadManagerConfig:
    """A complete DB2 WLM setup, compiled by :meth:`build`."""

    workloads: Sequence[DB2Workload] = ()
    work_classes: Sequence[DB2WorkClass] = ()
    service_classes: Sequence[DB2ServiceClass] = (DB2ServiceClass("main"),)
    thresholds: Sequence[DB2Threshold] = ()
    default_workload: str = "default"
    global_mpl: Optional[int] = None

    def build(self) -> SystemBundle:
        """Compile to framework components."""
        definitions: List[WorkloadDefinition] = []
        # Work classes evaluate first (type beats origin for predictive
        # gating), then connection-attribute workloads.
        for work_class in self.work_classes:
            definitions.append(
                WorkloadDefinition(
                    workload=work_class.workload,
                    priority=work_class.priority,
                    what=work_class.criteria(),
                    service_class=work_class.service_class,
                )
            )
        for workload in self.workloads:
            definitions.append(
                WorkloadDefinition(
                    workload=workload.name,
                    priority=workload.priority,
                    who=workload.who_predicates(),
                    service_class=workload.service_class,
                )
            )
        characterizer = StaticCharacterizer(
            definitions, default_workload=self.default_workload
        )

        reject_cost: Dict[Optional[str], float] = {}
        mpl_limits: Dict[Optional[str], int] = {}
        kill_rules: List[KillRule] = []
        aging_thresholds: List[Threshold] = []
        for threshold in self.thresholds:
            if threshold.action is ThresholdAction.REJECT:
                if threshold.kind is not ThresholdKind.ESTIMATED_COST:
                    raise ConfigurationError(
                        "REJECT thresholds must be on estimated cost"
                    )
                reject_cost[threshold.workload] = threshold.limit
            elif threshold.action is ThresholdAction.QUEUE:
                if threshold.kind is not ThresholdKind.CONCURRENCY:
                    raise ConfigurationError(
                        "QUEUE thresholds must be on concurrency"
                    )
                mpl_limits[threshold.workload] = int(threshold.limit)
            elif threshold.action is ThresholdAction.STOP_EXECUTION:
                kill_rules.append(
                    KillRule(
                        threshold=threshold.as_policy_threshold(),
                        applies_to_workloads=(
                            None if threshold.workload is None else (threshold.workload,)
                        ),
                    )
                )
            elif threshold.action is ThresholdAction.DEMOTE:
                if threshold.workload is not None:
                    raise ConfigurationError(
                        f"DEMOTE threshold {threshold.as_policy_threshold().describe()!r} "
                        f"is scoped to workload {threshold.workload!r}: priority aging "
                        "is database-wide"
                    )
                aging_thresholds.append(threshold.as_policy_threshold())
            elif threshold.action is ThresholdAction.CONTINUE:
                continue  # collect-data-only thresholds have no control effect
            else:
                raise ConfigurationError(
                    f"unsupported DB2 threshold action {threshold.action}"
                )

        per_workload_admission = {
            name: AdmissionPolicy(reject_over_cost=limit)
            for name, limit in reject_cost.items()
            if name is not None
        }
        default_admission = AdmissionPolicy(
            reject_over_cost=reject_cost.get(None)
        )
        admission = ThresholdAdmission(
            default_policy=default_admission, per_workload=per_workload_admission
        )

        scheduler = MultiQueueScheduler(
            global_mpl=mpl_limits.get(None, self.global_mpl),
            per_workload_mpl={
                name: limit for name, limit in mpl_limits.items() if name is not None
            },
        )

        controllers: List = []
        ladder = self.service_classes[0].ladder() if self.service_classes else None
        if aging_thresholds:
            controllers.append(
                PriorityAgingController(
                    ladder=ladder, thresholds=aging_thresholds
                )
            )
        if kill_rules:
            controllers.append(QueryKillController(rules=kill_rules))

        ladder_weights = (
            dict(self.service_classes[0].subclass_weights)
            if self.service_classes
            else {}
        )

        return SystemBundle(
            characterizer=characterizer,
            admission=admission,
            scheduler=scheduler,
            execution_controllers=controllers,
            weight_fn=partial(subclass_weight, ladder_weights),
            name="IBM DB2 Workload Manager",
        )
