"""Teradata Active System Management model (paper §4.1.3, [71][72]).

Components mirrored:

* **Teradata Workload Analyzer** (:class:`TeradataWorkloadAnalyzer`) —
  analyzes the query log (DBQL) and recommends candidate workload
  definitions, with merge/split refinement;
* **filters** — :class:`ObjectAccessFilter` (reject by source,
  statement type or accessed database object) and
  :class:`QueryResourceFilter` (reject queries estimated to access too
  many rows or take too long);
* **throttles** — :class:`WorkloadThrottle` and :class:`ObjectThrottle`
  concurrency rules putting excess queries on a delay queue;
* **workload definitions** (:class:`TeradataWorkloadDefinition`) —
  classification criteria (who/where/what), priority / allocation
  group, SLGs, and exception criteria+actions handled by the
  **regulator** (abort, or change-workload = demotion).

``TeradataASMConfig.build()`` compiles to static characterization,
composite admission (filters then throttles), multi-queue scheduling
and regulator execution controllers — the Table 4 technique set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.admission.base import CompositeAdmission
from repro.characterization.static import (
    AttributePredicate,
    StaticCharacterizer,
    WorkClassCriteria,
    WorkloadDefinition,
)
from repro.core.classify import Feature
from repro.core.interfaces import AdmissionController, AdmissionDecision
from repro.core.manager import WorkloadManager, priority_weight
from repro.core.policy import Threshold, ThresholdAction, ThresholdKind
from repro.engine.query import Query, StatementType
from repro.errors import ConfigurationError
from repro.execution.cancellation import KillRule, QueryKillController
from repro.execution.reprioritization import (
    PriorityAgingController,
    ServiceClassLadder,
)
from repro.scheduling.queues import MultiQueueScheduler
from repro.systems.base import SystemBundle
from repro.workloads.traces import QueryLog, QueryLogRecord


# ----------------------------------------------------------------------
# filters (reject before execution)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectAccessFilter:
    """Reject requests by origin, statement type or accessed object.

    "The object access filters limit access to specific database
    objects for certain or all types of SQL requests" (§4.1.3).
    """

    name: str
    reject_applications: Tuple[str, ...] = ()
    reject_statement_types: Tuple[StatementType, ...] = ()
    reject_objects: Tuple[str, ...] = ()


@dataclass(frozen=True)
class QueryResourceFilter:
    """Reject queries estimated to be too expensive."""

    name: str
    max_estimated_rows: Optional[int] = None
    max_estimated_work: Optional[float] = None


class _FilterAdmission(AdmissionController):
    """Admission gate applying Teradata filters: ASM's threshold-based
    admission, a query resource filter's limit on estimated cost."""

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_ARRIVAL,
            Feature.USES_THRESHOLDS,
            Feature.THRESHOLD_ON_SYSTEM_PARAMETER,
        }
    )

    def __init__(
        self,
        object_filters: Sequence[ObjectAccessFilter],
        resource_filters: Sequence[QueryResourceFilter],
    ) -> None:
        self.object_filters = list(object_filters)
        self.resource_filters = list(resource_filters)
        self.filtered_count = 0

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        session = context.sessions.get(query.session_id)
        application = (
            session.attributes.application if session is not None else ""
        )
        for object_filter in self.object_filters:
            if application in object_filter.reject_applications:
                self.filtered_count += 1
                return AdmissionDecision.reject(
                    f"filter {object_filter.name}: application blocked"
                )
            if query.statement_type in object_filter.reject_statement_types:
                self.filtered_count += 1
                return AdmissionDecision.reject(
                    f"filter {object_filter.name}: statement type blocked"
                )
            if object_filter.reject_objects and any(
                obj in object_filter.reject_objects for obj in query.objects
            ):
                self.filtered_count += 1
                return AdmissionDecision.reject(
                    f"filter {object_filter.name}: object access blocked"
                )
        for resource_filter in self.resource_filters:
            if (
                resource_filter.max_estimated_rows is not None
                and query.estimated_cost.rows > resource_filter.max_estimated_rows
            ):
                self.filtered_count += 1
                return AdmissionDecision.reject(
                    f"filter {resource_filter.name}: too many estimated rows"
                )
            if (
                resource_filter.max_estimated_work is not None
                and query.estimated_cost.total_work
                > resource_filter.max_estimated_work
            ):
                self.filtered_count += 1
                return AdmissionDecision.reject(
                    f"filter {resource_filter.name}: estimated to take too long"
                )
        return AdmissionDecision.accept("passed filters")


# ----------------------------------------------------------------------
# throttles and workload definitions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectThrottle:
    """Concurrency rule per database object.

    "The object throttles limit the number of queries executed
    simultaneously against a database object" (§4.1.3).  Excess queries
    go on the delay queue, like workload throttles.
    """

    object_name: str
    limit: int

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ConfigurationError("object throttle limit must be >= 1")


class _ObjectThrottleAdmission(AdmissionController):
    """Delay queries whose objects are at their concurrency limit."""

    def __init__(self, throttles: Sequence[ObjectThrottle]) -> None:
        self.limits = {t.object_name: t.limit for t in throttles}
        self.delays = 0  # delays decided; a carried-over hold adds none

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        constrained = [obj for obj in query.objects if obj in self.limits]
        if not constrained:
            return AdmissionDecision.accept("no throttled objects")
        running = context.engine.running_queries()
        for obj in constrained:
            in_flight = sum(1 for q in running if obj in q.objects)
            if in_flight >= self.limits[obj]:
                self.delays += 1
                return AdmissionDecision.delay(
                    f"object throttle on {obj!r}: {in_flight} running", (self, obj)
                )
        return AdmissionDecision.accept("object throttles clear")


@dataclass(frozen=True)
class WorkloadThrottle:
    """Concurrency rule: excess queries go on the delay queue."""

    workload: str
    limit: int

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ConfigurationError("throttle limit must be >= 1")


@dataclass(frozen=True)
class UtilityThrottle:
    """Concurrency limit on database utilities.

    "The utility throttles enforce concurrency limits on the database
    utilities, such as load, export and restore, that run
    simultaneously" (§4.1.3).  Applies to UTILITY and LOAD statements.
    """

    limit: int

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ConfigurationError("utility throttle limit must be >= 1")


class _UtilityThrottleAdmission(AdmissionController):
    """Delay utilities while the utility concurrency limit is reached."""

    _UTILITY_TYPES = (StatementType.UTILITY, StatementType.LOAD)

    def __init__(self, throttle: UtilityThrottle) -> None:
        self.limit = throttle.limit
        self.delays = 0  # delays decided; a carried-over hold adds none

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        if query.statement_type not in self._UTILITY_TYPES:
            return AdmissionDecision.accept("not a utility")
        running = sum(
            1
            for q in context.engine.running_queries()
            if q.statement_type in self._UTILITY_TYPES
        )
        if running >= self.limit:
            self.delays += 1
            return AdmissionDecision.delay(
                f"utility throttle: {running} utilities running", self
            )
        return AdmissionDecision.accept("utility slot available")


@dataclass(frozen=True)
class _TeradataDefinition(WorkloadDefinition):
    """Workload definition extended with Teradata's "where" criteria."""

    where_objects: Optional[Tuple[str, ...]] = None

    def matches(self, query, session) -> bool:
        """Who + what + where: all configured criteria must accept."""
        if not super().matches(query, session):
            return False
        if self.where_objects is not None and not any(
            obj in self.where_objects for obj in query.objects
        ):
            return False
        return True


@dataclass(frozen=True)
class TeradataException:
    """Exception criteria + action, handled by the regulator.

    ``criterion`` supports CPU_TIME / ELAPSED_TIME / ROWS_RETURNED;
    ``action`` is "abort" or "demote" (change workload to a lower
    allocation group).
    """

    criterion: ThresholdKind
    limit: float
    action: str = "abort"

    def __post_init__(self) -> None:
        if self.action not in ("abort", "demote"):
            raise ConfigurationError("action must be 'abort' or 'demote'")


@dataclass(frozen=True)
class TeradataWorkloadDefinition:
    """Classification criteria, behaviour and SLG for one workload."""

    name: str
    # "who" criteria
    application: Optional[str] = None
    user: Optional[str] = None
    account: Optional[str] = None
    # "where" criteria: objects being accessed
    objects: Optional[Tuple[str, ...]] = None
    # "what" criteria
    statement_types: Optional[Tuple[StatementType, ...]] = None
    min_estimated_work: Optional[float] = None
    max_estimated_work: Optional[float] = None
    # execution behaviour
    priority: int = 1
    allocation_weight: float = 1.0
    throttle: Optional[int] = None
    exceptions: Tuple[TeradataException, ...] = ()
    # SLG
    response_time_goal: Optional[float] = None

    def to_definition(self) -> WorkloadDefinition:
        who: List[AttributePredicate] = []
        if self.application is not None:
            who.append(AttributePredicate("application", self.application))
        if self.user is not None:
            who.append(AttributePredicate("user", self.user))
        if self.account is not None:
            who.append(AttributePredicate("account", self.account))
        what = None
        if (
            self.statement_types is not None
            or self.min_estimated_work is not None
            or self.max_estimated_work is not None
        ):
            what = WorkClassCriteria(
                statement_types=self.statement_types,
                min_estimated_cost=self.min_estimated_work,
                max_estimated_cost=self.max_estimated_work,
            )
        return _TeradataDefinition(
            workload=self.name,
            priority=self.priority,
            who=tuple(who),
            what=what,
            where_objects=self.objects,
        )


def workload_weight(weights: Dict[str, float], query: Query) -> float:
    """The allocation weight of ``query``'s workload definition, or its
    priority weight where no definition names its workload."""
    if query.workload_name in weights:
        return weights[query.workload_name]
    return priority_weight(query)


@dataclass
class TeradataASMConfig:
    """A complete Teradata ASM setup, compiled by :meth:`build`."""

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_ARRIVAL,
            Feature.ACTS_AT_RUNTIME,
            Feature.MAPS_REQUESTS_TO_WORKLOADS,
            Feature.PREDEFINED_WORKLOAD_RULES,
            Feature.USES_THRESHOLDS,
            Feature.THRESHOLD_ON_SYSTEM_PARAMETER,
            Feature.TERMINATES_RUNNING_REQUEST,
            Feature.REALLOCATES_RESOURCES,
        }
    )

    definitions: Sequence[TeradataWorkloadDefinition] = ()
    object_filters: Sequence[ObjectAccessFilter] = ()
    resource_filters: Sequence[QueryResourceFilter] = ()
    extra_throttles: Sequence[WorkloadThrottle] = ()
    object_throttles: Sequence[ObjectThrottle] = ()
    utility_throttle: Optional[UtilityThrottle] = None
    default_workload: str = "default"
    global_mpl: Optional[int] = None

    def build(self) -> SystemBundle:
        characterizer = StaticCharacterizer(
            [definition.to_definition() for definition in self.definitions],
            default_workload=self.default_workload,
        )
        filters = _FilterAdmission(self.object_filters, self.resource_filters)
        gates = [filters]
        if self.object_throttles:
            gates.append(_ObjectThrottleAdmission(self.object_throttles))
        if self.utility_throttle is not None:
            gates.append(_UtilityThrottleAdmission(self.utility_throttle))
        admission = CompositeAdmission(gates)

        per_workload_mpl: Dict[str, int] = {}
        for definition in self.definitions:
            if definition.throttle is not None:
                per_workload_mpl[definition.name] = definition.throttle
        for throttle in self.extra_throttles:
            per_workload_mpl[throttle.workload] = throttle.limit
        scheduler = MultiQueueScheduler(
            global_mpl=self.global_mpl, per_workload_mpl=per_workload_mpl
        )

        kill_rules: List[KillRule] = []
        demote_thresholds: List[Threshold] = []
        for definition in self.definitions:
            for exception in definition.exceptions:
                if exception.action == "abort":
                    kill_rules.append(
                        KillRule(
                            threshold=Threshold(
                                exception.criterion,
                                exception.limit,
                                ThresholdAction.STOP_EXECUTION,
                            ),
                            max_priority=definition.priority,
                        )
                    )
                else:
                    demote_thresholds.append(
                        Threshold(
                            exception.criterion,
                            exception.limit,
                            ThresholdAction.DEMOTE,
                        )
                    )
        controllers: List = []
        if demote_thresholds:
            controllers.append(
                PriorityAgingController(
                    ladder=ServiceClassLadder(),
                    thresholds=demote_thresholds,
                )
            )
        if kill_rules:
            controllers.append(QueryKillController(rules=kill_rules))

        weights = {
            definition.name: definition.allocation_weight
            for definition in self.definitions
        }

        return SystemBundle(
            characterizer=characterizer,
            admission=admission,
            scheduler=scheduler,
            execution_controllers=controllers,
            weight_fn=partial(workload_weight, weights),
            name="Teradata Active System Management",
        )


# ----------------------------------------------------------------------
# workload analyzer
# ----------------------------------------------------------------------
@dataclass
class WorkloadRecommendation:
    """A candidate workload definition recommended from DBQL analysis."""

    name: str
    application: str
    work_band: str                     # "short" | "medium" | "long"
    record_count: int
    mean_work: float
    suggested_priority: int
    response_time_goal: float

    def to_definition(self) -> TeradataWorkloadDefinition:
        bounds = {
            "short": (None, 1.0),
            "medium": (1.0, 30.0),
            "long": (30.0, None),
        }[self.work_band]
        return TeradataWorkloadDefinition(
            name=self.name,
            application=self.application,
            min_estimated_work=bounds[0],
            max_estimated_work=bounds[1],
            priority=self.suggested_priority,
            response_time_goal=self.response_time_goal,
        )


class TeradataWorkloadAnalyzer:
    """Recommend workload definitions from query-log analysis.

    Groups DBQL records by (application attribute proxy, work band),
    then recommends one candidate per non-trivial group: short work
    gets high suggested priority and tight goals, long work low
    priority and loose goals — matching Teradata WA's dimensioned
    analysis flow.  ``merge``/``split`` provide the documented manual
    refinement steps.
    """

    def __init__(self, min_group_size: int = 10) -> None:
        self.min_group_size = min_group_size

    @staticmethod
    def _band(work: float) -> str:
        if work < 1.0:
            return "short"
        if work < 30.0:
            return "medium"
        return "long"

    @staticmethod
    def _application_of(record: QueryLogRecord) -> str:
        # DBQL rows carry the application; our log keeps it in the tag.
        if record.sql and ":" in record.sql:
            return record.sql.split(":", 1)[0]
        return record.workload or "unknown"

    def analyze(self, log: QueryLog) -> List[WorkloadRecommendation]:
        groups: Dict[Tuple[str, str], List[QueryLogRecord]] = {}
        for record in log:
            key = (
                self._application_of(record),
                self._band(record.estimated_cost.total_work),
            )
            groups.setdefault(key, []).append(record)
        recommendations = []
        for (application, band), records in sorted(groups.items()):
            if len(records) < self.min_group_size:
                continue
            mean_work = sum(
                r.estimated_cost.total_work for r in records
            ) / len(records)
            priority = {"short": 3, "medium": 2, "long": 1}[band]
            goal = {"short": 1.0, "medium": 30.0, "long": 600.0}[band]
            recommendations.append(
                WorkloadRecommendation(
                    name=f"{application}-{band}",
                    application=application,
                    work_band=band,
                    record_count=len(records),
                    mean_work=mean_work,
                    suggested_priority=priority,
                    response_time_goal=goal,
                )
            )
        return recommendations

    @staticmethod
    def merge(
        first: WorkloadRecommendation,
        second: WorkloadRecommendation,
        name: Optional[str] = None,
    ) -> WorkloadRecommendation:
        """Merge two candidates (the WA refinement step)."""
        total = first.record_count + second.record_count
        return WorkloadRecommendation(
            name=name or f"{first.name}+{second.name}",
            application=first.application,
            work_band=first.work_band
            if first.record_count >= second.record_count
            else second.work_band,
            record_count=total,
            mean_work=(
                first.mean_work * first.record_count
                + second.mean_work * second.record_count
            )
            / total,
            suggested_priority=max(
                first.suggested_priority, second.suggested_priority
            ),
            response_time_goal=max(
                first.response_time_goal, second.response_time_goal
            ),
        )

    @staticmethod
    def split(
        candidate: WorkloadRecommendation, work_threshold: float
    ) -> Tuple[WorkloadRecommendation, WorkloadRecommendation]:
        """Split a candidate into below/above a work threshold."""
        below = WorkloadRecommendation(
            name=f"{candidate.name}-small",
            application=candidate.application,
            work_band="short" if work_threshold <= 1.0 else candidate.work_band,
            record_count=candidate.record_count // 2,
            mean_work=min(candidate.mean_work, work_threshold),
            suggested_priority=min(candidate.suggested_priority + 1, 3),
            response_time_goal=candidate.response_time_goal / 2,
        )
        above = WorkloadRecommendation(
            name=f"{candidate.name}-large",
            application=candidate.application,
            work_band="long" if work_threshold >= 30.0 else candidate.work_band,
            record_count=candidate.record_count - below.record_count,
            mean_work=max(candidate.mean_work, work_threshold),
            suggested_priority=max(candidate.suggested_priority - 1, 1),
            response_time_goal=candidate.response_time_goal * 2,
        )
        return below, above
