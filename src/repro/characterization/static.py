"""Static workload characterization (paper §3.1, §2.2).

"Static workload characterization defines the workloads before requests
arrive...  The main features of the techniques are the differentiation
of arriving requests based on their operational properties, the mapping
of the requests to a workload, and the resource allocation to the
workloads."

Two commercial styles are implemented:

* :class:`StaticCharacterizer` — ordered :class:`WorkloadDefinition`
  rules combining *origin* predicates ("who": application, user, client
  IP — DB2 connection attributes, Teradata classification criteria) and
  *type* criteria ("what": statement type, estimated cost, estimated
  rows — DB2 work classes, Teradata "what" criteria);
* :class:`ClassifierFunctionCharacterizer` — a user-written scalar
  function evaluated per session/request, SQL Server Resource
  Governor's classification component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.core.classify import Feature
from repro.core.interfaces import Characterizer
from repro.core.manager import WorkloadManager
from repro.engine.query import Query, StatementType
from repro.engine.sessions import Session


@dataclass(frozen=True)
class AttributePredicate:
    """Match on one connection attribute ("who" criteria).

    ``pattern`` supports a trailing ``*`` wildcard, which is how the
    commercial facilities' matching rules are usually written
    ("APP_NAME LIKE 'report%'").
    """

    attribute: str
    pattern: str

    def matches(self, session: Optional[Session]) -> bool:
        """Whether the session's attribute satisfies the predicate."""
        if session is None:
            return False
        value = session.attributes.get(self.attribute)
        if self.pattern.endswith("*"):
            return value.startswith(self.pattern[:-1])
        return value == self.pattern


@dataclass(frozen=True)
class WorkClassCriteria:
    """Match on request type ("what" criteria, DB2 work classes).

    Any criterion left None is a wildcard.  Cost/row bounds compare the
    *estimated* cost, as the predictive work-class elements do ("create
    a work class for all large queries with an estimated cost over
    1,000,000 timerons").
    """

    statement_types: Optional[Tuple[StatementType, ...]] = None
    min_estimated_cost: Optional[float] = None
    max_estimated_cost: Optional[float] = None
    min_estimated_rows: Optional[int] = None
    max_estimated_rows: Optional[int] = None

    def matches(self, query: Query) -> bool:
        """Whether the request's type/estimates satisfy the criteria."""
        if (
            self.statement_types is not None
            and query.statement_type not in self.statement_types
        ):
            return False
        cost = query.estimated_cost.total_work
        if self.min_estimated_cost is not None and cost < self.min_estimated_cost:
            return False
        if self.max_estimated_cost is not None and cost > self.max_estimated_cost:
            return False
        rows = query.estimated_cost.rows
        if self.min_estimated_rows is not None and rows < self.min_estimated_rows:
            return False
        if self.max_estimated_rows is not None and rows > self.max_estimated_rows:
            return False
        return True


@dataclass(frozen=True)
class WorkloadDefinition:
    """One workload-definition rule: who + what → workload."""

    workload: str
    priority: int = 1
    who: Tuple[AttributePredicate, ...] = ()
    what: Optional[WorkClassCriteria] = None
    service_class: Optional[str] = None

    def matches(self, query: Query, session: Optional[Session]) -> bool:
        """Whether both the who and what criteria accept the request."""
        if self.who and not all(p.matches(session) for p in self.who):
            return False
        if self.what is not None and not self.what.matches(query):
            return False
        return True


class StaticCharacterizer(Characterizer):
    """Ordered workload definitions with a default workload.

    First matching definition wins (evaluation order is part of the
    configuration in every commercial facility); unmatched requests fall
    into ``default_workload`` — SQL Server's *default workload group* /
    DB2's default user workload.
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.MAPS_REQUESTS_TO_WORKLOADS,
            Feature.PREDEFINED_WORKLOAD_RULES,
        }
    )

    def __init__(
        self,
        definitions: Sequence[WorkloadDefinition],
        default_workload: str = "default",
        default_priority: int = 1,
    ) -> None:
        self.definitions = list(definitions)
        self.default_workload = default_workload
        self.default_priority = default_priority
        self.matched_counts = {d.workload: 0 for d in self.definitions}
        self.default_count = 0

    def identify(self, query: Query, context: WorkloadManager) -> Optional[str]:
        session = context.sessions.get(query.session_id)
        for definition in self.definitions:
            if definition.matches(query, session):
                query.priority = definition.priority
                if definition.service_class is not None:
                    query.service_class = definition.service_class
                self.matched_counts[definition.workload] += 1
                return definition.workload
        self.default_count += 1
        query.priority = self.default_priority
        return self.default_workload


class ClassifierFunctionCharacterizer(Characterizer):
    """SQL Server-style classification function.

    ``function(query, session)`` returns a workload-group name or None.
    Mirrors Resource Governor semantics: None, an unknown group, or an
    exception classifies the request into the *default* group.
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.MAPS_REQUESTS_TO_WORKLOADS,
            Feature.PREDEFINED_WORKLOAD_RULES,
        }
    )

    def __init__(
        self,
        function: Callable[[Query, Optional[Session]], Optional[str]],
        known_groups: Sequence[str],
        default_group: str = "default",
        priorities: Optional[dict] = None,
    ) -> None:
        self.function = function
        self.known_groups = set(known_groups) | {default_group}
        self.default_group = default_group
        self.priorities = dict(priorities or {})
        self.classification_failures = 0

    def identify(self, query: Query, context: WorkloadManager) -> Optional[str]:
        session = context.sessions.get(query.session_id)
        try:
            group = self.function(query, session)
        except Exception:
            # "a failure with the classification" -> default group
            self.classification_failures += 1
            group = None
        if group is None or group not in self.known_groups:
            if group is not None:
                self.classification_failures += 1
            group = self.default_group
        if group in self.priorities:
            query.priority = self.priorities[group]
        return group
