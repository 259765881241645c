"""Workload-management policies and the three control types (Table 1).

"Policies are the plans of an organization to achieve its objectives"
(§2.1): admission policies say how a request is controlled at arrival,
scheduling policies guide ordering/dispatch, and execution-control
policies define dynamic run-time actions.  This module provides the
admission policy object (scheduling and execution control are
configured on their components), the threshold/action vocabulary the
commercial systems share (DB2 thresholds, Teradata exception criteria, SQL Server query
governor), and the :class:`ControlType` descriptors that regenerate
Table 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError, PolicyError


class ControlType(enum.Enum):
    """The three types of controls in a workload-management process."""

    ADMISSION_CONTROL = "Admission Control"
    SCHEDULING = "Scheduling"
    EXECUTION_CONTROL = "Execution Control"

    @property
    def description(self) -> str:
        return _CONTROL_DESCRIPTIONS[self][0]

    @property
    def control_point(self) -> str:
        return _CONTROL_DESCRIPTIONS[self][1]

    @property
    def associated_policy(self) -> str:
        return _CONTROL_DESCRIPTIONS[self][2]


_CONTROL_DESCRIPTIONS: Dict[ControlType, Tuple[str, str, str]] = {
    ControlType.ADMISSION_CONTROL: (
        "Determines whether or not an arriving request can be admitted "
        "into a database system",
        "Upon arrival in the database system",
        "Admission control policies derived from a workload management policy",
    ),
    ControlType.SCHEDULING: (
        "Determines the execution order of requests in batch workloads "
        "or in wait queues",
        "Prior to sending requests to the database execution engine",
        "Scheduling policies derived from a workload management policy",
    ),
    ControlType.EXECUTION_CONTROL: (
        "Manages the execution of running requests to reduce their "
        "performance impact on the other requests running concurrently",
        "During execution of the requests",
        "Execution control policies derived from a workload management policy",
    ),
}


# ----------------------------------------------------------------------
# thresholds and actions (the shared vocabulary of §2.3/§4.1)
# ----------------------------------------------------------------------
class ThresholdKind(enum.Enum):
    """What a threshold is measured against."""

    ESTIMATED_COST = "estimated_cost"          # optimizer total work (s)
    ESTIMATED_ROWS = "estimated_rows"          # optimizer cardinality
    ELAPSED_TIME = "elapsed_time"              # run time so far (s)
    ROWS_RETURNED = "rows_returned"            # actual rows produced
    CPU_TIME = "cpu_time"                      # CPU service consumed (s)
    CONCURRENCY = "concurrency"                # running requests (MPL)
    QUEUE_LENGTH = "queue_length"
    MEMORY_MB = "memory_mb"


class ThresholdAction(enum.Enum):
    """What to do when a threshold is violated (DB2's action list + the
    taxonomy's execution-control repertoire)."""

    REJECT = "reject"
    QUEUE = "queue"
    CONTINUE = "continue"              # collect data, let it run
    STOP_EXECUTION = "stop_execution"  # kill
    KILL_AND_RESUBMIT = "kill_and_resubmit"
    DEMOTE = "demote"                  # priority aging: lower service class
    THROTTLE = "throttle"
    SUSPEND = "suspend"


@dataclass(frozen=True)
class Threshold:
    """An upper limit on some quantity, with an action on violation."""

    kind: ThresholdKind
    limit: float
    action: ThresholdAction
    label: str = ""

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise PolicyError(f"threshold limit must be >= 0, got {self.limit}")

    def violated_by(self, value: Optional[float]) -> bool:
        """True when ``value`` exceeds the limit (None never violates)."""
        if value is None:
            return False
        return value > self.limit

    def describe(self) -> str:
        name = self.label or self.kind.value
        return f"{name} > {self.limit:g} -> {self.action.value}"


_RUNTIME_OBSERVERS: Dict[ThresholdKind, Callable] = {
    ThresholdKind.ELAPSED_TIME: lambda query, context: (
        None if query.start_time is None else context.now - query.start_time
    ),
    ThresholdKind.ROWS_RETURNED: lambda query, context: (
        context.engine.progress_of(query.query_id) * query.true_cost.rows
    ),
    ThresholdKind.CPU_TIME: lambda query, context: (
        context.engine.progress_of(query.query_id) * query.true_cost.cpu_seconds
    ),
    ThresholdKind.MEMORY_MB: lambda query, context: query.true_cost.memory_mb,
}


def runtime_observer(kind: ThresholdKind) -> Callable:
    """How every execution controller measures ``kind`` on a *running*
    request: ``(query, context) -> value``, None while not measurable.
    The other kinds are judged at arrival (admission control): a rule on
    one is a :class:`ConfigurationError` when built, not a rule that never fires."""
    observer = _RUNTIME_OBSERVERS.get(kind)
    if observer is None:
        raise ConfigurationError(
            f"threshold kind {kind.value!r} cannot be observed on a running request"
        )
    return observer


# ----------------------------------------------------------------------
# policy bundles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionPolicy:
    """Admission thresholds for one workload (or the whole server).

    ``reject_over_cost`` is the estimated-cost limit;
    ``max_concurrency`` is the MPL; ``queue_when_full`` selects
    queueing (True) vs. rejection (False) at the MPL limit; the optional
    ``period_overrides`` map (start, end) time-of-day windows (in
    simulated seconds within a day) to alternate cost limits, per §3.2's
    "different thresholds for various operating periods".
    """

    reject_over_cost: Optional[float] = None
    max_concurrency: Optional[int] = None
    queue_when_full: bool = True
    period_overrides: Tuple[Tuple[float, float, float], ...] = ()
    day_length: float = 86_400.0

    def cost_limit_at(self, time: float) -> Optional[float]:
        """The effective rejection cost limit at simulated ``time``."""
        limit = self.reject_over_cost
        if self.period_overrides:
            time_of_day = time % self.day_length
            for start, end, override in self.period_overrides:
                if start <= time_of_day < end:
                    limit = override
        return limit

    def violation(
        self, estimated: float, running: int, time: float = 0.0
    ) -> Optional[Tuple[ThresholdKind, ThresholdAction, str]]:
        """The first threshold a request breaks, or None to admit it.

        ``estimated`` is the optimizer's total work, ``running`` what the
        MPL counts and ``time`` the schedule instant the cost limit is
        read at.  A break is ``(kind, action, reason)``: the cost limit
        rejects, and the MPL queues or rejects as ``queue_when_full``
        says.
        """
        cost_limit = self.cost_limit_at(time)
        if cost_limit is not None and estimated > cost_limit:
            return (
                ThresholdKind.ESTIMATED_COST,
                ThresholdAction.REJECT,
                f"estimated cost {estimated:.1f}s exceeds limit {cost_limit:.1f}s",
            )
        if self.max_concurrency is not None and running >= self.max_concurrency:
            return (
                ThresholdKind.CONCURRENCY,
                ThresholdAction.QUEUE if self.queue_when_full else ThresholdAction.REJECT,
                f"MPL {self.max_concurrency} reached ({running} running)",
            )
        return None

