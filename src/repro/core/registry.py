"""Structured registry of the surveyed approaches and systems.

Each row of the paper's Tables 2–5 becomes an
:class:`ApproachDescriptor`: what the paper says about the approach
(name, citations, mechanism description, threshold basis, objective)
and the class in this library that implements it (``implementation``,
``"module:Class"``).  What the approach *does* — its :class:`Feature`
set — is declared once, as that class's ``TECHNIQUE_FEATURES``, and a
row reads it from there.  Classification into the taxonomy is **not**
stored here either — :mod:`repro.core.classify` derives it from the
features, so the reproduced tables are outputs of the classification
engine rather than transcriptions.

A row resolves its class on the first read of ``features``: importing
this module imports no technique module (they import :class:`Feature`
from here).
"""

from __future__ import annotations

import enum
import importlib
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.policy import ControlType


class Feature(enum.Enum):
    """Mechanism features used to classify techniques (paper §3).

    The classification rules in :mod:`repro.core.classify` map feature
    combinations to taxonomy classes.
    """

    # control points
    ACTS_AT_ARRIVAL = "acts at arrival"
    ACTS_BEFORE_EXECUTION = "acts before execution"
    ACTS_AT_RUNTIME = "acts at runtime"
    # characterization
    MAPS_REQUESTS_TO_WORKLOADS = "maps requests to workloads"
    PREDEFINED_WORKLOAD_RULES = "workloads defined before arrival"
    LEARNS_FROM_SAMPLES = "learns from sample workloads"
    # admission mechanisms
    USES_THRESHOLDS = "compares against thresholds"
    THRESHOLD_ON_SYSTEM_PARAMETER = "thresholds on system parameters"
    THRESHOLD_ON_PERFORMANCE_METRIC = "thresholds on performance metrics"
    THRESHOLD_ON_MONITOR_METRICS = "thresholds on monitor metrics"
    PREDICTS_PERFORMANCE = "predicts per-query performance pre-execution"
    # scheduling mechanisms
    DETERMINES_EXECUTION_ORDER = "determines execution order"
    MANAGES_WAIT_QUEUES = "manages wait queues"
    DECOMPOSES_QUERIES = "decomposes queries into smaller pieces"
    PREDICTS_MPL = "predicts multiprogramming levels"
    # execution-control mechanisms
    CHANGES_RUNNING_PRIORITY = "changes priority of a running request"
    REALLOCATES_RESOURCES = "reallocates resources among running work"
    TERMINATES_RUNNING_REQUEST = "terminates a running request"
    RESUBMITS_AFTER_KILL = "resubmits after kill"
    PAUSES_RUNNING_REQUEST = "pauses a running request"
    CHECKPOINTS_STATE = "checkpoints intermediate state for later resume"
    USES_FEEDBACK_CONTROLLER = "uses a feedback controller"
    USES_UTILITY_FUNCTIONS = "uses utility functions"
    USES_ECONOMIC_MODELS = "uses economic models"
    TRACKS_QUERY_PROGRESS = "tracks query progress"


@dataclass(frozen=True)
class ApproachDescriptor:
    """A surveyed approach/system in machine-readable form."""

    name: str
    citation: str                       # reference keys as in the paper
    mechanism: str                      # Table "description" column text
    implementation: str                 # "module:Class" implementing it
    threshold_basis: str = ""           # Table 2 "type" column
    objective: str = ""                 # Table 5 "objectives" column
    kind: str = "technique"             # technique | system

    @property
    def implementation_class(self) -> type:
        """The class ``implementation`` names, imported on first use."""
        module, _, name = self.implementation.partition(":")
        return getattr(importlib.import_module(module), name)

    @property
    def features(self) -> frozenset:
        """The implementing class's ``TECHNIQUE_FEATURES``."""
        return self.implementation_class.TECHNIQUE_FEATURES


# ----------------------------------------------------------------------
# Table 1 — the three control types
# ----------------------------------------------------------------------
CONTROL_TYPES: Tuple[ControlType, ...] = (
    ControlType.ADMISSION_CONTROL,
    ControlType.SCHEDULING,
    ControlType.EXECUTION_CONTROL,
)


# ----------------------------------------------------------------------
# Table 2 — approaches used for workload admission control
# ----------------------------------------------------------------------
ADMISSION_APPROACHES: Tuple[ApproachDescriptor, ...] = (
    ApproachDescriptor(
        "Query Cost",
        "[9] [50] [72]",
        "If an arriving query's estimated cost is greater than the "
        "threshold, the query's admission is denied, otherwise, accepted.",
        threshold_basis="System Parameter",
        implementation="repro.admission.threshold:ThresholdAdmission",
    ),
    ApproachDescriptor(
        "MPLs",
        "[9] [50] [72]",
        "If the number of concurrently running requests in a database "
        "system has reached the threshold, an arriving request's "
        "admission is denied, otherwise, accepted.",
        threshold_basis="System Parameter",
        implementation="repro.admission.threshold:ThresholdAdmission",
    ),
    ApproachDescriptor(
        "Conflict Ratio",
        "[56]",
        "If the conflict ratio of transactions in a database system "
        "exceeds the threshold, new transactions are suspended, "
        "otherwise, admitted.",
        threshold_basis="Performance Metric",
        implementation="repro.admission.conflict_ratio:ConflictRatioAdmission",
    ),
    ApproachDescriptor(
        "Transaction Throughput",
        "[26]",
        "If the system throughput in the last measurement interval has "
        "increased, more transactions are admitted, otherwise fewer "
        "transactions are admitted.",
        threshold_basis="Performance Metric",
        implementation="repro.admission.throughput_feedback:ThroughputFeedbackAdmission",
    ),
    ApproachDescriptor(
        "Indicators",
        "[79] [80]",
        "If the actual values exceed the pre-defined thresholds, low "
        "priority requests are delayed, otherwise they are admitted.",
        threshold_basis="Monitor Metrics",
        implementation="repro.admission.indicators:IndicatorAdmission",
    ),
)

#: Prediction-based admission (discussed in §3.2 though not a Table 2 row).
PREDICTION_ADMISSION: ApproachDescriptor = ApproachDescriptor(
    "Prediction-based Admission",
    "[21] [23] [42]",
    "Predict the performance behaviour characteristics of a query "
    "before the query begins running, with machine-learned models over "
    "pre-execution properties.",
    implementation="repro.admission.prediction:PredictionBasedAdmission",
)


# ----------------------------------------------------------------------
# Table 3 — approaches used for workload execution control
# ----------------------------------------------------------------------
EXECUTION_APPROACHES: Tuple[ApproachDescriptor, ...] = (
    ApproachDescriptor(
        "Priority Aging",
        "[9]",
        "Dynamically changes the priority of system resource access for "
        "a request as it runs.",
        threshold_basis="Reprioritization",
        implementation="repro.execution.reprioritization:PriorityAgingController",
    ),
    ApproachDescriptor(
        "Policy Driven Resource Allocation",
        "[4] [78]",
        "Amounts of shared system resources are dynamically allocated "
        "to concurrent workloads according to the levels of the "
        "workload's business importance.",
        threshold_basis="Reprioritization",
        implementation="repro.execution.economic:EconomicResourceAllocator",
    ),
    ApproachDescriptor(
        "Query Kill",
        "[30] [50] [61] [72]",
        "Kills the process of a request as it runs.",
        threshold_basis="Cancellation",
        implementation="repro.execution.cancellation:QueryKillController",
    ),
    ApproachDescriptor(
        "Query Stop-and-Restart",
        "[10] [12]",
        "Terminates a query when it is running, stores the necessary "
        "intermediate results and restarts the query's execution at a "
        "later time.",
        threshold_basis="Suspend & Resume",
        implementation="repro.execution.suspend_resume:SuspendResumeController",
    ),
    ApproachDescriptor(
        "Request Throttling",
        "[64] [65] [66]",
        "Pauses the process of a request as it runs.",
        threshold_basis="Throttling",
        implementation="repro.execution.throttling:QueryThrottlingController",
    ),
)


# ----------------------------------------------------------------------
# Table 5 — research techniques (classified in §4.2.5)
# ----------------------------------------------------------------------
RESEARCH_TECHNIQUES: Tuple[ApproachDescriptor, ...] = (
    ApproachDescriptor(
        "Niu et al.",
        "[60]",
        "Intercepting arriving queries, acquiring their information, and "
        "determining an execution order",
        objective="Achieving a set of service level objectives for "
        "multiple concurrent workloads",
        implementation="repro.scheduling.utility:UtilityScheduler",
    ),
    ApproachDescriptor(
        "Parekh et al.",
        "[64]",
        "A self-imposed sleep slows down online utilities; a "
        "Proportional Integral controller determines the amount of "
        "throttling",
        objective="Maintaining performance of running workloads at an "
        "acceptable level",
        implementation="repro.execution.throttling:UtilityThrottlingController",
    ),
    ApproachDescriptor(
        "Powley et al.",
        "[65] [66]",
        "A self-imposed sleep slows down large queries; a step function "
        "and a black-box model determine the amount of throttling",
        objective="Meeting the service level objectives of high-priority "
        "requests",
        implementation="repro.execution.throttling:QueryThrottlingController",
    ),
    ApproachDescriptor(
        "Chandramouli et al.",
        "[10]",
        "Query execution is augmented with suspend and resume phases "
        "that are triggered on demand",
        objective="Achieving high performance for high-priority requests",
        implementation="repro.execution.suspend_resume:SuspendResumeController",
    ),
    ApproachDescriptor(
        "Krompass et al.",
        "[39]",
        "Cancelling or reprioritizing low-priority and long-running "
        "queries",
        objective="Achieving high performance for high-priority requests",
        implementation="repro.execution.krompass:FuzzyExecutionController",
    ),
)


# ----------------------------------------------------------------------
# Table 4 — commercial workload-management systems
# ----------------------------------------------------------------------
COMMERCIAL_SYSTEMS: Tuple[ApproachDescriptor, ...] = (
    ApproachDescriptor(
        "IBM DB2 Workload Manager",
        "[30]",
        "Workloads/work classes identify incoming work by source and "
        "type; service classes allocate resources; thresholds detect "
        "exceptions and trigger actions (reject, stop, priority aging).",
        kind="system",
        implementation="repro.systems.db2:DB2WorkloadManagerConfig",
    ),
    ApproachDescriptor(
        "Microsoft SQL Server Resource/Query Governor",
        "[50] [51]",
        "Classification functions map sessions to workload groups backed "
        "by resource pools (MIN/MAX); the query governor rejects queries "
        "whose estimated execution time exceeds the cost limit.",
        kind="system",
        implementation="repro.systems.sqlserver:ResourceGovernorConfig",
    ),
    ApproachDescriptor(
        "Teradata Active System Management",
        "[71] [72]",
        "The workload analyzer recommends workload definitions; filters "
        "reject unwanted requests, throttles limit concurrency, and the "
        "regulator monitors exceptions and applies actions (abort).",
        kind="system",
        implementation="repro.systems.teradata:TeradataASMConfig",
    ),
)


def all_descriptors() -> List[ApproachDescriptor]:
    """Every registered descriptor (used by inventory tests)."""
    return (
        list(ADMISSION_APPROACHES)
        + [PREDICTION_ADMISSION]
        + list(EXECUTION_APPROACHES)
        + list(RESEARCH_TECHNIQUES)
        + list(COMMERCIAL_SYSTEMS)
    )
