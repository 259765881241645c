"""Core of the reproduction: the taxonomy made executable, plus the
workload-management framework that hosts every surveyed technique.

* :mod:`repro.core.taxonomy` — Figure 1 as a data structure;
* :mod:`repro.core.registry` / :mod:`repro.core.classify` — the surveyed
  approaches and systems as feature descriptors, and the rule engine
  that assigns them to taxonomy classes (regenerating Tables 2–5);
* :mod:`repro.core.sla` — performance objectives (§2.1);
* :mod:`repro.core.policy` — management policies and control types (Table 1);
* :mod:`repro.core.metrics` — response time / throughput / velocity;
* :mod:`repro.core.interfaces` — controller plug-in points;
* :mod:`repro.core.manager` — the WorkloadManager pipeline
  (identify → control → execute, with monitoring).
"""

from repro.core.taxonomy import (
    TaxonomyNode,
    TechniqueClass,
    build_taxonomy,
    TAXONOMY,
)
from repro.core.sla import (
    ObjectiveKind,
    PerformanceObjective,
    ServiceLevelAgreement,
    SLASet,
    ObjectiveResult,
)
from repro.core.policy import (
    ControlType,
    Threshold,
    ThresholdKind,
    ThresholdAction,
    AdmissionPolicy,
)
from repro.core.metrics import MetricsCollector, WorkloadStats, SystemSample
from repro.core.interfaces import (
    AdmissionController,
    AdmissionDecision,
    AdmissionOutcome,
    ControlEvent,
    decisions_by,
    Scheduler,
    ExecutionController,
    Characterizer,
)
from repro.core.manager import WorkloadManager
from repro.core.registry import (
    ApproachDescriptor,
    Feature,
    ADMISSION_APPROACHES,
    EXECUTION_APPROACHES,
    RESEARCH_TECHNIQUES,
    COMMERCIAL_SYSTEMS,
    CONTROL_TYPES,
)
from repro.core.classify import classify_descriptor, classify_component

__all__ = [
    "TaxonomyNode",
    "TechniqueClass",
    "build_taxonomy",
    "TAXONOMY",
    "ObjectiveKind",
    "PerformanceObjective",
    "ServiceLevelAgreement",
    "SLASet",
    "ObjectiveResult",
    "ControlType",
    "Threshold",
    "ThresholdKind",
    "ThresholdAction",
    "AdmissionPolicy",
    "MetricsCollector",
    "WorkloadStats",
    "SystemSample",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionOutcome",
    "ControlEvent",
    "decisions_by",
    "Scheduler",
    "ExecutionController",
    "Characterizer",
    "WorkloadManager",
    "ApproachDescriptor",
    "Feature",
    "ADMISSION_APPROACHES",
    "EXECUTION_APPROACHES",
    "RESEARCH_TECHNIQUES",
    "COMMERCIAL_SYSTEMS",
    "CONTROL_TYPES",
    "classify_descriptor",
    "classify_component",
]
