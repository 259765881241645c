"""dbwm — Workload Management in DBMSs: an executable taxonomy.

Reproduction of M. Zhang, P. Martin, W. Powley, J. Chen, *"Workload
Management in Database Management Systems: A Taxonomy"* (TKDE
manuscript; extended abstract at ICDE 2018).

The library has two faces:

1. **The taxonomy, executable** — :mod:`repro.core.taxonomy` encodes
   Figure 1; :mod:`repro.core.registry` + :mod:`repro.core.classify`
   regenerate Tables 1–5 by classifying machine-readable descriptions
   of the surveyed systems and techniques.
2. **Every surveyed technique, running** — a discrete-event DBMS
   simulator (:mod:`repro.engine`), workload generators
   (:mod:`repro.workloads`), and implementations of every
   characterization / admission / scheduling / execution-control
   technique the survey catalogues, orchestrated by the
   :class:`~repro.core.manager.WorkloadManager`.

Quick start::

    from repro import Simulator, WorkloadManager, mixed_scenario

    sim = Simulator(seed=42)
    manager = WorkloadManager(sim)
    scenario = mixed_scenario(horizon=120.0)
    generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    manager.run(scenario.horizon, drain=60.0)
    print(manager.metrics.summary_line("oltp", sim.now))
"""

from repro.engine import (
    Simulator,
    Query,
    QueryState,
    CostVector,
    QueryPlan,
    PlanOperator,
    Optimizer,
    OptimizerProfile,
    MachineSpec,
    ExecutionEngine,
    EngineConfig,
)
from repro.core import (
    TAXONOMY,
    TechniqueClass,
    WorkloadManager,
    MetricsCollector,
    ServiceLevelAgreement,
    SLASet,
    PerformanceObjective,
    ObjectiveKind,
    AdmissionPolicy,
    classify_descriptor,
    classify_component,
)
from repro.core.sla import response_time_sla
from repro.workloads import (
    Scenario,
    WorkloadSpec,
    oltp_workload,
    bi_workload,
    report_batch_workload,
    utility_workload,
    mixed_scenario,
    QueryLog,
)
from repro.reporting import (
    render_figure1,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    all_tables,
)

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "Query",
    "QueryState",
    "CostVector",
    "QueryPlan",
    "PlanOperator",
    "Optimizer",
    "OptimizerProfile",
    "MachineSpec",
    "ExecutionEngine",
    "EngineConfig",
    "TAXONOMY",
    "TechniqueClass",
    "WorkloadManager",
    "MetricsCollector",
    "ServiceLevelAgreement",
    "SLASet",
    "PerformanceObjective",
    "ObjectiveKind",
    "AdmissionPolicy",
    "classify_descriptor",
    "classify_component",
    "response_time_sla",
    "Scenario",
    "WorkloadSpec",
    "oltp_workload",
    "bi_workload",
    "report_batch_workload",
    "utility_workload",
    "mixed_scenario",
    "QueryLog",
    "render_figure1",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "all_tables",
    "__version__",
]
