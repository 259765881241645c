"""Declarative multi-tenant chaos scenarios and the survival report.

``repro.scenarios`` composes everything the taxonomy pipeline already
has — arrival processes, workload specs, SLAs, node-tier scheduling,
cluster-tier dispatch and its deterministic faults — into
*named, declarative scenarios*: several tenants, each with its own
arrival pattern (diurnal curve, flash crowd, noisy-neighbor flood,
batch report window, maintenance storm), class mix, SLA and priority,
plus an optional chaos timeline of node crash/degrade waves.

Each scenario runs under an *isolation policy* deciding which of the
multi-tenant controls are armed:

* node tier — per-tenant MPL reservations
  (:class:`~repro.scheduling.queues.TenantShareScheduler`);
* cluster tier — per-tenant admission quotas
  (:class:`~repro.cluster.dispatcher.ClusterDispatcher`) and, under
  pull dispatch, per-tenant task-queue dispatch shares.

The committed scenario × policy matrix (:mod:`repro.scenarios.matrix`)
sweeps over :mod:`repro.parallel` with digest-stable results and feeds
the survival-matrix report (:mod:`repro.scenarios.report`): per
scenario × policy, SLA verdicts per tenant, p95 per class, rejections,
and isolation leakage — the slowdown a well-behaved tenant suffers
from its noisy neighbor, measured against a companion run with the
noisy tenants removed.
"""

from repro.scenarios.spec import (
    ArrivalSpec,
    ChaosSpec,
    PolicyConfig,
    ScenarioSpec,
    SLASpec,
    TenantSpec,
    WorkloadPattern,
    load_scenario_file,
)
from repro.scenarios.runner import (
    ScenarioResult,
    arm_scenario,
    run_scenario,
    summarize_run,
)
from repro.scenarios.matrix import (
    MATRIX_POLICIES,
    MATRIX_SCENARIOS,
    get_policy,
    get_scenario,
    policy_names,
    scenario_names,
)
from repro.scenarios.sweep import run_scenario_matrix, scenario_matrix_tasks, scenario_task
from repro.scenarios.report import render_survival_report

__all__ = [
    "ArrivalSpec",
    "ChaosSpec",
    "MATRIX_POLICIES",
    "MATRIX_SCENARIOS",
    "PolicyConfig",
    "SLASpec",
    "ScenarioResult",
    "ScenarioSpec",
    "TenantSpec",
    "WorkloadPattern",
    "arm_scenario",
    "get_policy",
    "get_scenario",
    "load_scenario_file",
    "policy_names",
    "render_survival_report",
    "run_scenario",
    "run_scenario_matrix",
    "scenario_matrix_tasks",
    "scenario_task",
    "scenario_names",
    "summarize_run",
]
