"""Run one scenario under one policy; summarize it.

A scenario is data; a run is :func:`run_scenario` — the only cluster
runner.  :func:`arm_scenario` assembles the cluster a
:class:`PolicyConfig` describes — node speeds, per-tenant node
schedulers, admission quotas, queue shares — attaches every workload's
arrival stream, arms the chaos timeline and returns the un-run
:class:`ScenarioResult` (live dispatcher plus the tenant conservation
ledger); :meth:`ScenarioResult.run` runs it to the horizon plus a drain
window.  ``run_scenario`` is the two in one call; a caller that needs a
listener or a timed action in place before the first event uses the
seam between them.  :func:`summarize_run` reduces a finished run to the
small picklable dict the parallel sweeps, the report and the benchmarks
consume, including the run's SHA-256 digest (cluster digest + tenant
ledger — the determinism contract for the whole suite).

Conservation ledger: intake is counted on the generator→dispatcher
seam, terminal outcomes on the dispatcher's client-visible completion
funnel.  Crash-killed work is resubmitted internally (never surfaced
as a terminal outcome), so for every tenant::

    intake == completed + rejected + killed + in_flight

holds exactly, churn or no churn — the property the hypothesis tests
pin.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Dict, Optional

from repro.cluster.dispatcher import UNTENANTED, ClusterDispatcher, tenant_key
from repro.cluster.failover import FaultInjector
from repro.cluster.scenario import build_cluster
from repro.core.interfaces import decisions_by
from repro.core.sla import ObjectiveKind, SLASet, response_time_sla
from repro.engine.query import Query, QueryState
from repro.engine.simulator import Simulator
from repro.parallel.digest import dispatcher_digest
from repro.scenarios.spec import PolicyConfig, ScenarioSpec
from repro.scheduling.queues import TenantShareScheduler
from repro.workloads.generator import Scenario


def scenario_slas(spec: ScenarioSpec) -> SLASet:
    """The SLASet over every workload that declares targets."""
    return SLASet(
        [
            response_time_sla(
                pattern.name_for(tenant),
                average=pattern.sla.average,
                p95=pattern.sla.p95,
                importance=pattern.sla.importance,
            )
            for tenant, pattern in spec.patterns()
            if pattern.sla is not None and pattern.sla.has_goals
        ]
    )


@dataclass
class ScenarioResult:
    """One scenario run, armed or finished: live dispatcher + tenant
    ledger (+ the fault injector, when the spec has chaos)."""

    spec: ScenarioSpec
    policy: PolicyConfig
    seed: int
    dispatcher: ClusterDispatcher
    intake: Dict[str, int] = field(default_factory=dict)
    outcomes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    injector: Optional[FaultInjector] = None

    def run(self, drain: Optional[float] = None) -> "ScenarioResult":
        """Run to the horizon, then ``drain`` more seconds (default: the
        horizon again) with arrivals stopped."""
        horizon = self.spec.horizon
        self.dispatcher.run(horizon, drain=horizon if drain is None else drain)
        return self

    def tenant_ledger(self, tenant: str) -> Dict[str, int]:
        """``{intake, completed, rejected, killed, in_flight}`` for one
        tenant; ``in_flight`` is the conservation remainder."""
        terminal = self.outcomes.get(tenant, {})
        intake = self.intake.get(tenant, 0)
        completed = terminal.get("completed", 0)
        rejected = terminal.get("rejected", 0)
        killed = terminal.get("killed", 0)
        return {
            "intake": intake,
            "completed": completed,
            "rejected": rejected,
            "killed": killed,
            "in_flight": intake - completed - rejected - killed,
        }

    def digest(self) -> str:
        """SHA-256 over the cluster digest plus the tenant ledger."""
        h = sha256()
        h.update(dispatcher_digest(self.dispatcher).encode("ascii"))
        for tenant in sorted(set(self.intake) | set(self.outcomes)):
            ledger = self.tenant_ledger(tenant)
            h.update(tenant.encode("utf-8"))
            h.update(
                struct.pack(
                    "<qqqq",
                    ledger["intake"],
                    ledger["completed"],
                    ledger["rejected"],
                    ledger["killed"],
                )
            )
        return h.hexdigest()


def arm_scenario(
    spec: ScenarioSpec,
    policy: PolicyConfig,
    seed: int = 42,
    sim: Optional[Simulator] = None,
) -> ScenarioResult:
    """Build the cluster, attach arrivals, arm faults; run nothing."""
    sim = sim or Simulator(seed=seed)
    shares = spec.shares()
    dispatcher = build_cluster(
        sim,
        nodes=spec.nodes,
        policy=policy.placement,
        mpl=spec.mpl,
        max_queue_depth=spec.max_queue_depth,
        slas=scenario_slas(spec),
        dispatch=policy.dispatch,
        speed_factors=spec.speeds,
        scheduler_factory=(
            (lambda: TenantShareScheduler(spec.mpl, shares))
            if policy.node_shares and shares
            else None
        ),
        tenant_quotas=spec.quotas() if policy.cluster_quotas else None,
        tenant_shares=shares if policy.queue_shares else None,
    )
    result = ScenarioResult(spec=spec, policy=policy, seed=seed, dispatcher=dispatcher)

    def submit(query: Query) -> None:
        tenant = tenant_key(query) or UNTENANTED
        result.intake[tenant] = result.intake.get(tenant, 0) + 1
        dispatcher.submit(query)

    def on_terminal(query: Query) -> None:
        tenant = tenant_key(query) or UNTENANTED
        bucket = result.outcomes.setdefault(
            tenant, {"completed": 0, "rejected": 0, "killed": 0}
        )
        if query.state is QueryState.COMPLETED:
            bucket["completed"] += 1
        elif query.state is QueryState.REJECTED:
            bucket["rejected"] += 1
        else:
            bucket["killed"] += 1

    generator = Scenario(
        specs=tuple(pattern.build(tenant) for tenant, pattern in spec.patterns()),
        horizon=spec.horizon,
    ).build(sim, submit, sessions=dispatcher.sessions)
    dispatcher.add_completion_listener(on_terminal)
    dispatcher.add_completion_listener(generator.notify_done)

    plan = spec.chaos.build_plan(spec.nodes, spec.horizon)
    if plan is not None:
        result.injector = FaultInjector(dispatcher)
        result.injector.arm(plan)
    return result


def run_scenario(
    spec: ScenarioSpec,
    policy: PolicyConfig,
    seed: int = 42,
    drain: Optional[float] = None,
    sim: Optional[Simulator] = None,
) -> ScenarioResult:
    """Run ``spec`` under ``policy``; returns the live result."""
    return arm_scenario(spec, policy, seed=seed, sim=sim).run(drain)


# ----------------------------------------------------------------------
# summarization (the picklable reduction the sweep and report consume)
# ----------------------------------------------------------------------
def _sla_section(result: ScenarioResult, name: str, stats) -> Optional[dict]:
    """The verdict of the SLA the dispatcher holds for ``name``; as in
    :meth:`MetricsCollector.attainment`, no data is not met."""
    sla = result.dispatcher.slas.get(name)
    if sla is None:
        return None
    results = sla.evaluate(stats.measurements(result.dispatcher.sim.now))
    targets = {r.objective.kind: r.objective.target for r in results}
    return {
        "average_target": targets.get(ObjectiveKind.AVERAGE_RESPONSE_TIME),
        "p95_target": targets.get(ObjectiveKind.PERCENTILE_RESPONSE_TIME),
        "importance": sla.importance,
        "met": all(r.satisfied for r in results),
    }


def _workload_section(result: ScenarioResult, name: str) -> Dict[str, object]:
    roll = result.dispatcher.metrics.rollup(name)
    return {
        "completions": roll.completions,
        "node_rejections": roll.rejections,
        "kills": roll.kills,
        "mean": roll.mean_response_time(),
        "p95": roll.percentile_response_time(95.0),
        "sla": _sla_section(result, name, roll),
    }


def _tenant_section(
    result: ScenarioResult,
    name: str,
    workloads: Dict[str, Dict[str, object]],
    noisy: bool = False,
    share: float = 1.0,
    quota: Optional[int] = None,
) -> Dict[str, object]:
    slas = [w["sla"] for w in workloads.values() if w["sla"] is not None]
    quota_rejects = decisions_by(result.dispatcher.metrics.decisions, "TenantQuota", "reject")
    return {
        **result.tenant_ledger(name),
        "noisy": noisy,
        "share": share,
        "quota": quota,
        "quota_rejections": sum(e.workload.split("/", 1)[0] == name for e in quota_rejects),
        "sla_met": sum(1 for sla in slas if sla["met"]),
        "sla_total": len(slas),
        "workloads": workloads,
    }


def summarize_run(result: ScenarioResult) -> Dict[str, object]:
    """Reduce a run to the sweep/report dict (small, picklable).

    ``tenants`` has one section per tenant and, when the spec has
    untenanted workloads, one under ``<untenanted>``.
    ``in_flight`` is measured (queued at the dispatcher plus outstanding
    on the nodes), never derived from the other counters, so callers can
    test conservation with it.
    """
    dispatcher = result.dispatcher
    spec = result.spec
    tenants: Dict[str, dict] = {
        tenant.name: _tenant_section(
            result,
            tenant.name,
            {
                pattern.effective_label: _workload_section(
                    result, pattern.name_for(tenant.name)
                )
                for pattern in tenant.workloads
            },
            noisy=tenant.noisy,
            share=tenant.share,
            quota=tenant.quota,
        )
        for tenant in spec.tenants
    }
    if spec.workloads:
        tenants[UNTENANTED] = _tenant_section(
            result,
            UNTENANTED,
            {
                pattern.effective_label: _workload_section(
                    result, pattern.name_for()
                )
                for pattern in spec.workloads
            },
        )
    return {
        "scenario": spec.name,
        "policy": result.policy.name,
        "seed": result.seed,
        "arrivals": dispatcher.arrivals,
        "completed": dispatcher.completions,
        "rejected": dispatcher.rejections,
        "in_flight": dispatcher.outstanding_work(),
        "resubmitted": dispatcher.resubmissions,
        "sim_time": dispatcher.sim.now,
        "events": dispatcher.sim.events_fired,
        "tenants": tenants,
        "digest": result.digest(),
    }
