"""Cluster scenario builders: one arrival stream, N nodes.

:func:`build_cluster` assembles a homogeneous cluster on a shared
simulator; :func:`cluster_overload_scenario` is the EXP18 workload — an
OLTP stream whose rate saturates any single node plus heavy BI queries
that pile onto whichever node takes them; :func:`run_cluster_scenario`
wires the two together (generator → dispatcher → nodes), optionally
arms a fault plan, runs to the horizon and returns the dispatcher for
inspection.  The CLI ``cluster`` subcommand and the perf harness both
drive this module, so the demo, the bench and the tests share one
deterministic code path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.dispatcher import (
    ClusterDispatcher,
    TenantFn,
    make_binding,
    tenant_key,
)
from repro.cluster.failover import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from repro.cluster.node import NODE_MACHINE, ClusterNode, NodeHealth
from repro.cluster.placement import make_policy
from repro.core.sla import SLASet, response_time_sla
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.workloads.models import OpenArrivals
from repro.workloads.generator import (
    Scenario,
    WorkloadGenerator,
    bi_workload,
    oltp_workload,
)

#: The cluster SLA used by the demo, EXP18 and the SLA-aware placer.
CLUSTER_SLAS = SLASet(
    [
        response_time_sla("oltp", average=0.5, p95=2.0, importance=3),
        response_time_sla("bi", average=120.0, importance=1),
    ]
)


def build_cluster(
    sim: Simulator,
    nodes: int = 4,
    policy: str = "cost",
    machine: Optional[MachineSpec] = None,
    mpl: int = 12,
    max_outstanding: Optional[int] = None,
    max_queue_depth: Optional[int] = None,
    standby: int = 0,
    slas: Optional[SLASet] = None,
    control_period: float = 1.0,
    heartbeat_period: float = 1.0,
    dispatch: str = "push",
    speed_factors: Optional[Sequence[float]] = None,
    scheduler_factory: Optional[Callable[[], object]] = None,
    tenant_quotas: Optional[Dict[str, int]] = None,
    tenant_shares: Optional[Dict[str, float]] = None,
    tenant_of: Optional[TenantFn] = None,
) -> ClusterDispatcher:
    """A cluster of ``nodes`` active + ``standby`` spares.

    ``speed_factors`` makes the cluster heterogeneous: node ``i`` runs
    at ``speed_factors[i % len(speed_factors)]`` of full speed (the
    deterministic speed assignment the matcher benchmarks use).
    ``dispatch`` selects the binding policy — ``"push"`` places on
    arrival through ``policy``, ``"pull"`` late-binds through the task
    queue + matcher.

    The multi-tenant knobs (scenario suite):

    * ``scheduler_factory`` — zero-argument factory called once per
      node to build its wait-queue scheduler (e.g. a
      :class:`~repro.scheduling.queues.TenantShareScheduler` holding
      per-tenant MPL reservations); ``None`` keeps each node's default;
    * ``tenant_quotas`` — cluster-tier per-tenant admission quotas,
      forwarded to the dispatcher;
    * ``tenant_shares`` — per-tenant dispatch shares for *pull* mode:
      the task queue buckets by tenant instead of workload class and
      splits dispatch slots by these weights (ignored under push).
    """
    slas = CLUSTER_SLAS if slas is None else slas
    cluster_nodes = [
        ClusterNode(
            sim,
            name=f"n{index}",
            machine=machine or NODE_MACHINE,
            mpl=mpl,
            max_outstanding=max_outstanding,
            scheduler=scheduler_factory() if scheduler_factory else None,
            control_period=control_period,
            heartbeat_period=heartbeat_period,
            health=NodeHealth.UP if index < nodes else NodeHealth.STANDBY,
            speed_factor=(
                speed_factors[index % len(speed_factors)]
                if speed_factors
                else 1.0
            ),
        )
        for index in range(nodes + standby)
    ]
    binding = None
    if tenant_shares and dispatch == "pull":
        binding = make_binding(
            "pull",
            class_shares=tenant_shares,
            key_fn=lambda query: tenant_key(query) or "<untenanted>",
        )
    return ClusterDispatcher(
        sim,
        cluster_nodes,
        placement=make_policy(policy, slas=slas),
        slas=slas,
        max_queue_depth=max_queue_depth,
        control_period=control_period,
        dispatch=dispatch,
        binding=binding,
        tenant_quotas=tenant_quotas,
        tenant_of=tenant_of,
    )


def cluster_overload_scenario(
    horizon: float = 120.0,
    oltp_rate: float = 30.0,
    bi_rate: float = 0.3,
) -> Scenario:
    """The EXP18 mix: a fast OLTP stream plus occasional BI monsters.

    The BI stream (~0.3/s of multi-second scans) amounts to roughly one
    :data:`NODE_MACHINE` node's worth of sustained work — enough to
    saturate one node but leave a 4-node cluster with ample headroom.
    Run it at a tight per-node MPL (EXP18 uses 2) and placement decides
    everything: blind round-robin keeps landing OLTP behind BI monsters
    that hold the dispatch slots for seconds, while load-aware policies
    steer the cheap stream to whichever nodes are clear.
    """
    return Scenario(
        specs=(
            oltp_workload(rate=oltp_rate, priority=3),
            bi_workload(
                rate=bi_rate,
                priority=1,
                median_cpu=6.0,
                median_io=10.0,
                sigma=0.8,
                memory_low=150.0,
                memory_high=600.0,
            ),
        ),
        horizon=horizon,
    )


def run_cluster_scenario(
    seed: int = 42,
    nodes: int = 4,
    policy: str = "cost",
    horizon: float = 120.0,
    drain: Optional[float] = None,
    oltp_rate: float = 30.0,
    bi_rate: float = 0.3,
    mpl: int = 2,
    max_queue_depth: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    sim: Optional[Simulator] = None,
    dispatch: str = "push",
) -> ClusterDispatcher:
    """Run the canonical cluster demo end to end; returns the dispatcher.

    The returned dispatcher carries a ``generator`` attribute (arrival
    stream) and, when a fault plan was armed, an ``injector`` attribute.
    """
    sim = sim or Simulator(seed=seed)
    dispatcher = build_cluster(
        sim,
        nodes=nodes,
        policy=policy,
        mpl=mpl,
        max_queue_depth=max_queue_depth,
        dispatch=dispatch,
    )
    scenario = cluster_overload_scenario(
        horizon=horizon, oltp_rate=oltp_rate, bi_rate=bi_rate
    )
    generator: WorkloadGenerator = scenario.build(
        sim, dispatcher.submit, sessions=dispatcher.sessions
    )
    dispatcher.add_completion_listener(generator.notify_done)
    dispatcher.generator = generator
    if fault_plan is not None:
        injector = FaultInjector(dispatcher)
        injector.arm(fault_plan)
        dispatcher.injector = injector
    dispatcher.run(horizon, drain=horizon if drain is None else drain)
    return dispatcher


# ----------------------------------------------------------------------
# the matcher scenario: push vs pull at 64-256 nodes under stress
# ----------------------------------------------------------------------

#: Deterministic heterogeneous speed assignment: every fourth node is
#: markedly slow, another quarter mildly slow — the mix where early
#: binding hurts (work committed to a slow node waits out its backlog)
#: and late binding shines (slow nodes simply pull less often).
HETEROGENEOUS_SPEEDS = (1.0, 1.0, 0.7, 0.4)


def churn_plan(
    nodes: int,
    horizon: float,
    waves: int = 3,
    kill_fraction: float = 0.125,
    outage: float = 0.15,
) -> FaultPlan:
    """Deterministic crash/recover waves over an ``nodes``-wide cluster.

    ``waves`` evenly spaced crash waves each take out a rotating
    ``kill_fraction`` slice of the cluster for ``outage`` of the
    horizon, then revive it — a pure function of (nodes, horizon,
    waves), so churn runs are as digest-stable as clean ones.
    """
    events = []
    kill_count = max(1, int(nodes * kill_fraction))
    for wave in range(waves):
        at = horizon * (wave + 1) / (waves + 1)
        recover_at = min(horizon * 0.98, at + outage * horizon)
        for slot in range(kill_count):
            victim = (wave * kill_count + slot) % nodes
            events.append(FaultEvent(at, f"n{victim}", FaultKind.CRASH))
            events.append(FaultEvent(recover_at, f"n{victim}", FaultKind.RECOVER))
    return FaultPlan(tuple(events))


def matcher_scenario(
    horizon: float = 120.0,
    nodes: int = 64,
    oltp_rate_per_node: float = 6.0,
    bi_rate: float = 1.0,
    flash_start: float = 0.35,
    flash_end: float = 0.5,
    flash_multiplier: float = 4.0,
) -> Scenario:
    """The push-vs-pull stress mix: steady load plus a flash crowd.

    A per-node-scaled OLTP stream runs at ``oltp_rate_per_node x
    nodes``; between ``flash_start`` and ``flash_end`` (fractions of
    the horizon) the rate jumps by ``flash_multiplier`` — the arrival
    burst that floods whatever queue structure the binding policy
    keeps.  A BI stream of multi-second scans rides along so per-class
    shares and slow-node binding both matter.
    """
    base_rate = oltp_rate_per_node * nodes
    oltp = oltp_workload(rate=base_rate, priority=3)
    oltp = replace(
        oltp,
        arrivals=OpenArrivals(
            rate=base_rate,
            phases=(
                (flash_start * horizon, base_rate * flash_multiplier),
                (flash_end * horizon, base_rate),
            ),
        ),
    )
    return Scenario(
        specs=(
            oltp,
            bi_workload(
                rate=bi_rate,
                priority=1,
                median_cpu=4.0,
                median_io=7.0,
                sigma=0.8,
                memory_low=150.0,
                memory_high=500.0,
            ),
        ),
        horizon=horizon,
    )


def run_matcher_scenario(
    seed: int = 42,
    nodes: int = 64,
    dispatch: str = "pull",
    policy: str = "cost",
    horizon: float = 120.0,
    drain: Optional[float] = None,
    mpl: int = 2,
    oltp_rate_per_node: float = 6.0,
    bi_rate: float = 1.0,
    churn: bool = True,
    heterogeneous: bool = True,
    max_queue_depth: Optional[int] = None,
) -> ClusterDispatcher:
    """Run the 64-256 node matcher stress scenario; returns the dispatcher.

    One code path drives both binding policies (``dispatch="push"`` or
    ``"pull"``) over the same arrival stream, node speeds and churn
    plan, so push-vs-pull comparisons differ *only* in when work binds
    to capacity.  Used by the bench gate's ``matcher_*`` rows, the
    ``--dispatch`` CLI knob and the conservation property tests.
    """
    sim = Simulator(seed=seed)
    dispatcher = build_cluster(
        sim,
        nodes=nodes,
        policy=policy,
        mpl=mpl,
        max_queue_depth=max_queue_depth,
        dispatch=dispatch,
        speed_factors=HETEROGENEOUS_SPEEDS if heterogeneous else None,
    )
    scenario = matcher_scenario(
        horizon=horizon,
        nodes=nodes,
        oltp_rate_per_node=oltp_rate_per_node,
        bi_rate=bi_rate,
    )
    generator: WorkloadGenerator = scenario.build(
        sim, dispatcher.submit, sessions=dispatcher.sessions
    )
    dispatcher.add_completion_listener(generator.notify_done)
    dispatcher.generator = generator
    if churn:
        injector = FaultInjector(dispatcher)
        injector.arm(churn_plan(nodes, horizon))
        dispatcher.injector = injector
    dispatcher.run(horizon, drain=2.0 * horizon if drain is None else drain)
    return dispatcher


def replicate_cluster_scenario(
    seeds: Sequence[int],
    workers: int = 1,
    **scenario_params,
) -> List[Dict[str, object]]:
    """Seed replications of the canonical cluster scenario, in parallel.

    Each seed is an independent shared-nothing simulation, so the runs
    fan out over :func:`repro.parallel.run_tasks`; summaries come back
    in seed order (task-key ordered reduction) with per-run digests, so
    the returned list is identical for any ``workers`` count.
    ``scenario_params`` are forwarded to the ``cluster`` task runner
    (``nodes``, ``policy``, ``horizon``, ``mpl``, …).
    """
    from repro.parallel import make_task, run_tasks

    tasks = [
        make_task("cluster", seed=int(seed), **scenario_params)
        for seed in seeds
    ]
    result = run_tasks(tasks, workers=workers)
    return result.values
