"""Cluster assembly: N nodes and a dispatcher on one shared simulator.

:func:`build_cluster` is the one place a cluster is put together.  What
runs *on* a cluster is a :class:`~repro.scenarios.spec.ScenarioSpec`
(EXP18's overload and the matcher stress are two builders in
:mod:`repro.scenarios.matrix`) and every run goes through
:func:`repro.scenarios.run_scenario`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.cluster.dispatcher import (
    UNTENANTED,
    ClusterDispatcher,
    make_binding,
    tenant_key,
)
from repro.cluster.node import ClusterNode
from repro.cluster.placement import make_policy
from repro.core.sla import SLASet, response_time_sla
from repro.engine.simulator import Simulator

#: The SLAs a cluster built without ``slas`` gets (the unit tests' and
#: EXP18's OLTP 2 s p95 / BI 120 s average).
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
    mpl: int = 12,
    max_outstanding: Optional[int] = None,
    max_queue_depth: Optional[int] = None,
    slas: Optional[SLASet] = None,
    dispatch: str = "push",
    speed_factors: Optional[Sequence[float]] = None,
    scheduler_factory: Optional[Callable[[], object]] = None,
    tenant_quotas: Optional[Dict[str, int]] = None,
    tenant_shares: Optional[Dict[str, float]] = None,
) -> ClusterDispatcher:
    """A cluster of ``nodes`` nodes named ``n0``, ``n1``, ….

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
            mpl=mpl,
            max_outstanding=max_outstanding,
            scheduler=scheduler_factory() if scheduler_factory else None,
            speed_factor=(
                speed_factors[index % len(speed_factors)]
                if speed_factors
                else 1.0
            ),
        )
        for index in range(nodes)
    ]
    binding = None
    if tenant_shares and dispatch == "pull":
        binding = make_binding(
            "pull",
            class_shares=tenant_shares,
            key_fn=lambda query: tenant_key(query) or UNTENANTED,
        )
    return ClusterDispatcher(
        sim,
        cluster_nodes,
        placement=make_policy(policy, slas=slas),
        slas=slas,
        max_queue_depth=max_queue_depth,
        dispatch=dispatch,
        binding=binding,
        tenant_quotas=tenant_quotas,
    )
