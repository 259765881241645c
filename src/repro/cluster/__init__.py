"""Multi-node workload dispatch, placement and failover (EXP18).

``repro.cluster`` scales the single-server taxonomy pipeline out to a
cluster of independent simulated DBMS engines sharing one deterministic
clock.  Each :class:`~repro.cluster.node.ClusterNode` wraps a full
engine + :class:`~repro.core.manager.WorkloadManager` stack on a scoped
RNG namespace; the :class:`~repro.cluster.dispatcher.ClusterDispatcher`
is the cluster-level workload manager — admission (per-tenant quotas,
:class:`~repro.cluster.dispatcher.TenantQuota`, and one bound on the
cluster queue), placement (pluggable policies from
:mod:`repro.cluster.placement`: round-robin, least-outstanding,
cost-balanced, SLA-aware greedy), and re-placement of locally rejected
or crash-lost work (:mod:`repro.cluster.failover`).  Dispatch itself is
a pluggable binding policy: ``push`` places each request on a node at
arrival, ``pull`` parks it in a :class:`~repro.cluster.taskqueue.TaskQueue`
(the node tier's :class:`~repro.scheduling.queues.PartitionedQueue`
served by share deficit) until a node with a free execution slot pulls
work through the :class:`~repro.cluster.matcher.Matcher` (DIRAC-style
late binding).
:mod:`repro.cluster.metrics` rolls per-node statistics up into
cluster-level views.
"""

from repro.cluster.dispatcher import (
    DISPATCH_MODES,
    BindingPolicy,
    ClusterDispatcher,
    PullBinding,
    PushBinding,
    make_binding,
    tenant_key,
)
from repro.cluster.failover import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.cluster.matcher import Matcher
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.node import (
    NODE_MACHINE,
    ClusterNode,
    NodeHealth,
    NodeHeartbeat,
)
from repro.cluster.placement import (
    POLICY_NAMES,
    CostBalancedPlacement,
    LeastOutstandingPlacement,
    PlacementPolicy,
    RoundRobinPlacement,
    SLAAwarePlacement,
    make_policy,
    predict_response_time,
)
from repro.cluster.scenario import CLUSTER_SLAS, build_cluster
from repro.cluster.taskqueue import TaskQueue

__all__ = [
    "CLUSTER_SLAS",
    "DISPATCH_MODES",
    "POLICY_NAMES",
    "NODE_MACHINE",
    "BindingPolicy",
    "ClusterDispatcher",
    "ClusterMetrics",
    "ClusterNode",
    "CostBalancedPlacement",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "LeastOutstandingPlacement",
    "Matcher",
    "NodeHealth",
    "NodeHeartbeat",
    "PlacementPolicy",
    "PullBinding",
    "PushBinding",
    "RoundRobinPlacement",
    "SLAAwarePlacement",
    "TaskQueue",
    "build_cluster",
    "make_binding",
    "make_policy",
    "predict_response_time",
    "tenant_key",
]
