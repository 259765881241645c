"""Multi-node workload dispatch, placement and failover (EXP18).

``repro.cluster`` scales the single-server taxonomy pipeline out to a
cluster of independent simulated DBMS engines sharing one deterministic
clock.  Each :class:`~repro.cluster.node.ClusterNode` wraps a full
engine + :class:`~repro.core.manager.WorkloadManager` stack on that
clock and names its one random stream, the engine's lock stream; the
:class:`~repro.cluster.dispatcher.ClusterDispatcher` is the
cluster-level workload manager — admission (one front-door gate, such
as :class:`~repro.cluster.dispatcher.TenantQuota`'s per-tenant quotas,
and one bound on the cluster queue), placement (pluggable policies from
:mod:`repro.cluster.placement`: round-robin, least-outstanding,
cost-balanced, SLA-aware greedy), and re-placement of crash-lost work
(faults are dispatcher actions, scheduled by
:meth:`~repro.cluster.dispatcher.ClusterDispatcher.arm_faults`); a
node's own admission verdict is final.  Dispatch itself is a pluggable
binding policy: ``push`` places each request on a node at arrival and
parks what no node takes in a FIFO cluster queue, ``pull`` parks every
request in a :class:`~repro.cluster.taskqueue.TaskQueue` (served by
share deficit) until a node with a free execution slot pulls work through the
:class:`~repro.cluster.matcher.Matcher` (DIRAC-style late binding).
Both cluster queues are the node tier's one wait structure,
:class:`~repro.core.interfaces.PartitionedQueue`.
:mod:`repro.cluster.metrics` rolls per-node statistics up into
cluster-level views.  The package builds no cluster itself:
:func:`repro.scenarios.arm_scenario` assembles the nodes, the binding
and the dispatcher from one scenario spec and one policy; a cluster of
one it builds is the single server its node wraps.
"""

from repro.cluster.dispatcher import (
    DISPATCH_MODES,
    BindingPolicy,
    ClusterDispatcher,
    FaultEvent,
    FaultKind,
    PullBinding,
    PushBinding,
    tenant_key,
)
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
from repro.cluster.taskqueue import TaskQueue

__all__ = [
    "DISPATCH_MODES",
    "POLICY_NAMES",
    "NODE_MACHINE",
    "BindingPolicy",
    "ClusterDispatcher",
    "ClusterMetrics",
    "ClusterNode",
    "CostBalancedPlacement",
    "FaultEvent",
    "FaultKind",
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
    "make_policy",
    "predict_response_time",
    "tenant_key",
]
