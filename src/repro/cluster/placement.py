"""Placement policies: which node gets an incoming request.

The cluster dispatcher's placement decision is the cluster-level
analogue of single-server scheduling (paper §3.3): the same control
point, one level up.  Four policies are provided:

* :class:`RoundRobinPlacement` — rotate over nodes regardless of load
  (the uncontrolled baseline; DNS-round-robin flavour);
* :class:`LeastOutstandingPlacement` — fewest outstanding requests
  (load-balancer least-connections);
* :class:`CostBalancedPlacement` — least outstanding *estimated work*
  (device-seconds), so one monster query counts for what it costs, not
  as one request;
* :class:`SLAAwarePlacement` — WiSeDB-style greedy placement (Marcus &
  Papaemmanouil): predict the response time of the request on every
  candidate node and pick the busiest node that still meets the
  request's SLA deadline (tightest fit preserves headroom for heavier
  requests); if no node can meet it, fall back to the fastest node.

All policies are pure functions of the candidate list plus internal
state — no wall clock, no RNG — so placements are bit-deterministic for
a given arrival sequence.  Candidate lists are pre-filtered by the
dispatcher: a policy never sees a DOWN or saturated node.  A policy
also orders them: the dispatcher keeps its eligible set in one
:class:`~repro.cluster.ranked.RankedNodes` index ranked by the policy's
:meth:`PlacementPolicy.rank`, so the load-keyed policies (``least``,
``cost``) take the first candidate and scan nothing per arrival.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence

from repro.cluster.node import ClusterNode
from repro.core.sla import ObjectiveKind, SLASet
from repro.engine.query import Query, workload_key


class PlacementPolicy(abc.ABC):
    """Chooses a node for each request the dispatcher routes."""

    name: str = "abstract"

    def rank(self, node: ClusterNode) -> Optional[tuple]:
        """``node``'s place in the eligible set, ``None`` when it is not
        eligible (DOWN or at its saturation ceiling): equal ranks keep
        stable cluster order."""
        return () if node.accepting else None

    @abc.abstractmethod
    def choose(self, query: Query, nodes: Sequence[ClusterNode]) -> ClusterNode:
        """Return one of ``nodes``, the node ``query`` is placed on.

        ``nodes`` is the dispatcher's eligible set (UP, below their
        saturation ceiling) in :meth:`rank` order; it is never empty,
        and the dispatcher queues a request only when no node is
        eligible.
        """


class RoundRobinPlacement(PlacementPolicy):
    """Rotate placements across nodes, blind to load."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, query: Query, nodes: Sequence[ClusterNode]) -> ClusterNode:
        node = nodes[self._next % len(nodes)]
        self._next += 1
        return node


class LoadRankedPlacement(PlacementPolicy):
    """Least-loaded first: a subclass names the tuple it minimises in
    ``load_key(node)`` (ending in the node name, the tie-break), which
    ranks the eligible set."""

    def rank(self, node: ClusterNode) -> Optional[tuple]:
        return self.load_key(node) if node.accepting else None

    def choose(self, query: Query, nodes: Sequence[ClusterNode]) -> ClusterNode:
        return nodes[0]


class LeastOutstandingPlacement(LoadRankedPlacement):
    """Place on the node with the fewest outstanding requests."""

    name = "least-outstanding"

    @staticmethod
    def load_key(node: ClusterNode) -> tuple:
        return (node.outstanding_work, node.name)


class CostBalancedPlacement(LoadRankedPlacement):
    """Place on the node with the least outstanding *estimated* work.

    Balancing device-seconds rather than request counts keeps a stream
    of cheap OLTP requests away from the node digesting a monster BI
    query — the difference EXP18 measures.
    """

    name = "cost-balanced"

    @staticmethod
    def load_key(node: ClusterNode) -> tuple:
        return (node.outstanding_estimated_work / node.rate_capacity, node.name)


def predict_response_time(node: ClusterNode, query: Query) -> float:
    """Optimizer-estimate-based response-time prediction on ``node``.

    The backlog already promised to the node drains at its aggregate
    device rate; the request then runs for its estimated unloaded
    duration, stretched by the node's degradation factor.  Crude — the
    point (as in WiSeDB) is that the *ranking* across nodes is right,
    not the absolute seconds.
    """
    queue_wait = node.outstanding_estimated_work / node.rate_capacity
    service = query.estimated_cost.nominal_duration / max(node.speed_factor, 1e-9)
    return queue_wait + service


class SLAAwarePlacement(PlacementPolicy):
    """Greedy SLA-aware placement (WiSeDB-style first fit).

    Each request's deadline comes from its workload's response-time SLA
    (p95 objective preferred, else average, else ``default_deadline``).
    Among nodes predicted to meet the deadline, the *most loaded*
    feasible node wins — packing tightly keeps idle nodes free for
    requests with tight deadlines.  When no node is predicted to meet
    the deadline the least-bad (fastest-predicted) node is used.
    """

    name = "sla-aware"

    def __init__(self, slas: SLASet, default_deadline: float = 60.0) -> None:
        self.slas = slas
        self.default_deadline = default_deadline
        self._deadline_cache: Dict[Optional[str], float] = {}

    def deadline_for(self, query: Query) -> float:
        """The response-time target this request must meet."""
        workload = workload_key(query)
        if workload in self._deadline_cache:
            return self._deadline_cache[workload]
        deadline = self.default_deadline
        sla = self.slas.get(workload)
        if sla is not None:
            by_kind = {obj.kind: obj.target for obj in sla.objectives}
            if ObjectiveKind.PERCENTILE_RESPONSE_TIME in by_kind:
                deadline = by_kind[ObjectiveKind.PERCENTILE_RESPONSE_TIME]
            elif ObjectiveKind.AVERAGE_RESPONSE_TIME in by_kind:
                deadline = by_kind[ObjectiveKind.AVERAGE_RESPONSE_TIME]
        self._deadline_cache[workload] = deadline
        return deadline

    def choose(self, query: Query, nodes: Sequence[ClusterNode]) -> ClusterNode:
        deadline = self.deadline_for(query)
        predictions = [(predict_response_time(node, query), node) for node in nodes]
        feasible = [(p, node) for p, node in predictions if p <= deadline]
        if feasible:
            # tightest fit: largest prediction still within the deadline
            return max(feasible, key=lambda pn: (pn[0], pn[1].name))[1]
        return min(predictions, key=lambda pn: (pn[0], pn[1].name))[1]


#: CLI / scenario-builder registry.
POLICY_NAMES = ("round-robin", "least", "cost", "sla")


def make_policy(name: str, slas: Optional[SLASet] = None) -> PlacementPolicy:
    """Build a placement policy from its short CLI name."""
    if name == "round-robin":
        return RoundRobinPlacement()
    if name == "least":
        return LeastOutstandingPlacement()
    if name == "cost":
        return CostBalancedPlacement()
    if name == "sla":
        return SLAAwarePlacement(slas if slas is not None else SLASet())
    raise ValueError(f"unknown placement policy {name!r}; one of {POLICY_NAMES}")
