"""The cluster dispatcher: admission, binding and re-placement.

The :class:`ClusterDispatcher` is the cluster-level control point — the
DIRAC matcher / WiSeDB advisor of this simulator.  It owns the shared
substrate every dispatch mode uses: request intake and conservation
counters, the per-query exclusion sets, placement commit, node-local
rejection interception, crash reclaim and the cluster metrics rollup.
Intake applies two controls: per-tenant quotas (:class:`TenantQuota`)
on arrival, and one bound on the cluster wait structure after routing.
*When* work binds to a node is a pluggable **binding policy** — the
paper's §3.2/§3.3 split between where decisions happen and when work
binds to capacity:

* **push** (:class:`PushBinding`, the default) — the dispatcher picks a
  node the moment a request arrives, via a
  :class:`~repro.cluster.placement.PlacementPolicy`; saturated clusters
  park arrivals in a FIFO cluster queue retried on capacity events
  (early binding, load-balancer shape);
* **pull** (:class:`PullBinding`) — arrivals park in a priority-ordered
  :class:`~repro.cluster.taskqueue.TaskQueue` and nodes pull work
  through the :class:`~repro.cluster.matcher.Matcher` at the moment
  they free an execution slot (late binding, DIRAC pilot shape).

Both modes share recovery paths, all deterministic:

* a node manager that *locally* rejects a request hands it back through
  the :meth:`~repro.core.manager.WorkloadManager.set_rejection_interceptor`
  hook and the dispatcher re-binds it elsewhere (the refusing node is
  excluded for that request);
* queries lost to a node crash (killed in-flight, evacuated from its
  wait queue) are resubmitted through normal intake — the same
  record/resubmit lifecycle the replay machinery uses (KILLED →
  SUBMITTED), with progress reset because crashed work is lost.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set

from repro.cluster.matcher import Matcher
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.node import ClusterNode, NodeHealth
from repro.cluster.placement import PlacementPolicy, RoundRobinPlacement
from repro.cluster.taskqueue import TaskQueue
from repro.core.interfaces import AdmissionDecision
from repro.core.sla import SLASet
from repro.engine.query import Query, QueryState, tenant_key
from repro.engine.sessions import SessionRegistry
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError

CompletionListener = Callable[[Query], None]

#: Binding-policy names accepted by the ``dispatch`` parameter / CLI.
DISPATCH_MODES = ("push", "pull")

#: The bucket tenant-keyed ledgers and queues file tenantless work under.
UNTENANTED = "<untenanted>"


class TenantQuota:
    """Cluster-tier admission quotas: a cap on each tenant's outstanding work.

    A request is counted against its tenant (:func:`tenant_key`) from
    :meth:`admit` to :meth:`release` at its terminal outcome; a tenant
    at its quota has new arrivals rejected at intake — the noisy
    neighbor's flood bounces at the front door instead of burying every
    queue.  Untenanted work and tenants without a quota are never
    refused.
    """

    def __init__(self, quotas: Dict[str, int]) -> None:
        for tenant, quota in quotas.items():
            if quota < 0:
                raise ConfigurationError(
                    f"tenant quota for {tenant!r} must be >= 0, got {quota}"
                )
        self.quotas = dict(quotas)
        self._outstanding: Dict[str, int] = {}
        self._counted: Dict[int, str] = {}

    def admit(self, query: Query) -> Optional[str]:
        """``None`` when ``query`` may enter (it is then counted), else
        the reason it may not."""
        tenant = tenant_key(query)
        if tenant is None:
            return None
        quota = self.quotas.get(tenant)
        outstanding = self._outstanding.get(tenant, 0)
        if quota is not None and outstanding >= quota:
            return f"tenant {tenant!r} at its quota of {quota}"
        self._counted[query.query_id] = tenant
        self._outstanding[tenant] = outstanding + 1
        return None

    def release(self, query: Query) -> None:
        """``query`` reached its terminal outcome."""
        tenant = self._counted.pop(query.query_id, None)
        if tenant is not None:
            self._outstanding[tenant] -= 1


class BindingPolicy(abc.ABC):
    """When queued work binds to node capacity (the push/pull seam).

    A binding policy owns the cluster-level wait structure and decides
    the binding moment; everything else — intake, commit, reclaim,
    metrics — lives on the dispatcher substrate it is attached to.
    """

    name: str = "abstract"

    def attach(self, dispatcher: "ClusterDispatcher") -> None:
        self.dispatcher = dispatcher

    @abc.abstractmethod
    def route(self, query: Query) -> None:
        """A request entered intake (arrival, re-entry or reclaim)."""

    @abc.abstractmethod
    def on_capacity(self, node: ClusterNode) -> None:
        """``node`` freed a slot or came (back) up."""

    @abc.abstractmethod
    def sweep(self) -> None:
        """Periodic tick: retry anything waiting at the cluster level."""

    @abc.abstractmethod
    def withdraw(self, query: Query) -> bool:
        """Take back ``query``, just routed, if it waits at the cluster level."""

    @property
    @abc.abstractmethod
    def queue_depth(self) -> int:
        """Requests waiting at the cluster level."""

    @abc.abstractmethod
    def queued_queries(self) -> List[Query]:
        """Snapshot of the cluster-level wait structure."""


class PushBinding(BindingPolicy):
    """Early binding: place on arrival, FIFO cluster queue as overflow."""

    name = "push"

    def __init__(self) -> None:
        self.queue: Deque[Query] = deque()

    def attach(self, dispatcher: "ClusterDispatcher") -> None:
        super().attach(dispatcher)
        dispatcher.placement.bind(dispatcher.nodes)

    # -- intake --------------------------------------------------------
    def route(self, query: Query) -> None:
        d = self.dispatcher
        candidates = d._eligible_for(query)
        if candidates:
            node = d.placement.choose(query, candidates)
            if node is not None:
                d._place(query, node)
                return
        # waiting in the cluster queue wipes per-placement exclusions:
        # by the time it is retried the refusing node may have capacity
        d._excluded.pop(query.query_id, None)
        self.queue.append(query)

    def withdraw(self, query: Query) -> bool:
        # a routed request that waits is the one route just appended
        if self.queue and self.queue[-1] is query:
            self.queue.pop()
            return True
        return False

    # -- binding moments -----------------------------------------------
    def on_capacity(self, node: ClusterNode) -> None:
        self.drain()

    def sweep(self) -> None:
        self.drain()

    def drain(self) -> None:
        """Retry queued requests while any node will take them.

        A blocked head no longer starves the tail: when the head's
        placement comes back empty (its exclusions emptied the
        candidate list, or the policy returned ``None``) the scan
        moves past it — bounded to one look at each queued request, in
        FIFO order, with blocked requests keeping their positions.
        Only a cluster-wide lack of eligible nodes stops the scan,
        because then no queued request can be placed at all.
        """
        d = self.dispatcher
        blocked: List[Query] = []
        for _ in range(len(self.queue)):
            if not self.queue:
                break
            query = self.queue.popleft()
            candidates = d._eligible_for(query)
            node = (
                d.placement.choose(query, candidates) if candidates else None
            )
            if node is None:
                blocked.append(query)
                if not d._eligible_for(None):
                    break  # nothing can take anything; stop scanning
                continue
            d._place(query, node)
        for query in reversed(blocked):
            self.queue.appendleft(query)

    # -- introspection -------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    def queued_queries(self) -> List[Query]:
        return list(self.queue)


class PullBinding(BindingPolicy):
    """Late binding: task queue + matcher, nodes pull at free slots."""

    name = "pull"

    def __init__(self, taskqueue: Optional[TaskQueue] = None) -> None:
        self.taskqueue = taskqueue if taskqueue is not None else TaskQueue()
        self.matcher: Optional[Matcher] = None

    def attach(self, dispatcher: "ClusterDispatcher") -> None:
        super().attach(dispatcher)
        self.matcher = Matcher(
            dispatcher.nodes,
            self.taskqueue,
            place=dispatcher._place,
            excluded=lambda query, node: node.name
            in dispatcher._excluded.get(query.query_id, ()),
        )

    # -- intake --------------------------------------------------------
    def route(self, query: Query) -> None:
        self.taskqueue.push(query)
        # an idle pilot's match request is always pending: fresh work
        # binds immediately when any node has a free slot for it
        self.matcher.offer()

    def withdraw(self, query: Query) -> bool:
        return self.taskqueue.remove(query.query_id) is not None

    # -- binding moments -----------------------------------------------
    def on_capacity(self, node: ClusterNode) -> None:
        self.matcher.pull(node)

    def sweep(self) -> None:
        # the poll cadence doubles as exclusion amnesty (the push-mode
        # analogue wipes exclusions when a request enters the cluster
        # queue): a node that refused a request under one load may take
        # it a control period later
        d = self.dispatcher
        for query in self.taskqueue.queued_queries():
            d._excluded.pop(query.query_id, None)
        self.matcher.offer()

    # -- introspection -------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self.taskqueue)

    def queued_queries(self) -> List[Query]:
        return self.taskqueue.queued_queries()


def make_binding(dispatch: str) -> BindingPolicy:
    """Build a binding policy from its short CLI name."""
    if dispatch == "push":
        return PushBinding()
    if dispatch == "pull":
        return PullBinding()
    raise ConfigurationError(
        f"unknown dispatch mode {dispatch!r}; one of {DISPATCH_MODES}"
    )


class ClusterDispatcher:
    """Routes one request stream across N simulated DBMS nodes.

    Parameters
    ----------
    sim:
        The shared simulator (the *base* clock, not a scoped view).
    nodes:
        The cluster's nodes in stable order (placement tie-break order).
    placement:
        Placement policy for push mode; defaults to round-robin.
        Ignored by pull mode, where the matcher binds work to whichever
        node pulls it.
    max_queue_depth:
        Bound on the cluster wait structure; ``None`` = unbounded
        (never cluster-reject), ``0`` = reject the moment no node can
        take the arrival.  A routed request that leaves the structure
        over its bound is the one the cluster turns away.
    control_period:
        Seconds between dispatcher ticks (queue retry / poll cadence).
    dispatch:
        ``"push"`` (default) or ``"pull"``; alternatively pass a
        pre-built :class:`BindingPolicy` via ``binding``.
    binding:
        Explicit binding policy instance (overrides ``dispatch``) —
        how pull runs get a tenant-keyed task queue.
    tenant_quotas:
        ``{tenant: max outstanding}`` cluster-tier admission quotas
        (:class:`TenantQuota`); ``None`` (default) disables quotas.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[ClusterNode],
        placement: Optional[PlacementPolicy] = None,
        slas: Optional[SLASet] = None,
        max_queue_depth: Optional[int] = None,
        control_period: float = 1.0,
        dispatch: str = "push",
        binding: Optional[BindingPolicy] = None,
        tenant_quotas: Optional[Dict[str, int]] = None,
    ) -> None:
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names: {names}")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ConfigurationError("max_queue_depth must be >= 0 or None")
        self.quota = TenantQuota(tenant_quotas) if tenant_quotas else None
        self.sim = sim
        self.nodes = list(nodes)
        self._by_name = dict(zip(names, self.nodes))
        self.placement = placement or RoundRobinPlacement()
        self.slas = slas or SLASet()
        self.max_queue_depth = max_queue_depth
        self.metrics = ClusterMetrics(self.nodes)
        self.sessions = SessionRegistry()
        self.binding = binding if binding is not None else make_binding(dispatch)
        self.binding.attach(self)
        self._listeners: List[CompletionListener] = []
        self._excluded: Dict[int, Set[str]] = {}  # query_id -> nodes that refused
        self.arrivals = 0
        self.completions = 0
        self._eligible_cache: Optional[List[ClusterNode]] = None
        for node in self.nodes:
            node.manager.add_completion_listener(
                lambda query, n=node: self._on_node_exit(n, query)
            )
            node.manager.set_rejection_interceptor(
                lambda query, decision, n=node: self._intercept_rejection(
                    n, query, decision
                )
            )
            node.on_accepting_change(self._on_accepting_change)
            self.metrics.record_health(sim.now, self, node)
        self._ticker = sim.schedule_periodic(
            control_period, self._tick, label="cluster:tick"
        )

    @property
    def dispatch(self) -> str:
        """The active binding-policy name (``"push"`` or ``"pull"``)."""
        return self.binding.name

    @property
    def rejections(self) -> int:
        """Requests refused at the cluster front end (quota or full queue)."""
        return self.metrics.cluster_rejections

    @property
    def resubmissions(self) -> int:
        """Crash-lost requests put back through intake."""
        return self.metrics.resubmissions

    # ------------------------------------------------------------------
    # client intake
    # ------------------------------------------------------------------
    def submit(self, query: Query) -> None:
        """A request arrives at the cluster front end."""
        query.transition(QueryState.SUBMITTED)
        if query.submit_time is None:
            query.submit_time = self.sim.now
        self.arrivals += 1
        if self.quota is not None:
            reason = self.quota.admit(query)
            if reason is not None:
                self._cluster_reject(query, reason, self.quota)
                return
        self._route(query)

    def resubmit(self, query: Query, delay: float = 0.0) -> None:
        """Re-enter a request whose previous placement was lost.

        Crash-lost work restarts from scratch: progress is reset and the
        restart is counted, then the query goes through normal intake
        (same deterministic path as kill-and-resubmit policies).
        """
        query.progress = 0.0
        query.restarts += 1
        self.metrics.resubmissions += 1
        self._excluded.pop(query.query_id, None)
        if delay > 0:
            self.sim.schedule(
                delay, lambda: self._reenter(query), label="cluster:resubmit"
            )
        else:
            self._reenter(query)

    def _reenter(self, query: Query) -> None:
        query.transition(QueryState.SUBMITTED)
        self._route(query)

    def _route(self, query: Query) -> None:
        binding = self.binding
        binding.route(query)
        depth = self.max_queue_depth
        if depth is not None and binding.queue_depth > depth and binding.withdraw(query):
            # nothing took it and the cluster queue is over its bound:
            # the *arriving* request is the one the cluster turns away
            self._cluster_reject(query, f"cluster queue full ({depth})")

    # ------------------------------------------------------------------
    # eligibility (shared by push placement and the HOL scan)
    # ------------------------------------------------------------------
    def eligible_nodes(self, query: Optional[Query] = None) -> List[ClusterNode]:
        """UP, unsaturated nodes (minus any that refused this query)."""
        return list(self._eligible_for(query))

    def _on_accepting_change(self, node: ClusterNode) -> None:
        self._eligible_cache = None

    def _eligible_for(self, query: Optional[Query]) -> List[ClusterNode]:
        """The eligible set, cached between accepting-bit flips.

        Returns the shared cache list when the query has no exclusions;
        callers must treat it as read-only.  Nodes notify
        :meth:`_on_accepting_change` whenever their accepting bit flips
        (health transitions, ``max_outstanding`` edge crossings), so the
        cached list is always equal to a fresh scan.
        """
        eligible = self._eligible_cache
        if eligible is None:
            eligible = self._eligible_cache = [
                node for node in self.nodes if node.accepting
            ]
        excluded = (
            self._excluded.get(query.query_id) if query is not None else None
        )
        if excluded:
            return [node for node in eligible if node.name not in excluded]
        return eligible

    # ------------------------------------------------------------------
    # placement commit + cluster rejection (shared substrate)
    # ------------------------------------------------------------------
    def _place(self, query: Query, node: ClusterNode) -> None:
        self.metrics.record_placement(node)
        node.submit(query)
        # a synchronous node-local rejection re-routes via the
        # interceptor before node.submit returns; nothing more to do

    def _cluster_reject(self, query: Query, reason: str, emitter: object = None) -> None:
        self._excluded.pop(query.query_id, None)
        query.transition(QueryState.REJECTED)
        query.end_time = self.sim.now
        self.metrics.cluster_rejections += 1
        self.metrics.record(self.sim.now, emitter or self, "reject", query, reason)
        self._notify(query)

    # ------------------------------------------------------------------
    # node feedback
    # ------------------------------------------------------------------
    def _intercept_rejection(
        self, node: ClusterNode, query: Query, decision: AdmissionDecision
    ) -> bool:
        """A node's local admission refused: reclaim and re-bind."""
        node.release(query)
        if query.state is QueryState.QUEUED:  # refused from a delayed retry
            query.transition(QueryState.SUBMITTED)
        self._excluded.setdefault(query.query_id, set()).add(node.name)
        self.metrics.replacements += 1
        self._route(query)
        return True

    def _on_node_exit(self, node: ClusterNode, query: Query) -> None:
        if query.state is QueryState.KILLED and node.health is NodeHealth.DOWN:
            # in-flight work lost to a crash: resubmit through intake
            self.resubmit(query)
        else:
            if query.state is QueryState.COMPLETED:
                self.completions += 1
            self._excluded.pop(query.query_id, None)
            self._notify(query)
        self.binding.on_capacity(node)

    # ------------------------------------------------------------------
    # fault handling (used by repro.cluster.failover)
    # ------------------------------------------------------------------
    def crash_node(self, node: ClusterNode) -> int:
        """Kill a node: evacuate its queue, lose its in-flight work.

        Returns the number of queries reclaimed (evacuated + killed);
        every one re-enters through :meth:`resubmit` / :meth:`_route`.
        """
        node.crash()
        self.metrics.record_health(self.sim.now, self, node)
        reclaimed = 0
        # queued work survives (it never started): re-place directly
        for queued in node.manager.evacuate_queued():
            node.release(queued)
            queued.transition(QueryState.SUBMITTED)
            self._route(queued)
            reclaimed += 1
        # in-flight work is lost; each kill triggers _on_node_exit which
        # resubmits because the node is already DOWN
        engine = node.manager.engine
        for query_id in list(engine.running_ids()):
            engine.kill(query_id)
            reclaimed += 1
        self.binding.sweep()
        return reclaimed

    def drain_node(self, node: ClusterNode) -> None:
        node.drain()
        self.metrics.record_health(self.sim.now, self, node)

    def activate_node(self, node: ClusterNode) -> None:
        node.activate()
        self.metrics.record_health(self.sim.now, self, node)
        self.binding.on_capacity(node)

    def degrade_node(self, node: ClusterNode, factor: float) -> None:
        node.degrade(factor)
        self.metrics.record_health(self.sim.now, self, node)

    def restore_node_speed(self, node: ClusterNode) -> None:
        node.restore_speed()
        self.metrics.record_health(self.sim.now, self, node)

    def node(self, name: str) -> ClusterNode:
        return self._by_name[name]

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def cluster_queue_depth(self) -> int:
        return self.binding.queue_depth

    def outstanding_work(self) -> int:
        return self.binding.queue_depth + sum(
            n.outstanding_work for n in self.nodes
        )

    def add_completion_listener(self, listener: CompletionListener) -> None:
        """Called for every client-visible terminal outcome."""
        self._listeners.append(listener)

    def _notify(self, query: Query) -> None:
        if self.quota is not None:
            self.quota.release(query)
        for listener in list(self._listeners):
            listener(query)

    def _tick(self) -> None:
        self.binding.sweep()

    def shutdown(self) -> None:
        """Stop all periodic processes so the simulator can drain."""
        self._ticker.stop()
        for node in self.nodes:
            node.shutdown()

    def run(self, horizon: float, drain: float = 0.0) -> None:
        """Run the cluster to ``horizon`` plus a drain window."""
        self.sim.run_until(horizon + drain)
        self.shutdown()
