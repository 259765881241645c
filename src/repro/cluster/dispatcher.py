"""The cluster dispatcher: admission, binding and crash reclaim.

The :class:`ClusterDispatcher` is the cluster-level control point — the
DIRAC matcher / WiSeDB advisor of this simulator.  It owns the shared
substrate every dispatch mode uses: request intake and conservation
counters, placement commit, the funnel of node outcomes to clients,
crash reclaim and the cluster metrics rollup.
Intake applies two controls: one admission gate on arrival (a node's
``AdmissionController``, such as :class:`TenantQuota`), which admits or
rejects, and one bound on the cluster wait structure after routing.
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

Both modes share two node-feedback paths, all deterministic:

* a node's own verdict is final: a request its admission controller
  rejects ends ``REJECTED``, recorded in that node's decision record
  and reported to clients like any other terminal outcome;
* a node crash re-places its work through normal intake at once: its
  wait queue is evacuated, and each running attempt ends ``ABORTED`` on
  the node, its progress lost, as a restarted attempt's does.  The
  client hears nothing until the same request's outcome.

Faults are dispatcher actions: :meth:`ClusterDispatcher.arm_faults`
puts a schedule of :class:`FaultEvent` values on the shared clock, so a
faulted run is as bit-deterministic as a clean one.  Each fault kind
moves one node variable.  CRASH and RECOVER move its health and nothing
else; DEGRADE moves its speed, as a factor of the node's base speed, in
any health state, and ``DEGRADE factor=1.0`` ends a degradation.  So a
node that crashes and recovers inside a degrade window comes back still
degraded.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.matcher import Matcher
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.node import ClusterNode
from repro.cluster.placement import PlacementPolicy, RoundRobinPlacement
from repro.cluster.ranked import RankedNodes
from repro.cluster.taskqueue import TaskQueue
from repro.core.interfaces import AdmissionController, AdmissionDecision, AdmissionOutcome
from repro.core.interfaces import PartitionedQueue
from repro.engine.query import Query, QueryState, tenant_key
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError

CompletionListener = Callable[[Query], None]

#: Binding-policy names: ``PolicyConfig.dispatch`` and the CLI's ``--dispatch``.
DISPATCH_MODES = ("push", "pull")

#: The bucket tenant-keyed ledgers and queues file tenantless work under.
UNTENANTED = "<untenanted>"

#: Seconds between dispatcher ticks (queue retry / poll cadence).
CONTROL_PERIOD = 1.0


class FaultKind(enum.Enum):
    """What happens to the node at the fault time."""

    CRASH = "crash"          # node dies; in-flight work lost and resubmitted
    DEGRADE = "degrade"      # node runs at `factor` of its base speed
    RECOVER = "recover"      # back to UP


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    time: float
    node: str
    kind: FaultKind
    factor: float = 1.0      # DEGRADE only: speed multiplier in (0, 1]; 1.0 ends one

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.time}")
        if self.kind is FaultKind.DEGRADE and not 0.0 < self.factor <= 1.0:
            raise ConfigurationError(
                f"degrade factor must be in (0,1], got {self.factor}"
            )


class TenantQuota(AdmissionController):
    """Cluster-tier admission quotas: a cap on each tenant's outstanding work.

    A request is counted against its tenant (:func:`tenant_key`) from
    the :meth:`decide` that accepts it to its :meth:`notify_exit`; a
    tenant at its quota has new arrivals rejected at the front door —
    the noisy neighbor's flood bounces there instead of burying every
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

    def decide(self, query: Query, context: ClusterMetrics) -> AdmissionDecision:
        tenant = tenant_key(query)
        if tenant is not None:
            quota = self.quotas.get(tenant)
            outstanding = self._outstanding.get(tenant, 0)
            if quota is not None and outstanding >= quota:
                return AdmissionDecision.reject(f"tenant {tenant!r} at its quota of {quota}")
            self._counted[query.query_id] = tenant
            self._outstanding[tenant] = outstanding + 1
        return AdmissionDecision.accept("within quota")

    def notify_exit(self, query: Query, context: ClusterMetrics) -> None:
        tenant = self._counted.pop(query.query_id, None)
        if tenant is not None:
            self._outstanding[tenant] -= 1


class BindingPolicy(abc.ABC):
    """When queued work binds to node capacity (the push/pull seam).

    A binding policy keeps the requests waiting at the cluster level in
    :attr:`queue` and decides the binding moment; everything else —
    intake, commit, reclaim, metrics — lives on the dispatcher substrate
    it is attached to.
    """

    queue: PartitionedQueue

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

    def withdraw(self, query: Query) -> bool:
        """Take back ``query``, just routed, if it waits at the cluster level."""
        return self.queue.remove(query.query_id) is not None

    @property
    def queue_depth(self) -> int:
        """Requests waiting at the cluster level."""
        return len(self.queue)


class PushBinding(BindingPolicy):
    """Early binding: place on arrival, FIFO cluster queue as overflow."""

    def __init__(self) -> None:
        self.queue = PartitionedQueue()
        self._draining = False  # re-entrancy guard: a placement can call back

    # -- intake --------------------------------------------------------
    def route(self, query: Query) -> None:
        d = self.dispatcher
        candidates = d._eligible_for()
        if candidates:
            d._place(query, d.placement.choose(query, candidates))
        else:
            self.queue.push(query)

    # -- binding moments -----------------------------------------------
    def on_capacity(self, node: ClusterNode) -> None:
        self.drain()

    def sweep(self) -> None:
        self.drain()

    def drain(self) -> None:
        """Place the FIFO head while any node is eligible.

        Every eligible node takes any request, so the queue drains in
        arrival order and stops only when no node accepts.  A node that
        rejects a placement reports the exit at once, which calls back
        here; the nested call returns and this loop carries on, so a
        refused backlog drains without one stack frame per request.
        """
        if self._draining:
            return
        self._draining = True
        d = self.dispatcher
        queue = self.queue
        try:
            while len(queue):
                candidates = d._eligible_for()
                if not candidates:
                    break
                query = queue.pop()
                d._place(query, d.placement.choose(query, candidates))
        finally:
            self._draining = False


class PullBinding(BindingPolicy):
    """Late binding: task queue + matcher, nodes pull at free slots."""

    def __init__(self, taskqueue: Optional[TaskQueue] = None) -> None:
        self.queue = taskqueue if taskqueue is not None else TaskQueue()
        self.matcher: Optional[Matcher] = None

    def attach(self, dispatcher: "ClusterDispatcher") -> None:
        super().attach(dispatcher)
        self.matcher = Matcher(dispatcher.nodes, self.queue, place=dispatcher._place)

    # -- intake --------------------------------------------------------
    def route(self, query: Query) -> None:
        self.queue.push(query)
        # an idle pilot's match request is always pending: fresh work
        # binds immediately when any node has a free slot for it
        self.matcher.offer()

    # -- binding moments -----------------------------------------------
    def on_capacity(self, node: ClusterNode) -> None:
        self.matcher.pull(node)

    def sweep(self) -> None:
        self.matcher.offer()


class ClusterDispatcher:
    """Routes one request stream across N simulated DBMS nodes.

    Parameters
    ----------
    sim:
        The shared simulator every node runs on.
    nodes:
        The cluster's nodes in stable order (placement tie-break order).
    placement:
        Placement policy for push mode; defaults to round-robin.
        Ignored by pull mode, where the matcher binds work to whichever
        node pulls it.
    binding:
        The :class:`BindingPolicy`; defaults to a fresh
        :class:`PushBinding`.  A pull run passes a :class:`PullBinding`,
        over a tenant-keyed :class:`~repro.cluster.taskqueue.TaskQueue`
        when tenants have dispatch shares.
    max_queue_depth:
        Bound on the cluster wait structure; ``None`` = unbounded
        (never cluster-reject), ``0`` = reject the moment no node can
        take the arrival.  A routed request that leaves the structure
        over its bound is the one the cluster turns away.
    admission:
        The front door's gate (a :class:`TenantQuota`, say), decided with
        :attr:`metrics` as its context: any verdict but ACCEPT rejects.
        ``None`` (default) admits everything.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[ClusterNode],
        placement: Optional[PlacementPolicy] = None,
        binding: Optional[BindingPolicy] = None,
        max_queue_depth: Optional[int] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names: {names}")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ConfigurationError("max_queue_depth must be >= 0 or None")
        self.sim = sim
        self.nodes = list(nodes)
        self._by_name = dict(zip(names, self.nodes))
        self.placement = placement or RoundRobinPlacement()
        self.max_queue_depth = max_queue_depth
        self.metrics = ClusterMetrics(sim, self.nodes)
        self.admission = admission
        self.binding = binding if binding is not None else PushBinding()
        self.binding.attach(self)
        self._listeners: List[CompletionListener] = []
        self.arrivals = 0
        self.completions = 0
        self._eligible: Optional[RankedNodes] = None  # built at the first read
        for node in self.nodes:
            node.manager.add_completion_listener(partial(self._on_node_exit, node))
            self.metrics.record_health(self, node)
        self._ticker = sim.schedule_periodic(
            CONTROL_PERIOD, self._tick, label="cluster:tick"
        )

    @property
    def rejections(self) -> int:
        """Requests refused at the cluster front end (gate or full queue)."""
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
        if self.admission is not None:
            decision = self.admission.decide(query, self.metrics)
            if decision.outcome is not AdmissionOutcome.ACCEPT:
                self._cluster_reject(query, decision.reason, self.admission)
                return
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
    # eligibility (what push placement chooses from)
    # ------------------------------------------------------------------
    def eligible_nodes(self) -> List[ClusterNode]:
        """UP, unsaturated nodes in placement order."""
        return list(self._eligible_for())

    def _eligible_for(self) -> List[ClusterNode]:
        """The accepting nodes in the order of ``placement.rank``, read
        off a :class:`~repro.cluster.ranked.RankedNodes` index built at
        the first read (a pull run never builds it): the index's own
        list, read-only and valid until the next read."""
        eligible = self._eligible
        if eligible is None:
            eligible = self._eligible = RankedNodes(self.nodes, self.placement.rank)
        return eligible.read()

    # ------------------------------------------------------------------
    # placement commit + cluster rejection (shared substrate)
    # ------------------------------------------------------------------
    def _place(self, query: Query, node: ClusterNode) -> None:
        node.submit(query)

    def _cluster_reject(self, query: Query, reason: str, gate: object = None) -> None:
        query.transition(QueryState.REJECTED)
        query.end_time = self.sim.now
        self.metrics.cluster_rejections += 1
        self.metrics.record(gate or self, "reject", query, reason)
        self._notify(query, refused_by=gate)

    # ------------------------------------------------------------------
    # node feedback
    # ------------------------------------------------------------------
    def _on_node_exit(self, node: ClusterNode, query: Query) -> None:
        if query.state is QueryState.COMPLETED:
            self.completions += 1
        self._notify(query)
        self.binding.on_capacity(node)

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def arm_faults(self, events: Sequence[FaultEvent]) -> None:
        """Schedule every fault in ``events`` on the shared clock, in order.

        Every node name is checked first: a schedule naming a node the
        cluster does not have raises and leaves the clock untouched.
        """
        for event in events:
            if event.node not in self._by_name:
                raise ConfigurationError(
                    f"fault plan names unknown node {event.node!r}; "
                    f"nodes are {list(self._by_name)}"
                )
        for event in events:
            self.sim.schedule_at(
                event.time,
                partial(self._fault, event),
                label=f"fault:{event.kind.value}:{event.node}",
            )

    def _fault(self, event: FaultEvent) -> None:
        """Record ``event``, then act on it."""
        node = self._by_name[event.node]
        self.metrics.record(self, event.kind.value, detail=event)
        if event.kind is FaultKind.CRASH:
            self.crash_node(node)
        elif event.kind is FaultKind.DEGRADE:
            self.degrade_node(node, event.factor)
        else:
            self.activate_node(node)

    def crash_node(self, node: ClusterNode) -> int:
        """Kill a node: evacuate its queue, lose its in-flight work.

        Returns the number of queries reclaimed (evacuated + lost
        in flight); every one re-enters through :meth:`_route`.
        """
        node.crash()
        self.metrics.record_health(self, node)
        manager = node.manager
        # queued work never started; each in-flight attempt is lost and
        # ends ABORTED on the node.  Both re-enter as the same requests.
        reclaimed = manager.evacuate_queued()
        lost = manager.engine.running_queries()
        for query in lost:
            manager.restart(query, None)
        self.metrics.resubmissions += len(lost)
        reclaimed.extend(lost)
        for query in reclaimed:
            node.release(query)
            query.transition(QueryState.SUBMITTED)
            self._route(query)
        self.binding.sweep()
        return len(reclaimed)

    def activate_node(self, node: ClusterNode) -> None:
        node.activate()
        self.metrics.record_health(self, node)
        self.binding.on_capacity(node)

    def degrade_node(self, node: ClusterNode, factor: float) -> None:
        node.degrade(factor)
        self.metrics.record_health(self, node)

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

    def _notify(self, query: Query, refused_by: object = None) -> None:
        # a gate hears the exit of each request it counted: none it refused
        if self.admission is not None and self.admission is not refused_by:
            self.admission.notify_exit(query, self.metrics)
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
