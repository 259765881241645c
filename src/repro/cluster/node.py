"""A cluster node: one simulated DBMS server behind the dispatcher.

A :class:`ClusterNode` wraps a full single-server stack — execution
engine plus :class:`~repro.core.manager.WorkloadManager` — on a
*scoped* view of the shared simulator, so every node draws from its own
seed-stable RNG streams while all nodes advance on one clock
(:meth:`repro.engine.simulator.Simulator.scoped`).

Each node carries:

* a capacity envelope (its machine spec, a node-local MPL and an
  ``max_outstanding`` admission ceiling the dispatcher respects);
* a health state (:class:`NodeHealth`) driving placement eligibility —
  DRAINING nodes finish their work but take no new placements, DOWN
  nodes are dead;
* a DIRAC-style heartbeat: a periodic snapshot of MPL, queue depth,
  utilization and per-class velocity published into the shared clock,
  the information a matcher/dispatcher would pull before placing work.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.interfaces import AdmissionController, Scheduler
from repro.core.manager import WaitQueue, WorkloadManager
from repro.core.sla import SLASet
from repro.engine.executor import EngineConfig
from repro.engine.query import Query
from repro.engine.resources import MachineSpec, ResourceKind
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError

#: The standard per-node machine: a quarter of the single-server
#: ``benchmarks`` box, so a 4-node cluster matches the classic setup.
NODE_MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)


class NodeHealth(enum.Enum):
    """Placement-relevant liveness of a node."""

    UP = "up"               # healthy, taking placements
    DRAINING = "draining"   # finishes outstanding work, no new placements
    DOWN = "down"           # crashed: in-flight work is lost

    @property
    def accepts_placements(self) -> bool:
        return self is NodeHealth.UP


@dataclass(frozen=True)
class NodeHeartbeat:
    """One published node snapshot (the DIRAC pilot's status report)."""

    time: float
    node: str
    health: NodeHealth
    running: int                 # current MPL in use
    queued: int                  # node-local wait-queue depth
    cpu_utilization: float
    disk_utilization: float
    memory_pressure: float
    outstanding_estimated_work: float   # device-seconds promised to this node
    class_velocities: Tuple[Tuple[str, float], ...]  # per-workload mean velocity


class ClusterNode:
    """One simulated DBMS engine + manager inside a cluster.

    Parameters
    ----------
    sim:
        The *shared* simulator; the node builds its own scoped view.
    name:
        Unique node name (also the RNG scope).
    machine, engine_config:
        Per-node capacity, default :data:`NODE_MACHINE`.
    mpl:
        Node-local multiprogramming limit (FCFS dispatch ceiling).
    max_outstanding:
        Saturation ceiling the dispatcher checks before placing: a node
        with ``outstanding_work >= max_outstanding`` is not eligible.
        Defaults to ``4 * mpl`` (a bounded node-local backlog).
    speed_factor:
        Initial service speed in (0, 1]; values below 1 model a
        permanently slower machine (heterogeneous clusters).  Runtime
        slowdowns use :meth:`degrade` / :meth:`restore_speed`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        machine: Optional[MachineSpec] = None,
        engine_config: Optional[EngineConfig] = None,
        mpl: int = 12,
        max_outstanding: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        admission: Optional[AdmissionController] = None,
        slas: Optional[SLASet] = None,
        control_period: float = 1.0,
        heartbeat_period: float = 1.0,
        speed_factor: float = 1.0,
    ) -> None:
        if mpl < 1:
            raise ConfigurationError(f"node mpl must be >= 1, got {mpl}")
        if not 0.0 < speed_factor <= 1.0:
            raise ConfigurationError(
                f"speed_factor must be in (0,1], got {speed_factor}"
            )
        self.name = name
        self.sim = sim
        self.scope = sim.scoped(f"node:{name}")
        self.mpl = mpl
        self.max_outstanding = 4 * mpl if max_outstanding is None else max_outstanding
        self.machine = machine or NODE_MACHINE
        self.manager = WorkloadManager(
            self.scope,
            machine=self.machine,
            engine_config=engine_config,
            scheduler=scheduler or WaitQueue(mpl),
            admission=admission,
            slas=slas,
            control_period=control_period,
        )
        self.health = NodeHealth.UP
        self.base_speed_factor = speed_factor   # what restore/activate return to
        self.speed_factor = speed_factor        # < 1.0 models a slow node
        self.heartbeat_period = heartbeat_period
        self.heartbeats: List[NodeHeartbeat] = []
        self.placed_count = 0
        self._outstanding_est: Dict[int, float] = {}
        self._outstanding_est_total = 0.0
        self.manager.add_completion_listener(self._note_exit)
        self._heartbeat_proc = self.scope.schedule_periodic(
            heartbeat_period, self.publish_heartbeat, label=f"heartbeat:{name}"
        )
        # on_change: the manager pings when running or queued may have
        # moved; health, speed and est-work mutations call _changed below
        self._change_listeners: List[Callable[["ClusterNode"], None]] = []
        self.manager.add_backlog_listener(self._changed)

    # ------------------------------------------------------------------
    # capacity and load introspection (what placement policies read)
    # ------------------------------------------------------------------
    @property
    def running(self) -> int:
        return self.manager.running_count

    @property
    def queued(self) -> int:
        return self.manager.queued_count

    @property
    def outstanding_work(self) -> int:
        return self.manager.outstanding_work()

    @property
    def outstanding_estimated_work(self) -> float:
        """Device-seconds of estimated work placed here and not yet done."""
        return self._outstanding_est_total

    @property
    def rate_capacity(self) -> float:
        """Total device-seconds of service per second this node delivers."""
        scale = self.speed_factor if self.speed_factor > 0 else 1e-9
        return (self.machine.cpu_capacity + self.machine.disk_capacity) * scale

    @property
    def accepting(self) -> bool:
        """Eligible for new placements right now."""
        return (
            self.health.accepts_placements
            and self.outstanding_work < self.max_outstanding
        )

    def on_change(self, listener: Callable[["ClusterNode"], None]) -> None:
        """Called after every event that may move :attr:`health`,
        :attr:`running`, :attr:`queued`, :attr:`speed_factor` or
        :attr:`outstanding_estimated_work`, before anything can read
        them again (the :mod:`repro.cluster.ranked` contract); a ping
        does not promise that anything changed."""
        self._change_listeners.append(listener)

    def on_accepting_change(self, listener: Callable[["ClusterNode"], None]) -> None:
        """:meth:`on_change` filtered to flips of :attr:`accepting`."""
        last = self.accepting

        def on_edge(node: "ClusterNode") -> None:
            nonlocal last
            current = node.accepting
            if current != last:
                last = current
                listener(node)

        self.on_change(on_edge)

    def _changed(self) -> None:
        for listener in self._change_listeners:
            listener(self)

    # ------------------------------------------------------------------
    # placement-side intake
    # ------------------------------------------------------------------
    def submit(self, query: Query):
        """Accept a placement from the dispatcher."""
        self.placed_count += 1
        est = query.estimated_cost.total_work
        self._outstanding_est[query.query_id] = est
        self._outstanding_est_total += est
        self._changed()
        decision = self.manager.submit(query)
        if self.speed_factor < 1.0:
            self._enforce_speed()
        return decision

    def _note_exit(self, query: Query) -> None:
        est = self._outstanding_est.pop(query.query_id, None)
        if est is not None:
            self._outstanding_est_total -= est
            self._changed()

    def release(self, query: Query) -> None:
        """Forget a query the dispatcher reclaimed (evacuation, loss)."""
        self._note_exit(query)

    # ------------------------------------------------------------------
    # health transitions
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Mark the node dead; the dispatcher reclaims its work."""
        self.health = NodeHealth.DOWN
        self.manager.shutdown()
        self._heartbeat_proc.stop()
        self._changed()

    def drain(self) -> None:
        """Stop taking placements; outstanding work runs to completion."""
        if self.health is NodeHealth.UP:
            self.health = NodeHealth.DRAINING
            self._changed()

    def activate(self) -> None:
        """Bring a DRAINING or recovered node (back) into service."""
        was_stopped = self.health is NodeHealth.DOWN
        self.health = NodeHealth.UP
        self.speed_factor = self.base_speed_factor
        if was_stopped:
            self.manager.resume_ticks()
            self._heartbeat_proc = self.scope.schedule_periodic(
                self.heartbeat_period,
                self.publish_heartbeat,
                label=f"heartbeat:{self.name}",
            )
        self._changed()

    def degrade(self, factor: float) -> None:
        """Slow the node to ``factor`` of full speed (fault injection).

        On a DOWN node this is a documented **no-op**: the
        node's manager is shut down (throttling its engine would touch
        a dead server), it holds no placements a slowdown could affect,
        and :meth:`activate` resets speed anyway.  Chaos plans may
        therefore race a degrade against a crash without blowing up the
        run.  DRAINING nodes still run work, so they do degrade.
        """
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(f"degrade factor must be in (0,1], got {factor}")
        if not self.serviceable:
            return
        self.speed_factor = factor
        self._changed()
        self._enforce_speed()

    def restore_speed(self) -> None:
        """Undo :meth:`degrade` (no-op on a DOWN node, like degrade)."""
        if not self.serviceable:
            return
        self.speed_factor = self.base_speed_factor
        self._changed()
        self._enforce_speed()

    @property
    def serviceable(self) -> bool:
        """True while the node's manager is live (UP or DRAINING).

        A DOWN node has a shut-down manager: speed changes against it
        are no-ops by contract.
        """
        return self.health in (NodeHealth.UP, NodeHealth.DRAINING)

    def _enforce_speed(self) -> None:
        engine = self.manager.engine
        with engine.reallocation_batch():
            for query_id in engine.running_ids():
                if engine.throttle_of(query_id) != self.speed_factor:
                    engine.set_throttle(query_id, self.speed_factor)

    # ------------------------------------------------------------------
    # heartbeat
    # ------------------------------------------------------------------
    def snapshot(self) -> NodeHeartbeat:
        """Build (without publishing) the current heartbeat."""
        engine = self.manager.engine
        metrics = self.manager.metrics
        velocities = []
        for workload in sorted(metrics.workloads()):
            velocity = metrics.stats_for(workload).mean_velocity()
            if velocity is not None:
                velocities.append((workload, velocity))
        return NodeHeartbeat(
            time=self.sim.now,
            node=self.name,
            health=self.health,
            running=self.running,
            queued=self.queued,
            cpu_utilization=engine.utilization(ResourceKind.CPU),
            disk_utilization=engine.utilization(ResourceKind.DISK),
            memory_pressure=engine.memory_pressure(),
            outstanding_estimated_work=self.outstanding_estimated_work,
            class_velocities=tuple(velocities),
        )

    def publish_heartbeat(self) -> NodeHeartbeat:
        """Publish a snapshot into the shared clock (periodic)."""
        beat = self.snapshot()
        self.heartbeats.append(beat)
        if self.speed_factor < 1.0:
            # a degraded node re-asserts its slowdown on work started
            # since the last beat (new placements run full-speed for at
            # most one heartbeat period otherwise)
            self._enforce_speed()
        return beat

    @property
    def last_heartbeat(self) -> Optional[NodeHeartbeat]:
        return self.heartbeats[-1] if self.heartbeats else None

    def shutdown(self) -> None:
        """Stop periodic processes so the simulator can drain."""
        self.manager.shutdown()
        self._heartbeat_proc.stop()

    def __repr__(self) -> str:
        return (
            f"ClusterNode({self.name!r}, {self.health.value}, "
            f"run={self.running}, q={self.queued}, "
            f"est={self.outstanding_estimated_work:.1f}s)"
        )
