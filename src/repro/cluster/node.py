"""A cluster node: one simulated DBMS server behind the dispatcher.

A :class:`ClusterNode` wraps a full single-server stack — execution
engine plus :class:`~repro.core.manager.WorkloadManager` — built on the
cluster's own simulator, so all nodes advance on one clock.  The
engine's lock stream is the only random stream a node draws; by default
a node names its own, ``node:<name>/locks``, so its draws are
seed-stable and adding a node perturbs no other node.  A node built
with ``lock_stream="locks"`` and no ``max_outstanding`` ceiling is the
single server it wraps: :func:`repro.scenarios.arm_scenario` builds a
cluster of one that way.

Each node carries:

* a capacity envelope (the standard :data:`NODE_MACHINE` with the
  default engine configuration but for its lock stream, a node-local
  MPL and a ``max_outstanding`` ceiling the dispatcher respects);
* a health state (:class:`NodeHealth`) driving placement eligibility —
  UP nodes take placements, DOWN nodes are dead;
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
from repro.engine.executor import EngineConfig
from repro.engine.query import Query
from repro.engine.resources import MachineSpec, ResourceKind
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError

#: The standard machine: every cluster node, the single-server
#: benchmarks box and the ``demo`` CLI run on it.
NODE_MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)

#: Seconds between two heartbeats of a node.
HEARTBEAT_PERIOD = 1.0


class NodeHealth(enum.Enum):
    """Placement-relevant liveness of a node."""

    UP = "up"               # healthy, taking placements
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
        The cluster's shared simulator; the node's manager runs on it.
    name:
        Unique node name.
    mpl:
        Node-local multiprogramming limit (FCFS dispatch ceiling).
    max_outstanding:
        Saturation ceiling the dispatcher checks before placing: a node
        with ``outstanding_work >= max_outstanding`` is not eligible.
        Defaults to ``4 * mpl`` (a bounded node-local backlog);
        ``math.inf`` sets no ceiling, so the dispatcher holds nothing
        back from the node's scheduler.
    scheduler, admission:
        The node manager's stages (default: a FIFO ``WaitQueue(mpl)``
        and no admission control).  A request the node's admission
        controller rejects ends ``REJECTED``; the cluster does not
        retry it elsewhere.
    speed_factor:
        Base service speed in (0, 1]; values below 1 model a
        permanently slower machine (heterogeneous clusters).  It is the
        node engine's speed ceiling, so every query the node runs, from
        its first instant, runs at most this fast; runtime slowdowns
        (:meth:`degrade`) scale it.
    lock_stream:
        The simulator stream the node's engine draws lock items from;
        defaults to ``node:<name>/locks``, one stream per node.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mpl: int = 12,
        max_outstanding: Optional[float] = None,
        scheduler: Optional[Scheduler] = None,
        admission: Optional[AdmissionController] = None,
        speed_factor: float = 1.0,
        lock_stream: Optional[str] = None,
    ) -> None:
        if mpl < 1:
            raise ConfigurationError(f"node mpl must be >= 1, got {mpl}")
        if not 0.0 < speed_factor <= 1.0:
            raise ConfigurationError(
                f"speed_factor must be in (0,1], got {speed_factor}"
            )
        self.name = name
        self.sim = sim
        self.mpl = mpl
        self.max_outstanding = 4 * mpl if max_outstanding is None else max_outstanding
        self.manager = WorkloadManager(
            sim,
            machine=NODE_MACHINE,
            engine_config=EngineConfig(
                lock_stream=f"node:{name}/locks" if lock_stream is None else lock_stream
            ),
            scheduler=scheduler or WaitQueue(mpl),
            admission=admission,
        )
        # One node variable per fault kind: crash and recover move
        # ``health``; degrade moves ``speed_factor`` (base × degradation).
        self.health = NodeHealth.UP
        self.base_speed_factor = speed_factor
        self.speed_factor = speed_factor
        self.manager.engine.set_speed(speed_factor)
        self.heartbeats: List[NodeHeartbeat] = []
        self.placed_count = 0
        self._outstanding_est: Dict[int, float] = {}
        self._outstanding_est_total = 0.0
        self.manager.add_completion_listener(self._note_exit)
        self._heartbeat_proc = self.sim.schedule_periodic(
            HEARTBEAT_PERIOD, self.publish_heartbeat, label=f"heartbeat:{name}"
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
        return (NODE_MACHINE.cpu_capacity + NODE_MACHINE.disk_capacity) * scale

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
        them again (the :mod:`repro.cluster.ranked` contract).  A ping
        computes nothing and does not promise that anything changed."""
        self._change_listeners.append(listener)

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
        # no ping: the manager pings after an enqueue or a delay, and a
        # rejection through _note_exit, each before any read of the node
        return self.manager.submit(query)

    def _note_exit(self, query: Query) -> None:
        est = self._outstanding_est.pop(query.query_id, None)
        if est is not None:
            # the running sum drifts under +=/-=: a node with nothing
            # placed reads exactly no estimated work
            if self._outstanding_est:
                self._outstanding_est_total -= est
            else:
                self._outstanding_est_total = 0.0
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

    def activate(self) -> None:
        """Bring a crashed node back into service; an UP node stays
        as it is."""
        was_stopped = self.health is NodeHealth.DOWN
        self.health = NodeHealth.UP
        if was_stopped:
            self.manager.resume_ticks()
            self._heartbeat_proc = self.sim.schedule_periodic(
                HEARTBEAT_PERIOD,
                self.publish_heartbeat,
                label=f"heartbeat:{self.name}",
            )
        self._changed()

    def degrade(self, factor: float) -> None:
        """Run the node at ``factor`` of its base speed (fault injection);
        ``factor=1.0`` ends a degradation.

        Kept in any health state: health and speed are separate
        variables, so a node that crashes and recovers inside a degrade
        window comes back degraded.  Running work changes speed at this
        instant; a DOWN node runs none, so nothing is scheduled.
        """
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(f"degrade factor must be in (0,1], got {factor}")
        self.speed_factor = self.base_speed_factor * factor
        self._changed()
        self.manager.engine.set_speed(self.speed_factor)

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
