"""Elastic provisioning: grow and shrink the active node set.

The :class:`ElasticProvisioner` closes a feedback loop around the
cluster the same way §3.4's throttling controllers close one around a
single server — and it literally reuses those controllers
(:class:`~repro.control.controllers.StepController` by default, a
:class:`~repro.control.controllers.PIController` if you hand one in).
Each control period it measures a cluster-wide pressure signal
(normalized queue backlog, or SLA misses via ``signal="sla"``), feeds
the violation to the controller, maps the controller's [0, 1] output to
a target active-node count, then activates STANDBY spares or drains the
highest-numbered active nodes to meet it.  Drained nodes finish their
work and park as STANDBY, ready for the next scale-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.dispatcher import ClusterDispatcher
from repro.cluster.node import NodeHealth
from repro.control.controllers import PIController, StepController
from repro.errors import ConfigurationError


@dataclass
class ElasticProvisioner:
    """Queue-delay / SLA-miss driven node provisioning controller.

    Parameters
    ----------
    dispatcher:
        The cluster to scale.
    min_nodes, max_nodes:
        Bounds on the active (UP or DRAINING) node count; ``max_nodes``
        defaults to the cluster size.
    setpoint:
        Target pressure.  Pressure is ``outstanding work / (active
        nodes * per-node ceiling)`` for the default queue signal, or
        ``1 - mean SLA attainment`` for ``signal="sla"`` — both ~0 when
        comfortable and ≥ 1 when badly behind.
    controller:
        A Step or PI controller with output in [0, 1]; 0 maps to
        ``min_nodes`` and 1 to ``max_nodes``.
    period:
        Seconds between provisioning decisions.
    """

    dispatcher: ClusterDispatcher
    min_nodes: int = 1
    max_nodes: Optional[int] = None
    setpoint: float = 0.5
    controller: Optional[object] = None
    period: float = 5.0
    signal: str = "queue"

    def __post_init__(self) -> None:
        total = len(self.dispatcher.nodes)
        if self.max_nodes is None:
            self.max_nodes = total
        if not 1 <= self.min_nodes <= self.max_nodes <= total:
            raise ConfigurationError(
                f"need 1 <= min_nodes <= max_nodes <= {total}, got "
                f"[{self.min_nodes}, {self.max_nodes}]"
            )
        if self.signal not in ("queue", "sla"):
            raise ConfigurationError(f"unknown signal {self.signal!r}")
        if self.controller is None:
            self.controller = StepController(initial_step=0.34, min_step=0.05)
        if not isinstance(self.controller, (StepController, PIController)):
            raise ConfigurationError(
                "controller must be a StepController or PIController"
            )
        self._proc = self.dispatcher.sim.schedule_periodic(
            self.period, self.tick, label="cluster:elastic"
        )

    # ------------------------------------------------------------------
    def pressure(self) -> float:
        """The cluster-wide load signal the controller regulates."""
        if self.signal == "sla":
            misses: List[float] = []
            now = self.dispatcher.sim.now
            for node in self.dispatcher.nodes:
                attainment = node.manager.metrics.attainment(
                    self.dispatcher.slas, now
                )
                misses.extend(1.0 - met for met in attainment.values())
            return sum(misses) / len(misses) if misses else 0.0
        active = [
            n
            for n in self.dispatcher.nodes
            if n.health in (NodeHealth.UP, NodeHealth.DRAINING)
        ]
        ceiling = sum(max(n.max_outstanding, 1) for n in active)
        if ceiling <= 0:
            return 1.0
        return self.dispatcher.outstanding_work() / ceiling

    def tick(self) -> None:
        """One provisioning decision (also called by the periodic loop),
        recorded as an ``activate`` / ``drain`` / ``hold`` event."""
        pressure = self.pressure()
        if isinstance(self.controller, StepController):
            fraction = self.controller.update(pressure - self.setpoint)
        else:  # PIController: setpoint lives inside the controller
            fraction = self.controller.update(pressure)
        target = self.min_nodes + round(fraction * (self.max_nodes - self.min_nodes))
        active = self.active_count()
        action, nodes = "hold", ()
        if active < target:
            action, nodes = "activate", self._scale_up(target - active)
        elif active > target:
            action, nodes = "drain", self._scale_down(active - target)
        self._park_drained()
        detail = {"pressure": pressure, "target_active": target, "nodes": nodes}
        self.dispatcher.metrics.record(self.dispatcher.sim.now, self, action, detail=detail)

    # ------------------------------------------------------------------
    def _scale_up(self, count: int) -> Tuple[str, ...]:
        activated: List[str] = []
        for node in self.dispatcher.nodes:
            if len(activated) >= count:
                break
            if node.health in (NodeHealth.STANDBY, NodeHealth.DRAINING):
                self.dispatcher.activate_node(node)
                activated.append(node.name)
        return tuple(activated)

    def _scale_down(self, count: int) -> Tuple[str, ...]:
        drained: List[str] = []
        # drain from the tail so the stable head of the cluster persists
        for node in reversed(self.dispatcher.nodes):
            if len(drained) >= count:
                break
            if node.health is NodeHealth.UP:
                self.dispatcher.drain_node(node)
                drained.append(node.name)
        return tuple(drained)

    def _park_drained(self) -> None:
        """Drained nodes that finished their work become standby spares."""
        for node in self.dispatcher.nodes:
            if node.health is NodeHealth.DRAINING and node.outstanding_work == 0:
                node.park()
                self.dispatcher.metrics.record_health(self.dispatcher.sim.now, self, node)

    def active_count(self) -> int:
        return sum(
            1 for n in self.dispatcher.nodes if n.health is NodeHealth.UP
        )

    def shutdown(self) -> None:
        self._proc.stop()
