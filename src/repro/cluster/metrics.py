"""Cluster-rollup metrics: per-node and aggregate views.

Built on the per-node streaming :class:`~repro.core.metrics` collectors
— nothing is double-counted or re-reduced: a rollup *is* a
:class:`~repro.core.metrics.WorkloadStats`, the node managers' entries
for one workload merged on demand, and reading it writes to no
collector.  The collector itself only stores what no node knows:
resubmission and cluster-rejection counts and the cluster tier's
decision record (cluster rejections, node health, faults);
placements are each node's ``placed_count``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.node import ClusterNode, NodeHealth
from repro.core.interfaces import ControlEvent, decisions_by
from repro.core.metrics import WorkloadStats
from repro.engine.query import Query
from repro.engine.simulator import Simulator


class ClusterMetrics:
    """Node rollup, dispatcher counters, and the front-door gate's context."""

    def __init__(self, sim: Simulator, nodes: Sequence[ClusterNode]) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        self.resubmissions = 0         # crash-lost work resubmitted
        self.cluster_rejections = 0    # refused at the cluster front end
        self.decisions: List[ControlEvent] = []

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # event recording (called by the dispatcher)
    # ------------------------------------------------------------------
    def record(
        self, emitter: object, action: str, query: Optional[Query] = None, detail: Any = None
    ) -> None:
        """Append one action taken by ``emitter`` to :attr:`decisions`."""
        self.decisions.append(ControlEvent.of(self.sim.now, emitter, action, query, detail))

    def record_health(self, emitter: object, node: ClusterNode) -> None:
        """A ``health`` event: the node's state after ``emitter`` changed
        its health or speed (what :meth:`timeline_lanes` overlays)."""
        detail = {"node": node.name, "health": node.health, "speed": node.speed_factor}
        self.record(emitter, "health", detail=detail)

    # ------------------------------------------------------------------
    # rollups (read node collectors on demand)
    # ------------------------------------------------------------------
    def workloads(self) -> List[str]:
        names = set()
        for node in self.nodes:
            names.update(node.manager.metrics.workloads())
        return sorted(names)

    def rollup(self, workload: str) -> WorkloadStats:
        """One workload's outcomes merged across all nodes, in node order."""
        return WorkloadStats.merged(
            (node.manager.metrics.stats_for(workload) for node in self.nodes),
            workload,
        )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def rollup_table(self, now: float) -> str:
        """The cluster-rollup table printed by the CLI and benches."""
        lines = [
            "CLUSTER ROLLUP "
            f"(t={now:.0f}s, {len(self.nodes)} nodes, "
            f"{sum(node.placed_count for node in self.nodes)} placements, "
            f"{self.resubmissions} crash resubmissions, "
            f"{self.cluster_rejections} cluster rejections)",
            f"{'workload':>12} {'done':>7} {'rej':>5} {'kill':>5} "
            f"{'rt_avg':>8} {'rt_p95':>8} {'qdelay':>8}",
        ]
        def fmt(value: Optional[float]) -> str:
            return f"{value:8.3f}" if value is not None else f"{'-':>8}"

        for workload in self.workloads():
            roll = self.rollup(workload)
            lines.append(
                f"{workload:>12} {roll.completions:>7} {roll.rejections:>5} "
                f"{roll.kills:>5} {fmt(roll.mean_response_time())} "
                f"{fmt(roll.percentile_response_time(95.0))} "
                f"{fmt(roll.mean_queue_delay())}"
            )
        lines.append(
            f"{'per-node':>12} "
            + "  ".join(f"{node.name}={node.placed_count}" for node in self.nodes)
        )
        return "\n".join(lines)

    def timeline_lanes(self, horizon: float, bins: int = 64) -> Dict[str, str]:
        """Per-node character lanes for the ASCII cluster timeline.

        Load shading comes from each node's monitor samples (running
        count vs. its MPL); health changes overlay crash (``x``)
        intervals.
        """
        ramp = " .:-=+*#"
        lanes: Dict[str, str] = {}
        width = max(horizon, 1e-9)
        health = decisions_by(self.decisions, action="health")
        for node in self.nodes:
            # load per bin from the node's periodic samples
            load = [0.0] * bins
            counts = [0] * bins
            for sample in node.manager.metrics.samples():
                index = min(bins - 1, int(sample.time / width * bins))
                load[index] += sample.running / max(node.mpl, 1)
                counts[index] += 1
            chars = []
            for index in range(bins):
                if counts[index]:
                    level = load[index] / counts[index]
                    chars.append(ramp[min(len(ramp) - 1, int(level * (len(ramp) - 1)))])
                else:
                    chars.append(" ")
            # overlay health intervals
            changes = [e for e in health if e.detail["node"] == node.name]
            for index, change in enumerate(changes):
                if change.detail["health"] is not NodeHealth.DOWN:
                    continue
                until = (
                    changes[index + 1].time if index + 1 < len(changes) else horizon
                )
                lo = min(bins - 1, int(change.time / width * bins))
                hi = min(bins, max(lo + 1, int(until / width * bins) + 1))
                for k in range(lo, hi):
                    chars[k] = "x"
            lanes[node.name] = "".join(chars)
        return lanes
