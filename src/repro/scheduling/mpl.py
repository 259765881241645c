"""Dynamic multiprogramming-level (MPL) determination (paper §3.3).

"Request scheduling aims to dynamically set MPLs ... to decide which
and how many requests can be sent to the database to execute
concurrently."  Two surveyed families:

* **analytical** (:class:`QueueingModelMpl`) — queueing-network-style
  bounds [35][40][69]: saturate the bottleneck device without
  oversubscribing memory.  With per-request demand vector ``(cpu, io,
  mem)`` the bottleneck saturates at ``N* = total demand / bottleneck
  demand`` concurrent requests, and memory fits ``M / mem`` requests;
  the model takes the min (times a safety factor).
* **feedback** (:class:`FeedbackMpl`) — model-free hill climbing on
  observed throughput, the control-theoretic approach of [17][28]
  applied to the MPL knob (same algorithm as Heiss & Wagner admission,
  but living at the scheduler's dispatch point).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from repro.core.interfaces import MplController
from repro.core.manager import WorkloadManager
from repro.engine.query import Query
from repro.errors import ConfigurationError


class QueueingModelMpl(MplController):
    """Analytical MPL from demand vectors of the current work mix.

    The estimate is refreshed on every call from the running + queued
    queries' *estimated* costs (the scheduler never sees true costs):

    * bottleneck bound: ``N_rate = sum_r capacity_r / demand_bottleneck``
      where the per-request bottleneck demand uses mean estimated costs;
    * memory bound: ``N_mem = memory_capacity / mean estimated memory``.

    ``utilization_target`` scales the rate bound (running right at 100%
    leaves no slack for estimate error); ``floor``/``ceiling`` clamp.
    """

    def __init__(
        self,
        utilization_target: float = 1.0,
        memory_headroom: float = 1.0,
        floor: int = 1,
        ceiling: int = 500,
    ) -> None:
        if not 0 < utilization_target <= 2.0:
            raise ValueError("utilization_target must be in (0, 2]")
        self.utilization_target = utilization_target
        self.memory_headroom = memory_headroom
        self.floor = floor
        self.ceiling = ceiling

    def _mean_costs(self, queries: List[Query]) -> Tuple[float, float, float]:
        if not queries:
            return 0.0, 0.0, 0.0
        n = len(queries)
        cpu = sum(q.estimated_cost.cpu_seconds for q in queries) / n
        io = sum(q.estimated_cost.io_seconds for q in queries) / n
        mem = sum(q.estimated_cost.memory_mb for q in queries) / n
        return cpu, io, mem

    def current_limit(self, context: WorkloadManager) -> Optional[int]:
        sample = (
            context.engine.running_queries()
            + context.scheduler.queued_queries()
        )
        cpu, io, mem = self._mean_costs(sample)
        if cpu <= 0 and io <= 0:
            return self.ceiling
        machine = context.engine.machine
        bottleneck = max(cpu / machine.cpu_capacity, io / machine.disk_capacity)
        duration = max(cpu, io)
        if bottleneck <= 0:
            rate_bound = self.ceiling
        else:
            # N requests of duration `duration` each put `cpu` (resp `io`)
            # device-seconds on the machine per `duration` seconds; the
            # bottleneck saturates at duration/bottleneck-demand-share.
            rate_bound = self.utilization_target * duration / bottleneck
        if mem > 0:
            mem_bound = (
                self.memory_headroom * machine.memory_mb / mem
            )
        else:
            mem_bound = self.ceiling
        limit = int(min(rate_bound, mem_bound))
        return max(self.floor, min(self.ceiling, limit))


class FeedbackMpl(MplController):
    """Hill-climbing MPL from observed completion throughput.

    The owner calls :meth:`notify_completion` per finished request;
    :meth:`attach` arms the periodic adjustment.  Each limit is recorded as a
    ``set_mpl`` event of :attr:`emitter` (an admission gate owning a climber).
    """

    def __init__(
        self,
        initial: int = 8,
        minimum: int = 1,
        maximum: int = 200,
        interval: float = 5.0,
        step: int = 2,
        hysteresis: float = 0.02,
    ) -> None:
        if not minimum <= initial <= maximum:
            raise ConfigurationError("need minimum <= initial <= maximum")
        if interval <= 0 or step < 1:
            raise ConfigurationError("interval must be > 0 and step >= 1")
        self.limit = initial
        self.minimum = minimum
        self.maximum = maximum
        self.interval = interval
        self.step = step
        self.hysteresis = hysteresis
        self._direction = 1
        self._completions = 0
        self._last_throughput: Optional[float] = None
        self.emitter: object = self

    def attach(self, context: WorkloadManager) -> None:
        context.sim.schedule_periodic(
            self.interval, partial(self._adjust, context), label="feedback-mpl"
        )
        context.record(self.emitter, "set_mpl", detail=self.limit)

    def notify_completion(self) -> None:
        self._completions += 1

    def current_limit(self, context: WorkloadManager) -> Optional[int]:
        return self.limit

    def _adjust(self, context: WorkloadManager) -> None:
        throughput = self._completions / self.interval
        self._completions = 0
        if self._last_throughput is not None:
            reference = max(self._last_throughput, 1e-9)
            if (throughput - self._last_throughput) / reference < -self.hysteresis:
                self._direction = -self._direction
        self._last_throughput = throughput
        self.limit = int(
            min(self.maximum, max(self.minimum, self.limit + self._direction * self.step))
        )
        context.record(self.emitter, "set_mpl", detail=self.limit)
