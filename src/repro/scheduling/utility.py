"""The Niu et al. query scheduler [60] (paper §4.2.1, Table 5).

The scheduler intercepts arriving queries, classifies them by service
class (workload), and periodically generates a *scheduling plan*: a
cost limit per service class — "the allowable total cost of all
concurrently running queries belonging to the service class".  Utility
functions estimate how effective a candidate cost limit will be in
achieving each class's performance goal; an analytical model predicts
the performance a plan would deliver; the plan maximizing total utility
is applied.  Queued queries of a class are released while the class's
in-flight estimated cost stays below its limit.

Concrete model used here (§4.2.1's structure with explicit math):

* demand rate of class ``c``: ``rho_c = lambda_c * w_c`` (measured
  arrival rate × mean estimated work) in device-seconds per second;
* a plan allocates the machine's work capacity ``C`` (total
  device-units) among classes; the analytical model predicts a class's
  mean response time as ``w_c / min(1, alloc_c / rho_c)`` scaled by the
  unloaded duration — i.e. a fluid model: service dilates by the
  fraction of demanded capacity granted;
* per-class utility: ``importance_c * min(1, goal_c / predicted_rt_c)``
  — 1 while the goal is met, falling as the class misses it;
* the plan is found by greedy marginal-utility water-filling over
  capacity quanta (the objective-function maximization of [60]);
* cost limits: ``limit_c = alloc_c * outstanding_window`` device-seconds
  of estimated work allowed in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List

from repro.core.classify import Feature
from repro.core.interfaces import PartitionedQueue, Scheduler
from repro.core.manager import WorkloadManager
from repro.engine.query import Query

#: Utility saturates here: no extra utility for beating the goal.
_UTILITY_CAP = 1.0


@dataclass
class ServiceClassConfig:
    """Goal and importance of one service class (workload)."""

    workload: str
    response_time_goal: float
    importance: int = 1

    def __post_init__(self) -> None:
        if self.response_time_goal <= 0:
            raise ValueError("response_time_goal must be positive")
        if self.importance < 1:
            raise ValueError("importance must be >= 1")


@dataclass
class _ClassState:
    config: ServiceClassConfig
    arrivals: int = 0
    total_estimated_work: float = 0.0
    cost_limit: float = float("inf")
    allocation: float = 0.0

    def mean_work(self) -> float:
        if self.arrivals == 0:
            return 1.0
        return max(self.total_estimated_work / self.arrivals, 1e-6)


class UtilityScheduler(Scheduler):
    """Cost-limit scheduling plans maximizing total utility [60]."""

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_ARRIVAL,
            Feature.ACTS_BEFORE_EXECUTION,
            Feature.USES_THRESHOLDS,
            Feature.THRESHOLD_ON_SYSTEM_PARAMETER,
            Feature.DETERMINES_EXECUTION_ORDER,
            Feature.MANAGES_WAIT_QUEUES,
            Feature.USES_UTILITY_FUNCTIONS,
            Feature.PREDICTS_MPL,
        }
    )

    def __init__(
        self,
        service_classes: List[ServiceClassConfig],
        replan_interval: float = 5.0,
        outstanding_window: float = 8.0,
        rate_window: float = 30.0,
        quanta: int = 200,
    ) -> None:
        if not service_classes:
            raise ValueError("need at least one service class")
        self.replan_interval = replan_interval
        self.outstanding_window = outstanding_window
        self.rate_window = rate_window
        self.quanta = quanta
        self._classes: Dict[str, _ClassState] = {
            cfg.workload: _ClassState(config=cfg) for cfg in service_classes
        }
        self._default = _ClassState(
            config=ServiceClassConfig(
                workload="<unassigned>", response_time_goal=60.0, importance=1
            )
        )
        self._arrival_times: Dict[str, List[float]] = {
            name: [] for name in self._classes
        }
        # one FIFO bucket per service class, in _all_states() order
        self.queue = PartitionedQueue(self._bucket)
        for state in self._all_states():
            self.queue.buckets[state.config.workload] = []
        self.plans_generated = 0

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def attach(self, context: WorkloadManager) -> None:
        context.sim.schedule_periodic(
            self.replan_interval,
            partial(self._replan, context),
            start=0.0,
            label="utility-scheduler:replan",
        )

    def _state_for(self, query: Query) -> _ClassState:
        if query.workload_name in self._classes:
            return self._classes[query.workload_name]
        return self._default

    def _bucket(self, query: Query) -> str:
        return self._state_for(query).config.workload

    def enqueue(self, query: Query, context: WorkloadManager) -> None:
        state = self._state_for(query)
        self.queue.push(query)
        state.arrivals += 1
        state.total_estimated_work += query.estimated_cost.total_work
        times = self._arrival_times.setdefault(state.config.workload, [])
        times.append(context.now)

    def next_batch(self, context: WorkloadManager) -> List[Query]:
        queue = self.queue
        in_flight = self._in_flight_costs(context)
        batch: List[Query] = []
        states = sorted(
            self._all_states(),
            key=lambda s: s.config.importance,
            reverse=True,
        )
        progressed = True
        while progressed:
            progressed = False
            for state in states:
                name = state.config.workload
                heap = queue.buckets[name]
                if not heap:
                    continue
                cost = heap[0][2].estimated_cost.total_work
                if in_flight.get(name, 0.0) + cost <= state.cost_limit:
                    batch.append(queue.pop(name))
                    in_flight[name] = in_flight.get(name, 0.0) + cost
                    progressed = True
        if not batch and context.engine.running_count == 0:
            # Work conservation: never idle the machine while work waits.
            for state in states:
                name = state.config.workload
                if queue.buckets[name]:
                    batch.append(queue.pop(name))
                    break
        return batch

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _all_states(self) -> List[_ClassState]:
        return list(self._classes.values()) + [self._default]

    def _in_flight_costs(self, context: WorkloadManager) -> Dict[str, float]:
        costs: Dict[str, float] = {}
        for query in context.engine.running_queries():
            name = (
                query.workload_name
                if query.workload_name in self._classes
                else "<unassigned>"
            )
            costs[name] = costs.get(name, 0.0) + query.estimated_cost.total_work
        return costs

    def _arrival_rate(self, workload: str, now: float) -> float:
        times = self._arrival_times.get(workload, [])
        cutoff = now - self.rate_window
        recent = [t for t in times if t >= cutoff]
        self._arrival_times[workload] = recent
        # clamp the divisor away from zero so a burst at t=0 does not
        # read as an infinite arrival rate
        window = min(self.rate_window, max(now, 1.0))
        return len(recent) / window

    def predicted_response_time(
        self, state: _ClassState, allocation: float, now: float
    ) -> float:
        """Analytical model: service dilation by granted capacity share."""
        rate = self._arrival_rate(state.config.workload, now)
        mean_work = state.mean_work()
        demand = rate * mean_work
        if demand <= 1e-9:
            return mean_work / 2.0  # unloaded: nominal duration-ish
        granted = min(1.0, allocation / demand)
        if granted <= 1e-9:
            return float("inf")
        return (mean_work / 2.0) / granted

    def _utility(self, state: _ClassState, allocation: float, now: float) -> float:
        predicted = self.predicted_response_time(state, allocation, now)
        if predicted <= 0:
            return state.config.importance * _UTILITY_CAP
        ratio = state.config.response_time_goal / predicted
        return state.config.importance * min(_UTILITY_CAP, ratio)

    def _replan(self, context: WorkloadManager) -> None:
        machine = context.engine.machine
        capacity = machine.cpu_capacity + machine.disk_capacity
        quantum = capacity / self.quanta
        allocations = {s.config.workload: 0.0 for s in self._all_states()}
        now = context.now
        states = self._all_states()
        for _ in range(self.quanta):
            best_state = None
            best_gain = 0.0
            for state in states:
                name = state.config.workload
                gain = self._utility(
                    state, allocations[name] + quantum, now
                ) - self._utility(state, allocations[name], now)
                if gain > best_gain + 1e-12:
                    best_gain, best_state = gain, state
            if best_state is None:
                break
            allocations[best_state.config.workload] += quantum
        leftover = capacity - sum(allocations.values())
        if leftover > 0:
            # spread slack by importance so spare capacity is not wasted
            total_importance = sum(s.config.importance for s in states)
            for state in states:
                allocations[state.config.workload] += (
                    leftover * state.config.importance / total_importance
                )
        for state in states:
            name = state.config.workload
            state.allocation = allocations[name]
            state.cost_limit = allocations[name] * self.outstanding_window
        self.plans_generated += 1
        context.record(
            self, "plan", detail={n: round(a, 3) for n, a in allocations.items()}
        )
        context.pump()
