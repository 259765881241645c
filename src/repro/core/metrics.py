"""Performance-metric collection for workloads and the system.

Monitoring is the third stage of every surveyed facility (DB2's
*monitoring* stage, SQL Server's performance counters, Teradata
Manager's dashboards).  The :class:`MetricsCollector` is the library's
equivalent: it accumulates per-workload outcome statistics (response
times, throughput, velocity, rejections, kills, SLA attainment inputs)
and time-stamped system samples (utilization, memory pressure, conflict
ratio) that indicator-based controls consume.

:class:`WorkloadStats` is the only outcome aggregate: a collector holds
one per workload, a cluster rollup is :meth:`WorkloadStats.merged`
over the nodes' and a query log, a real DBMS run's included, folds into
one with :meth:`WorkloadStats.from_log` — same type, same read methods.
The collector observes: only ``record_*`` changes it; ``stats_for``,
``evaluate_sla``, ``attainment`` and ``summary_line`` leave it and its
digest untouched.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Iterable, List, Mapping, Optional

import numpy as np

from repro.core.sla import ObjectiveKind, ServiceLevelAgreement, SLASet
from repro.engine.query import Query, QueryState
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.traces import QueryLogRecord


@dataclass
class WorkloadStats:
    """Accumulated outcomes for one workload.

    The outcome series are **append-only**: the engine only ever adds
    outcomes, never edits history.  That invariant is what makes the
    streaming accessors cheap — numpy views and reduced statistics are
    cached keyed on series length, so repeated reads between
    completions are O(1), and every cached value is *recomputed* (never
    incrementally updated) when the series grows.  Recomputing keeps
    results bit-identical to the naive compute-on-every-read: an
    incremental running mean would drift from numpy's pairwise
    summation by ulps and break seeded reproducibility.
    """

    workload: str
    completions: int = 0
    rejections: int = 0
    kills: int = 0
    aborts: int = 0
    suspensions: int = 0
    response_times: List[float] = field(default_factory=list)
    queue_delays: List[float] = field(default_factory=list)
    velocities: List[float] = field(default_factory=list)
    completion_times: List[float] = field(default_factory=list)  # non-decreasing
    _cache: Dict[Hashable, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def merged(cls, parts: Iterable[WorkloadStats], workload: str) -> WorkloadStats:
        """``parts`` (one workload on each node of a cluster) as one
        aggregate: counters summed, each series concatenated in the
        order given, so a statistic of the merge is that statistic of
        the concatenation; ``completion_times`` sorted, so it stays
        non-decreasing for :meth:`throughput`."""
        out = cls(workload=workload)
        for part in parts:
            out.completions += part.completions
            out.rejections += part.rejections
            out.kills += part.kills
            out.aborts += part.aborts
            out.suspensions += part.suspensions
            out.response_times.extend(part.response_times)
            out.queue_delays.extend(part.queue_delays)
            out.velocities.extend(part.velocities)
            out.completion_times.extend(part.completion_times)
        out.completion_times.sort()
        return out

    @classmethod
    def from_log(cls, log: Iterable[QueryLogRecord], time_scale: float = 1.0) -> WorkloadStats:
        """A query log's terminal records as one aggregate, in log order.

        ``time_scale`` is the log's clock seconds per schedule second:
        a real run's trace passes its configured scale (response and
        completion times are divided by it), a simulator log 1.0.
        """
        if time_scale <= 0:
            raise ConfigurationError(f"time_scale must be positive, got {time_scale}")
        out = cls(workload="*")
        for record in log:
            state = record.final_state
            if state is QueryState.COMPLETED:
                out.completions += 1
                if record.response_time is not None:
                    out.response_times.append(record.response_time / time_scale)
                    out.completion_times.append(record.end_time / time_scale)
            elif state is QueryState.REJECTED:
                out.rejections += 1
            elif state is QueryState.KILLED:
                out.kills += 1
            elif state is QueryState.ABORTED:
                out.aborts += 1
        out.completion_times.sort()
        return out

    # ------------------------------------------------------------------
    def _array(self, name: str, values: List[float]) -> np.ndarray:
        """Cached ndarray view of a series, rebuilt when it grew."""
        key = ("arr", name)
        arr = self._cache.get(key)
        if arr is None or len(arr) != len(values):  # type: ignore[arg-type]
            arr = np.asarray(values, dtype=float)
            self._cache[key] = arr
        return arr  # type: ignore[return-value]

    def _reduced(
        self,
        name: str,
        values: List[float],
        compute: Callable[[np.ndarray], float],
    ) -> Optional[float]:
        """Cached scalar statistic, recomputed when the series grew."""
        key = ("stat", name)
        hit = self._cache.get(key)
        n = len(values)
        if hit is not None and hit[0] == n:  # type: ignore[index]
            return hit[1]  # type: ignore[index]
        value = compute(self._array(name, values)) if n else None
        self._cache[key] = (n, value)
        return value

    def mean_response_time(self) -> Optional[float]:
        return self._reduced(
            "rt_mean", self.response_times, lambda a: float(np.mean(a))
        )

    def percentile_response_time(self, percentile: float) -> Optional[float]:
        return self._reduced(
            f"rt_p{percentile}",
            self.response_times,
            lambda a: float(np.percentile(a, percentile)),
        )

    def mean_velocity(self) -> Optional[float]:
        return self._reduced(
            "vel_mean", self.velocities, lambda a: float(np.mean(a))
        )

    def mean_queue_delay(self) -> Optional[float]:
        return self._reduced(
            "qd_mean", self.queue_delays, lambda a: float(np.mean(a))
        )

    def throughput(self, window: float, now: float) -> float:
        """Completions per second over the trailing ``window`` seconds."""
        if window <= 0 or now <= 0:
            return 0.0
        start = max(0.0, now - window)
        times = self.completion_times
        # Sliding-window count: remember, per window size, where the
        # last query's window began and advance from there (amortized
        # O(1) for the monotone reads a control loop issues).  A query
        # whose window starts earlier than the last one falls back to a
        # fresh bisect; both paths count items in (start, now] exactly.
        key = ("win", window)
        state = self._cache.get(key)
        n = len(times)
        if state is not None and state[0] <= start and state[1] <= n:  # type: ignore[index]
            lo = state[1]  # type: ignore[index]
            while lo < n and times[lo] <= start:
                lo += 1
        else:
            lo = bisect.bisect_right(times, start)
        self._cache[key] = (start, lo)
        return (n - lo) / min(window, now)

    def overall_throughput(self, now: float) -> float:
        return self.completions / now if now > 0 else 0.0

    def measurements(
        self, now: float, percentile: float = 95.0
    ) -> Dict[ObjectiveKind, Optional[float]]:
        """Measurement map consumed by :meth:`ServiceLevelAgreement.evaluate`."""
        return {
            ObjectiveKind.AVERAGE_RESPONSE_TIME: self.mean_response_time(),
            ObjectiveKind.PERCENTILE_RESPONSE_TIME: self.percentile_response_time(
                percentile
            ),
            ObjectiveKind.THROUGHPUT: self.overall_throughput(now),
            ObjectiveKind.VELOCITY: self.mean_velocity(),
        }


@dataclass(frozen=True)
class SystemSample:
    """One monitor observation of system-level state."""

    time: float
    cpu_utilization: float
    disk_utilization: float
    memory_pressure: float
    conflict_ratio: float
    running: int
    queued: int


_UNASSIGNED = "<unassigned>"  # outcomes of queries no workload claimed


class MetricsCollector:
    """Accumulates workload outcomes and system samples."""

    def __init__(self) -> None:
        self._stats: Dict[str, WorkloadStats] = {}
        self._samples: List[SystemSample] = []
        self._sample_times: List[float] = []

    # ------------------------------------------------------------------
    # per-workload outcomes
    # ------------------------------------------------------------------
    def stats_for(self, workload: Optional[str]) -> WorkloadStats:
        """The workload's recorded outcomes, or an empty aggregate the
        collector does not keep: reading never adds a workload."""
        name = workload or _UNASSIGNED
        stats = self._stats.get(name)
        return stats if stats is not None else WorkloadStats(workload=name)

    def workloads(self) -> List[str]:
        """The workloads with a recorded outcome, in first-outcome order."""
        return list(self._stats)

    def _recorded(self, query: Query) -> WorkloadStats:
        """The entry ``query``'s outcome goes to, created on its first."""
        name = query.workload_name or _UNASSIGNED
        if name not in self._stats:
            self._stats[name] = WorkloadStats(workload=name)
        return self._stats[name]

    def record_completion(self, query: Query, now: float) -> None:
        stats = self._recorded(query)
        stats.completions += 1
        response_time = query.response_time
        if response_time is not None:
            stats.response_times.append(response_time)
        queueing_delay = query.queueing_delay
        if queueing_delay is not None:
            stats.queue_delays.append(queueing_delay)
        velocity = query.execution_velocity(now)
        if velocity is not None:
            stats.velocities.append(velocity)
        # Simulated time only moves forward, so completion times arrive
        # in order and a plain append keeps the list sorted — no
        # bisect.insort (which is O(n) per completion) needed.
        times = stats.completion_times
        assert not times or now >= times[-1] - 1e-9, (
            f"completion time went backwards: {now} after {times[-1]}"
        )
        times.append(now)

    def record_rejection(self, query: Query) -> None:
        self._recorded(query).rejections += 1

    def record_kill(self, query: Query) -> None:
        self._recorded(query).kills += 1

    def record_abort(self, query: Query) -> None:
        self._recorded(query).aborts += 1

    def record_suspension(self, query: Query) -> None:
        self._recorded(query).suspensions += 1

    # ------------------------------------------------------------------
    # system samples
    # ------------------------------------------------------------------
    def record_sample(self, sample: SystemSample) -> None:
        # The manager's tick samples at the simulator's clock, so samples
        # arrive in time order and :meth:`samples` can bisect.
        times = self._sample_times
        assert not times or sample.time >= times[-1], (
            f"sample time went backwards: {sample.time} after {times[-1]}"
        )
        self._samples.append(sample)
        times.append(sample.time)

    def samples(self, since: float = 0.0) -> List[SystemSample]:
        return self._samples[bisect.bisect_left(self._sample_times, since):]

    def latest_sample(self) -> Optional[SystemSample]:
        return self._samples[-1] if self._samples else None

    # ------------------------------------------------------------------
    # SLA evaluation
    # ------------------------------------------------------------------
    def evaluate_sla(
        self, sla: ServiceLevelAgreement, now: float
    ) -> Mapping[ObjectiveKind, Optional[float]]:
        """Measurements for ``sla``'s workload (pass to ``sla.evaluate``)."""
        stats = self.stats_for(sla.workload)
        for objective in sla.objectives:  # an SLA has at most one percentile
            if objective.percentile is not None:
                return stats.measurements(now, objective.percentile)
        return stats.measurements(now)

    def attainment(self, slas: SLASet, now: float) -> Dict[str, float]:
        """Fraction of objectives met per workload (1.0 = all met).

        Workloads with no data count as attainment 0 for goal-ful SLAs:
        if nothing completed, the goals were certainly not met.
        """
        out: Dict[str, float] = {}
        for sla in slas:
            if not sla.has_goals:
                continue
            results = sla.evaluate(self.evaluate_sla(sla, now))
            met = sum(1 for r in results if r.satisfied)
            out[sla.workload] = met / len(results)
        return out

    def summary_line(self, workload: str, now: float) -> str:
        """Human-readable one-liner used by examples and reports."""
        stats = self.stats_for(workload)
        parts = [
            f"{workload}: n={stats.completions}",
            f"rej={stats.rejections}",
            f"kill={stats.kills}",
        ]
        mean_rt = stats.mean_response_time()
        if mean_rt is not None:
            parts.append(f"rt_avg={mean_rt:.3f}s")
        p95 = stats.percentile_response_time(95.0)
        if p95 is not None:
            parts.append(f"rt_p95={p95:.3f}s")
        velocity = stats.mean_velocity()
        if velocity is not None:
            parts.append(f"vel={velocity:.2f}")
        parts.append(f"xput={stats.overall_throughput(now):.2f}/s")
        return " ".join(parts)
