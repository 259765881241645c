"""Sim-vs-real comparison: one plan, two engines, per-metric deltas.

The harness answers the validation question behind the whole simulator:
*given the identical request stream, how far are the simulator's
workload-management outcomes from a real engine's?*  It runs one
admission policy and one throttling policy through both executions:

* **real** — :class:`~repro.backends.runner.BackendRunner` against a
  :class:`~repro.backends.base.BackendDriver`, with the
  :class:`~repro.backends.runner.AdmissionGate` /
  :class:`~repro.backends.runner.SleepThrottle` realizations;
* **simulated** — the standard :class:`~repro.core.manager.WorkloadManager`
  with :class:`~repro.admission.threshold.ThresholdAdmission` and an
  engine-level constant throttle (``set_throttle(qid, 1 - sleep)``),
  which §4.2.2 equates with the sleep-loop realization.

The sim models the real runner's thread pool as a machine of ``mpl``
CPU units behind an FCFS dispatcher with ``max_concurrency=mpl``: at
most ``mpl`` statements run, each at full speed — exactly one worker
thread each.  Cost-threshold admission decisions match bit-for-bit
across the two executions because both consult the same pre-drawn
optimizer estimates; MPL and timing-dependent effects are where the
engines may genuinely diverge, which is what the deltas measure.

Both sides consume the same digest-gated
:class:`~repro.backends.plan.StatementPlan`; the simulated side's costs
come either from the plan's spec-native costs (*uncalibrated*) or from
a :class:`~repro.backends.calibrate.CostModel` fitted on a real
baseline trace (*calibrated*).  The report carries both sim baselines
so the calibration acceptance check — calibrated mean response time
closer to the real mean than uncalibrated — is computed, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro.admission.threshold import ThresholdAdmission
from repro.backends.base import BackendDriver
from repro.backends.calibrate import CostModel, fit_cost_model, service_error
from repro.backends.plan import StatementPlan
from repro.backends.runner import (
    AdmissionGate,
    BackendRunner,
    RunConfig,
    RunReport,
    SleepThrottle,
)
from repro.core.manager import WaitQueue, WorkloadManager
from repro.core.policy import AdmissionPolicy
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.workloads.traces import QueryLog


@dataclass(frozen=True)
class MetricSummary:
    """The comparison metrics of one run, in schedule-time units."""

    count: int
    completed: int
    rejected: int
    killed: int
    aborted: int
    throughput: float          # completions per schedule second
    mean_rt: float             # mean response time of completions
    p50_rt: float
    p95_rt: float
    rejection_rate: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "completed": self.completed,
            "rejected": self.rejected,
            "killed": self.killed,
            "aborted": self.aborted,
            "throughput": self.throughput,
            "mean_rt": self.mean_rt,
            "p50_rt": self.p50_rt,
            "p95_rt": self.p95_rt,
            "rejection_rate": self.rejection_rate,
        }


def summarize_log(
    log: QueryLog, horizon: float, time_scale: float = 1.0
) -> MetricSummary:
    """Aggregate a query log into comparison metrics.

    ``time_scale`` converts the log's clock into schedule units: pass
    the real run's configured scale for captured traces and ``1.0`` for
    simulator logs (which are already on the schedule axis).
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if time_scale <= 0:
        raise ConfigurationError(f"time_scale must be positive, got {time_scale}")
    states = {state: 0 for state in QueryState}
    response_times = []
    for record in log:
        states[record.final_state] += 1
        if record.completed and record.response_time is not None:
            response_times.append(record.response_time / time_scale)
    completed = states[QueryState.COMPLETED]
    count = len(log)
    if response_times:
        rts = np.asarray(response_times, dtype=np.float64)
        mean_rt = float(rts.mean())
        p50_rt = float(np.percentile(rts, 50))
        p95_rt = float(np.percentile(rts, 95))
    else:
        mean_rt = p50_rt = p95_rt = 0.0
    return MetricSummary(
        count=count,
        completed=completed,
        rejected=states[QueryState.REJECTED],
        killed=states[QueryState.KILLED],
        aborted=states[QueryState.ABORTED],
        throughput=completed / horizon,
        mean_rt=mean_rt,
        p50_rt=p50_rt,
        p95_rt=p95_rt,
        rejection_rate=states[QueryState.REJECTED] / count if count else 0.0,
    )


@dataclass(frozen=True)
class MetricDelta:
    """One metric's sim-vs-real discrepancy."""

    metric: str
    real: float
    sim: float

    @property
    def delta(self) -> float:
        return self.sim - self.real

    @property
    def relative(self) -> Optional[float]:
        if self.real == 0.0:
            return None
        return self.delta / self.real

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "metric": self.metric,
            "real": self.real,
            "sim": self.sim,
            "delta": self.delta,
            "relative": self.relative,
        }


#: The per-metric deltas the harness reports (ISSUE acceptance set).
DELTA_METRICS = ("throughput", "mean_rt", "p50_rt", "p95_rt", "rejection_rate")


def metric_deltas(real: MetricSummary, sim: MetricSummary) -> List[MetricDelta]:
    real_d, sim_d = real.as_dict(), sim.as_dict()
    return [MetricDelta(name, real_d[name], sim_d[name]) for name in DELTA_METRICS]


class _SimThrottle:
    """Engine-level constant throttle applied the instant a query starts.

    Starts only happen inside ``pump()``, which runs during ``submit``
    and during engine-exit callbacks — both of which re-apply the cap
    here at the same simulated instant, so a throttled query never makes
    unthrottled progress (matching the real sleep-loop, which stretches
    the *whole* service time).
    """

    def __init__(self, workloads: FrozenSet[str], sleep_fraction: float) -> None:
        self.factor = 1.0 - sleep_fraction
        self.workloads = workloads

    def apply(self, manager: WorkloadManager) -> None:
        engine = manager.engine
        for query in engine.running_queries():
            if self.workloads and query.workload_name not in self.workloads:
                continue
            if engine.throttle_of(query.query_id) != self.factor:
                engine.set_throttle(query.query_id, self.factor)


def run_sim_on_plan(
    plan: StatementPlan,
    mpl: int = 4,
    cost_model: Optional[CostModel] = None,
    admission: Optional[AdmissionGate] = None,
    throttle: Optional[SleepThrottle] = None,
    horizon: Optional[float] = None,
    control_period: float = 1.0,
    max_drain_rounds: int = 10_000,
) -> QueryLog:
    """Run a statement plan through the simulator and return its log.

    With ``cost_model`` the simulated demand of each statement is the
    model's predicted real service time (estimates stay untouched, so
    admission sees exactly what the real runner saw); without it the
    plan's spec-native costs run as-is — the uncalibrated baseline.
    After the horizon the sim drains until no work is outstanding, like
    the real runner waiting on its futures.
    """
    if mpl < 1:
        raise ConfigurationError(f"mpl must be >= 1, got {mpl}")
    horizon = horizon if horizon is not None else plan.horizon
    sim = Simulator(seed=plan.seed)
    admission_controller = None
    if admission is not None:
        admission_controller = ThresholdAdmission(
            default_policy=AdmissionPolicy(
                reject_over_cost=admission.cost_limit,
                max_concurrency=admission.max_outstanding,
                queue_when_full=False,
            )
        )
    manager = WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=float(mpl), disk_capacity=float(mpl)),
        admission=admission_controller,
        scheduler=WaitQueue(mpl),
        control_period=control_period,
    )
    sim_throttle = None
    if throttle is not None and throttle.sleep_fraction > 0:
        sim_throttle = _SimThrottle(throttle.workloads, throttle.sleep_fraction)
        manager.engine.on_exit(lambda _q, _o: sim_throttle.apply(manager))

    def _submit(statement) -> None:
        query = statement.make_query()
        if cost_model is not None:
            query.true_cost = cost_model.calibrated_cost(
                statement.sql_label, statement.estimated_cost
            )
        manager.submit(query)
        if sim_throttle is not None:
            sim_throttle.apply(manager)

    for statement in plan:
        sim.schedule_at(
            statement.submit_at,
            lambda s=statement: _submit(s),
            label=f"backend-plan:{statement.index}",
        )
    sim.run_until(horizon)
    rounds = 0
    while manager.outstanding_work() > 0 and rounds < max_drain_rounds:
        sim.run_until(sim.now + max(1.0, control_period))
        rounds += 1
    manager.shutdown()
    if manager.outstanding_work() > 0:
        raise ConfigurationError(
            f"simulated run failed to drain: {manager.outstanding_work()} "
            "queries still outstanding"
        )
    return manager.query_log


@dataclass
class PolicyComparison:
    """Real vs simulated outcomes of one policy on one plan."""

    label: str
    real: MetricSummary
    sim: MetricSummary
    deltas: List[MetricDelta] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "real": self.real.as_dict(),
            "sim": self.sim.as_dict(),
            "deltas": [delta.as_dict() for delta in self.deltas],
        }


@dataclass
class ComparisonReport:
    """Everything one comparison run produced."""

    plan_digest: str
    statements: int
    mpl: int
    time_scale: float
    baseline_real: MetricSummary
    policies: List[PolicyComparison]
    mean_rt_error_uncalibrated: float
    mean_rt_error_calibrated: float
    service_error_uncalibrated: float
    service_error_calibrated: float
    model: CostModel
    real_reports: Dict[str, RunReport] = field(default_factory=dict)

    @property
    def calibration_improved(self) -> bool:
        """The acceptance check: calibrated sim tracks real mean RT better."""
        return self.mean_rt_error_calibrated < self.mean_rt_error_uncalibrated

    def as_dict(self) -> Dict[str, object]:
        return {
            "plan_digest": self.plan_digest,
            "statements": self.statements,
            "mpl": self.mpl,
            "time_scale": self.time_scale,
            "baseline_real": self.baseline_real.as_dict(),
            "policies": [policy.as_dict() for policy in self.policies],
            "mean_rt_error_uncalibrated": self.mean_rt_error_uncalibrated,
            "mean_rt_error_calibrated": self.mean_rt_error_calibrated,
            "service_error_uncalibrated": self.service_error_uncalibrated,
            "service_error_calibrated": self.service_error_calibrated,
            "calibration_improved": self.calibration_improved,
            "cost_model": self.model.as_dict(),
        }

    def render(self) -> str:
        """Human-readable per-metric delta tables."""
        lines = [
            f"plan: {self.statements} statements, digest {self.plan_digest[:16]}…",
            f"mpl={self.mpl} time_scale={self.time_scale}",
            "",
            "calibration (sim mean-RT error vs real baseline):",
            f"  uncalibrated: {self.mean_rt_error_uncalibrated:.6f}s",
            f"  calibrated:   {self.mean_rt_error_calibrated:.6f}s"
            f"  ({'improved' if self.calibration_improved else 'NOT improved'})",
        ]
        for policy in self.policies:
            lines.append("")
            lines.append(f"policy: {policy.label}")
            lines.append(
                f"  {'metric':<15} {'real':>12} {'sim':>12} {'delta':>12}"
            )
            for delta in policy.deltas:
                lines.append(
                    f"  {delta.metric:<15} {delta.real:>12.6f} "
                    f"{delta.sim:>12.6f} {delta.delta:>+12.6f}"
                )
        return "\n".join(lines)


def run_comparison(
    plan: StatementPlan,
    driver_factory: Callable[[], BackendDriver],
    config: Optional[RunConfig] = None,
    admission: Optional[AdmissionGate] = None,
    throttle: Optional[SleepThrottle] = None,
    keep_real_reports: bool = False,
) -> ComparisonReport:
    """The full harness: baseline, calibrate, then each policy both ways.

    Three real runs (baseline, admission, throttling) and three matching
    simulator runs.  The baseline real trace fits the cost model; every
    simulated policy run uses it.  ``driver_factory`` builds a fresh
    driver per real run so runs never share backend state.
    """
    config = config or RunConfig()
    admission = admission or AdmissionGate(cost_limit=1.0)
    throttle = throttle or SleepThrottle(sleep_fraction=0.5)
    horizon = plan.horizon
    scale = config.time_scale

    baseline = BackendRunner(driver_factory(), plan, config).run()
    model = fit_cost_model(baseline.log, time_scale=scale)
    baseline_real = summarize_log(baseline.log, horizon, scale)

    sim_uncal = summarize_log(run_sim_on_plan(plan, config.mpl), horizon)
    sim_cal = summarize_log(
        run_sim_on_plan(plan, config.mpl, cost_model=model), horizon
    )

    policies: List[PolicyComparison] = []
    real_reports: Dict[str, RunReport] = {}
    if keep_real_reports:
        real_reports["baseline"] = baseline
    for label, gate, thr in (
        ("admission", admission, None),
        ("throttling", None, throttle),
    ):
        real = BackendRunner(
            driver_factory(), plan, config, admission=gate, throttle=thr
        ).run()
        real_summary = summarize_log(real.log, horizon, scale)
        sim_log = run_sim_on_plan(
            plan, config.mpl, cost_model=model, admission=gate, throttle=thr
        )
        sim_summary = summarize_log(sim_log, horizon)
        policies.append(
            PolicyComparison(
                label=label,
                real=real_summary,
                sim=sim_summary,
                deltas=metric_deltas(real_summary, sim_summary),
            )
        )
        if keep_real_reports:
            real_reports[label] = real

    return ComparisonReport(
        plan_digest=plan.digest(),
        statements=len(plan),
        mpl=config.mpl,
        time_scale=scale,
        baseline_real=baseline_real,
        policies=policies,
        mean_rt_error_uncalibrated=abs(sim_uncal.mean_rt - baseline_real.mean_rt),
        mean_rt_error_calibrated=abs(sim_cal.mean_rt - baseline_real.mean_rt),
        service_error_uncalibrated=service_error(
            baseline.log, None, time_scale=scale
        ),
        service_error_calibrated=service_error(
            baseline.log, model, time_scale=scale
        ),
        model=model,
        real_reports=real_reports,
    )
