"""Sim-vs-real comparison: one plan, two engines, per-metric deltas.

The harness answers the validation question behind the whole simulator:
*given the identical request stream, how far are the simulator's
workload-management outcomes from a real engine's?*  It runs one
admission policy and one throttling policy through both executions:

* **real** — :class:`~repro.backends.runner.BackendRunner` against a
  :class:`~repro.backends.base.BackendDriver`, rejecting on the
  :class:`~repro.core.policy.AdmissionPolicy` and sleeping as the
  :class:`~repro.backends.runner.SleepThrottle` says;
* **simulated** — the standard :class:`~repro.core.manager.WorkloadManager`
  with :class:`~repro.admission.threshold.ThresholdAdmission` over the
  same policy and the same throttle applied as an engine-level speed
  cap (``set_throttle(qid, 1 - sleep)``), which §4.2.2 equates with the
  sleep loop.

The sim models the real runner's ``mpl`` workers and their FIFO as a machine of ``mpl``
CPU units behind an FCFS dispatcher with ``max_concurrency=mpl``: at
most ``mpl`` statements run, each at full speed — exactly one worker
thread each.  Cost-threshold admission decisions match bit-for-bit
across the two executions because both ask the same
:meth:`~repro.core.policy.AdmissionPolicy.violation` about the same
pre-drawn optimizer estimates at the same plan instants; MPL and
timing-dependent effects are where the engines may genuinely diverge,
which is what the deltas measure.  Both sides' logs fold into a
:class:`~repro.core.metrics.WorkloadStats`, read by
:func:`outcome_metrics`.

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
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional

from repro.admission.threshold import ThresholdAdmission
from repro.backends.base import BackendDriver
from repro.backends.calibrate import CostModel, fit_cost_model, service_error
from repro.backends.plan import PlannedStatement, StatementPlan
from repro.backends.runner import BackendRunner, RunConfig, RunReport, SleepThrottle
from repro.core.manager import WaitQueue, WorkloadManager
from repro.core.metrics import WorkloadStats
from repro.core.policy import AdmissionPolicy
from repro.engine.executor import ExecutionEngine
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.workloads.traces import QueryLog


def outcome_metrics(stats: WorkloadStats, horizon: float) -> Dict[str, float]:
    """The comparison columns of one run's aggregate, in schedule units:
    outcome counts, completions per second of ``horizon``, response-time
    mean/p50/p95 (0.0 with no completion) and the rejection rate."""
    count = stats.completions + stats.rejections + stats.kills + stats.aborts
    return {
        "count": count,
        "completed": stats.completions,
        "rejected": stats.rejections,
        "killed": stats.kills,
        "aborted": stats.aborts,
        "throughput": stats.overall_throughput(horizon),
        "mean_rt": stats.mean_response_time() or 0.0,
        "p50_rt": stats.percentile_response_time(50.0) or 0.0,
        "p95_rt": stats.percentile_response_time(95.0) or 0.0,
        "rejection_rate": stats.rejections / count if count else 0.0,
    }


@dataclass(frozen=True)
class MetricDelta:
    """One metric's sim-vs-real discrepancy."""

    metric: str
    real: float
    sim: float

    @property
    def delta(self) -> float:
        return self.sim - self.real


#: The per-metric deltas the harness reports.
DELTA_METRICS = ("throughput", "mean_rt", "p50_rt", "p95_rt", "rejection_rate")


def metric_deltas(
    real: Mapping[str, float], sim: Mapping[str, float]
) -> List[MetricDelta]:
    return [MetricDelta(name, real[name], sim[name]) for name in DELTA_METRICS]


def _apply_cap(engine: ExecutionEngine, throttle: SleepThrottle, cap: float, *_exit) -> None:
    """Throttle every running query ``throttle`` applies to at ``cap``.

    Starts only happen inside pump(), which runs during submit and
    during engine-exit callbacks; both re-apply the cap at the same
    instant, so a throttled query never makes unthrottled progress (the
    real sleep loop stretches the whole service time).
    """
    for query in engine.running_queries():
        if (
            throttle.applies_to(query.workload_name)
            and engine.throttle_of(query.query_id) != cap
        ):
            engine.set_throttle(query.query_id, cap)


def _submit(
    manager: WorkloadManager,
    cost_model: Optional[CostModel],
    apply_cap: Optional[Callable[[], None]],
    statement: PlannedStatement,
) -> None:
    query = statement.make_query()
    if cost_model is not None:
        query.true_cost = cost_model.calibrated_cost(
            statement.sql_label, statement.estimated_cost
        )
    manager.submit(query)
    if apply_cap is not None:
        apply_cap()


def run_sim_on_plan(
    plan: StatementPlan,
    mpl: int = 4,
    cost_model: Optional[CostModel] = None,
    admission: Optional[AdmissionPolicy] = None,
    throttle: Optional[SleepThrottle] = None,
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
    sim = Simulator(seed=plan.seed)
    manager = WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=float(mpl), disk_capacity=float(mpl)),
        admission=None if admission is None else ThresholdAdmission(admission),
        scheduler=WaitQueue(mpl),
    )
    log = QueryLog()
    manager.add_completion_listener(log.record_query)
    apply_cap = None
    if throttle is not None and throttle.sleep_fraction > 0:
        apply_cap = partial(_apply_cap, manager.engine, throttle, 1.0 - throttle.sleep_fraction)
        manager.engine.on_exit(apply_cap)
    for statement in plan:
        sim.schedule_at(
            statement.submit_at,
            partial(_submit, manager, cost_model, apply_cap, statement),
            label=f"backend-plan:{statement.index}",
        )
    sim.run_until(plan.horizon)
    rounds = 0
    while manager.outstanding_work() > 0 and rounds < 10_000:
        sim.run_until(sim.now + 1.0)
        rounds += 1
    manager.shutdown()
    if manager.outstanding_work() > 0:
        raise ConfigurationError(
            f"simulated run failed to drain: {manager.outstanding_work()} "
            "queries still outstanding"
        )
    return log


@dataclass
class PolicyComparison:
    """Real vs simulated outcomes of one policy on one plan."""

    label: str
    real: Dict[str, float]  # outcome_metrics of each side
    sim: Dict[str, float]
    deltas: List[MetricDelta] = field(default_factory=list)


@dataclass
class ComparisonReport:
    """Everything one comparison run produced."""

    plan_digest: str
    statements: int
    mpl: int
    time_scale: float
    baseline_real: Dict[str, float]
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
    admission: Optional[AdmissionPolicy] = None,
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
    admission = admission or AdmissionPolicy(reject_over_cost=1.0)
    throttle = throttle or SleepThrottle(sleep_fraction=0.5)
    scale = config.time_scale

    def metrics(log: QueryLog, time_scale: float = 1.0) -> Dict[str, float]:
        return outcome_metrics(WorkloadStats.from_log(log, time_scale), plan.horizon)

    baseline = BackendRunner(driver_factory(), plan, config).run()
    model = fit_cost_model(baseline.log, time_scale=scale)
    baseline_real = metrics(baseline.log, scale)
    sim_uncal = metrics(run_sim_on_plan(plan, config.mpl))
    sim_cal = metrics(run_sim_on_plan(plan, config.mpl, cost_model=model))

    policies: List[PolicyComparison] = []
    real_reports: Dict[str, RunReport] = {}
    if keep_real_reports:
        real_reports["baseline"] = baseline
    for label, policy, thr in (
        ("admission", admission, None),
        ("throttling", None, throttle),
    ):
        real = BackendRunner(
            driver_factory(), plan, config, admission=policy, throttle=thr
        ).run()
        real_metrics = metrics(real.log, scale)
        sim_metrics = metrics(
            run_sim_on_plan(
                plan, config.mpl, cost_model=model, admission=policy, throttle=thr
            )
        )
        policies.append(
            PolicyComparison(
                label=label,
                real=real_metrics,
                sim=sim_metrics,
                deltas=metric_deltas(real_metrics, sim_metrics),
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
        mean_rt_error_uncalibrated=abs(sim_uncal["mean_rt"] - baseline_real["mean_rt"]),
        mean_rt_error_calibrated=abs(sim_cal["mean_rt"] - baseline_real["mean_rt"]),
        service_error_uncalibrated=service_error(
            baseline.log, None, time_scale=scale
        ),
        service_error_calibrated=service_error(
            baseline.log, model, time_scale=scale
        ),
        model=model,
        real_reports=real_reports,
    )
