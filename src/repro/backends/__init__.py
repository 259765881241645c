"""Real-DBMS execution backends with rate control and calibration.

Everything else in the library runs on simulated time; this package
runs the *same* workload specifications against a real engine — an
in-process SQLite database — and closes the loop back to the simulator.
It speaks the simulator's vocabulary: admission is an
:class:`~repro.core.policy.AdmissionPolicy`, throttling the §4.2.2
:class:`SleepThrottle` and outcomes a
:class:`~repro.core.metrics.WorkloadStats`:

* :mod:`repro.backends.base` — the :class:`BackendDriver` protocol,
  backend-neutral :class:`Operation` shapes and the
  :class:`ErrorKind` taxonomy mapping real failures onto the query
  lifecycle's terminal states;
* :mod:`repro.backends.plan` — the determinism boundary: a digest-gated
  pre-drawn :class:`StatementPlan` both engines consume;
* :mod:`repro.backends.pool` / :mod:`repro.backends.rate` — one
  health-checked connection slot per worker, token-bucket max-rate
  control and scheduled arrival pacing;
* :mod:`repro.backends.runner` — paced, rate-limited execution with
  per-statement timeout, bounded retry and
  :class:`~repro.workloads.traces.QueryLog` trace capture;
* :mod:`repro.backends.calibrate` — fitting simulator cost models from
  captured traces;
* :mod:`repro.backends.compare` — the sim-vs-real harness reporting
  per-metric deltas for admission and throttling policies.
"""

from repro.backends.base import (
    BackendDriver,
    ERROR_FINAL_STATE,
    ErrorKind,
    Operation,
    OpKind,
)
from repro.backends.calibrate import (
    ClassFit,
    CostModel,
    fit_cost_model,
    service_error,
)
from repro.backends.compare import (
    ComparisonReport,
    MetricDelta,
    PolicyComparison,
    metric_deltas,
    outcome_metrics,
    run_comparison,
    run_sim_on_plan,
)
from repro.backends.plan import (
    PlannedStatement,
    StatementPlan,
    plan_statements,
)
from repro.backends.pool import ConnectionPool, PoolStats
from repro.backends.rate import ArrivalPacer, TokenBucket
from repro.backends.runner import (
    BackendRunner,
    RunConfig,
    RunReport,
    SleepThrottle,
    run_plan,
)
from repro.backends.sqlite import SQLiteBackend

__all__ = [
    "ArrivalPacer",
    "BackendDriver",
    "BackendRunner",
    "ClassFit",
    "ComparisonReport",
    "ConnectionPool",
    "CostModel",
    "ERROR_FINAL_STATE",
    "ErrorKind",
    "MetricDelta",
    "OpKind",
    "Operation",
    "PlannedStatement",
    "PolicyComparison",
    "PoolStats",
    "RunConfig",
    "RunReport",
    "SQLiteBackend",
    "SleepThrottle",
    "StatementPlan",
    "TokenBucket",
    "fit_cost_model",
    "metric_deltas",
    "outcome_metrics",
    "plan_statements",
    "run_comparison",
    "run_plan",
    "run_sim_on_plan",
    "service_error",
]
