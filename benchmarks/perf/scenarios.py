"""The runners behind the bench gate's rows (``benchmarks/perf/gate.py``).

Every runner is a plain ``fn(seed=..., **params) -> dict`` the
:mod:`repro.parallel` runtime can execute in a worker.  The dict holds a
``digest`` (``plan_digest`` for the real-backend row) and integer
counters — what the gate compares exactly — plus, where the runner can
test one, an ``invariants`` mapping of named booleans that must all be
true.  Anything measured rather than simulated (wall-clock metrics of a
real backend, per-workload response aggregates) sits under other keys
and is reported, never gated.

``digest`` is a SHA-256 over the full-precision outcome streams (see
:func:`repro.parallel.digest.outcome_digest`), so two runs with the
same seed are bit-identical iff their digests match.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Sequence

from benchmarks._scenarios import build_manager, drive
from repro.parallel.digest import combine, dispatcher_digest, outcome_digest
from repro.core.interfaces import ExecutionController
from repro.core.manager import FCFSDispatcher, WorkloadManager
from repro.core.sla import SLASet, response_time_sla
from repro.core.policy import AdmissionPolicy, Threshold, ThresholdAction, ThresholdKind
from repro.engine.simulator import Simulator
from repro.execution.reprioritization import PriorityAgingController
from repro.scenarios import get_policy, get_scenario, run_scenario, summarize_run
from repro.scenarios.sweep import run_scenario_matrix as sweep_matrix
from repro.workloads.generator import Scenario, bi_workload, oltp_workload
from repro.workloads.models import (
    ClosedArrivals,
    Constant,
    Exponential,
    RequestClass,
    Uniform,
    WorkloadSpec,
)


def _closed_spec(population: int, name: str = "closed") -> WorkloadSpec:
    """A closed population of small jobs: high completion rates without
    memory thrash, so the run exercises the reallocation path hard."""
    job = RequestClass(
        name="job",
        cpu=Exponential(0.012),
        io=Exponential(0.024),
        memory_mb=Uniform(4.0, 16.0),
        rows=Constant(1_000),
    )
    return WorkloadSpec(
        name=name,
        request_classes=((job, 1.0),),
        arrivals=ClosedArrivals(population=population, think_time=Constant(0.01)),
        priority=1,
    )


def _manager_row(manager, **extra: object) -> Dict[str, object]:
    """The counters and outcome digest of a single-manager run."""
    metrics = manager.metrics
    return {
        "completed": sum(
            metrics.stats_for(w).completions for w in metrics.workloads()
        ),
        "submitted": manager.submitted_count,
        "events": manager.sim.events_fired,
        "sim_time": manager.sim.now,
        "digest": outcome_digest(manager),
        **extra,
    }


#: The MPL levels of the high-load sweep; each level is an independent
#: seeded sub-run, so the parallel harness shards along this axis.
HIGH_MPL_LEVELS = (16, 48, 96)


def run_high_mpl_shard(
    scale: float = 1.0, seed: int = 7, mpl: int = 16
) -> Dict[str, object]:
    """One MPL level of the EXP1-style high-load sweep (one shard).

    A large closed population keeps the running set at the MPL ceiling
    throughout, so every completion triggers a finish + replacement-
    start reallocation over dozens of concurrent queries.  The three
    levels together complete well over 50k queries in full mode.
    """
    horizon = max(10.0, 220.0 * scale)
    sim = Simulator(seed=seed + mpl)
    manager = build_manager(sim, scheduler=FCFSDispatcher(max_concurrency=mpl))
    scenario = Scenario(specs=(_closed_spec(population=128),), horizon=horizon)
    drive(manager, scenario)
    return _manager_row(manager)


def reduce_shards(shards: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Fold ordered shard results into one scenario result.

    Counters sum; the digest is the order-sensitive digest-of-digests
    (:func:`repro.parallel.digest.combine`), identical to what the
    serial scenario computes — so sharded and unsharded runs are
    digest-comparable.
    """
    if len(shards) == 1:
        return dict(shards[0])
    return {
        "completed": sum(int(s["completed"]) for s in shards),
        "submitted": sum(int(s["submitted"]) for s in shards),
        "events": sum(int(s["events"]) for s in shards),
        "sim_time": sum(float(s["sim_time"]) for s in shards),
        "digest": combine(str(s["digest"]) for s in shards),
    }


def run_mixed_pipeline(scale: float = 1.0, seed: int = 11) -> Dict[str, object]:
    """Mixed OLTP + BI through the full manager pipeline.

    Open-arrival OLTP at high rate consolidated with heavy BI queries,
    an MPL-limited dispatcher and a deadline reprioritizer scanning the
    running set every control tick — the per-tick control-loop path.
    """
    horizon = max(10.0, 420.0 * scale)
    sim = Simulator(seed=seed)
    controller = PriorityAgingController(
        thresholds=(
            Threshold(ThresholdKind.ELAPSED_TIME, 10.0, ThresholdAction.DEMOTE),
        ),
        demote_cooldown=5.0,
    )
    manager = build_manager(
        sim,
        scheduler=FCFSDispatcher(max_concurrency=48),
        controllers=(controller,),
        control_period=0.5,
    )
    scenario = Scenario(
        specs=(
            oltp_workload(rate=60.0, priority=3),
            bi_workload(
                rate=0.4,
                priority=1,
                median_cpu=4.0,
                median_io=8.0,
                sigma=0.8,
                memory_low=100.0,
                memory_high=300.0,
            ),
        ),
        horizon=horizon,
    )
    drive(manager, scenario)
    return _manager_row(manager)


class _SLAPoller(ExecutionController):
    """Polls every SLA-relevant metric each control tick and hashes the
    values it reads, so the digest also proves the *metric readings*
    (not just the outcome streams) are bit-identical across runs."""

    def __init__(self) -> None:
        self.polls = 0
        self._hash = hashlib.sha256()

    def _feed(self, value) -> None:
        self._hash.update(
            struct.pack("<d", float("nan") if value is None else float(value))
        )

    def control(self, context: WorkloadManager) -> None:
        self.polls += 1
        now = context.now
        attainment = context.metrics.attainment(context.slas, now)
        for workload in sorted(attainment):
            self._feed(attainment[workload])
        for workload in sorted(context.metrics.workloads()):
            stats = context.metrics.stats_for(workload)
            measurements = stats.measurements(now, percentile=95.0)
            for kind in sorted(measurements, key=lambda k: k.name):
                self._feed(measurements[kind])
            self._feed(stats.throughput(window=30.0, now=now))
            self._feed(stats.mean_queue_delay())

    def digest(self) -> str:
        return self._hash.hexdigest()


def run_sla_polling(scale: float = 1.0, seed: int = 13) -> Dict[str, object]:
    """Metrics-heavy SLA polling.

    A steady two-class load with per-workload SLAs, polled four times a
    second: every tick evaluates attainment, percentile/average response
    times and windowed throughput over the ever-growing outcome history —
    the streaming-metrics path.
    """
    horizon = max(10.0, 420.0 * scale)
    sim = Simulator(seed=seed)
    poller = _SLAPoller()
    slas = SLASet(
        [
            response_time_sla("oltp", average=0.5, p95=2.0, velocity=0.3),
            response_time_sla("bi", average=60.0, velocity=0.05),
        ]
    )
    manager = build_manager(
        sim,
        scheduler=FCFSDispatcher(max_concurrency=32),
        controllers=(poller,),
        slas=slas,
        control_period=0.25,
    )
    scenario = Scenario(
        specs=(
            oltp_workload(rate=40.0, priority=3),
            bi_workload(rate=0.2, priority=1, median_cpu=3.0, median_io=6.0),
        ),
        horizon=horizon,
    )
    drive(manager, scenario)
    row = _manager_row(manager, polls=poller.polls)
    row["digest"] = hashlib.sha256(
        (row["digest"] + poller.digest()).encode("ascii")
    ).hexdigest()
    return row


def cluster_row(result) -> Dict[str, object]:
    """A finished :class:`~repro.scenarios.ScenarioResult` as a gate row.

    ``digest`` is the cluster's own (:func:`dispatcher_digest`), which
    the committed entries hold, not the summary's (that one also hashes
    the tenant ledger).  Conservation uses the summary's measured
    ``in_flight``, so it can fail.  ``submitted`` is ``arrivals`` under
    the name the manager rows use, which the ``cluster`` entry was
    committed with.
    """
    row = dict(summarize_run(result), digest=dispatcher_digest(result.dispatcher))
    row["submitted"] = row["arrivals"]
    row["invariants"] = {
        "conserved": row["arrivals"]
        == row["completed"] + row["rejected"] + row["in_flight"]
    }
    return row


def run_cluster_row(
    seed: int, scenario: str, policy: str, drain: float, **params: object
) -> Dict[str, object]:
    """One cluster scenario under one policy: the ``cluster`` row (the
    EXP18 overload on 4 nodes with ``n1`` killed mid-run and revived, so
    placement, crash evacuation, resubmission and recovery are gated)
    and the ``matcher_*`` rows (push and pull share a seed and a spec,
    so they differ only in *when work binds to capacity*)."""
    spec = get_scenario(scenario, **params)
    return cluster_row(run_scenario(spec, get_policy(policy), seed=seed, drain=drain))


# ----------------------------------------------------------------------
# million_query: the 1M+ submitted-query macro-scenario
# ----------------------------------------------------------------------

#: shard axis of the million-query scenario; each shard is an
#: independent seeded closed-loop server, so the parallel harness can
#: spread the scenario across workers (reduced digest == serial digest)
MILLION_SHARD_COUNT = 8

#: submitted-query floor the full-scale scenario must clear end-to-end
MILLION_SUBMITTED_FLOOR = 1_000_000


def _million_spec() -> WorkloadSpec:
    """Small fast jobs, tiny think time: maximum completions per second
    of simulated time, so a million submissions fit a sane horizon."""
    job = RequestClass(
        name="micro",
        cpu=Exponential(0.008),
        io=Exponential(0.016),
        memory_mb=Uniform(2.0, 8.0),
        rows=Constant(100),
    )
    return WorkloadSpec(
        name="million",
        request_classes=((job, 1.0),),
        arrivals=ClosedArrivals(population=64, think_time=Constant(0.005)),
        priority=1,
    )


def million_event_budget(scale: float) -> int:
    """Explicit per-shard event cap for the million-query scenario.

    Sized at ~3x the expected event count (2 events per completion plus
    control ticks), so a runaway run raises
    :class:`repro.errors.SimulationBudgetExceeded` instead of silently
    truncating — never tight enough to clip a healthy run.
    """
    return int(1_200_000 * scale) + 200_000


def run_million_query_shard(
    scale: float = 1.0, seed: int = 23, shard: int = 0
) -> Dict[str, object]:
    """One shard of the million-query scenario (a closed-loop server)."""
    horizon = max(5.0, 1100.0 * scale)
    sim = Simulator(seed=seed + shard)
    manager = build_manager(sim, scheduler=FCFSDispatcher(max_concurrency=32))
    scenario = Scenario(specs=(_million_spec(),), horizon=horizon)
    drive(manager, scenario, max_events=million_event_budget(scale))
    return _manager_row(manager)


# ----------------------------------------------------------------------
# backend: a digest-gated statement plan on in-process SQLite
# ----------------------------------------------------------------------
def run_backend(
    seed: int = 31, horizon: float = 100.0, time_scale: float = 0.005
) -> Dict[str, object]:
    """Real-backend run plus the sim-vs-real comparison.

    Executes the OLTP + BI plan against SQLite under rate control
    (arrival pacing at ``time_scale`` real seconds per schedule second,
    plus a token-bucket max-rate), captures the trace, fits a cost model
    and compares one admission and one throttling policy real vs
    simulated.  Wall-clock execution of a real backend is not
    deterministic, so only the pre-drawn plan (``plan_digest``,
    ``statements``) is gated; everything measured is under ``measured``.
    """
    from repro.backends import (
        RunConfig,
        SQLiteBackend,
        SleepThrottle,
        plan_statements,
        run_comparison,
    )

    plan = plan_statements(
        [oltp_workload(), bi_workload()], horizon=horizon, seed=seed
    )
    config = RunConfig(
        mpl=4, max_rate=2_500.0, time_scale=time_scale, statement_timeout_s=10.0
    )
    report = run_comparison(
        plan,
        SQLiteBackend,
        config,
        admission=AdmissionPolicy(reject_over_cost=5.0),
        throttle=SleepThrottle(workloads=frozenset({"bi"}), sleep_fraction=0.6),
        keep_real_reports=True,
    )
    baseline_run = report.real_reports["baseline"]
    return {
        "plan_digest": report.plan_digest,
        "statements": report.statements,
        "invariants": {
            # every planned statement produced exactly one trace record
            "conserved": all(r.conserved for r in report.real_reports.values()),
            # the calibrated simulator's mean response-time error against
            # the real baseline beats the uncalibrated cost model's
            "calibration_improved": report.calibration_improved,
        },
        "measured": {
            "completed": baseline_run.completed,
            "retries": baseline_run.retries,
            "timeouts": baseline_run.timeouts,
            "rate_wait_s": round(baseline_run.rate_wait_s, 3),
            "max_lateness_s": round(baseline_run.max_lateness_s, 4),
            "effective_rate": round(baseline_run.effective_rate, 1),
            "mean_rt_error_uncalibrated": report.mean_rt_error_uncalibrated,
            "mean_rt_error_calibrated": report.mean_rt_error_calibrated,
            "policies": {
                policy.label: {
                    delta.metric: {
                        "real": delta.real,
                        "sim": delta.sim,
                        "delta": delta.delta,
                    }
                    for delta in policy.deltas
                }
                for policy in report.policies
            },
        },
    }


# ----------------------------------------------------------------------
# scenarios: the committed chaos-scenario survival matrix
# ----------------------------------------------------------------------
def run_scenario_matrix(seed: int = 42) -> Dict[str, object]:
    """Every committed scenario under every isolation policy, plus the
    leakage companions.

    ``completed``/``rejected`` are summed over the matrix runs proper
    (companions exist for the leakage ratio, not the headline counters);
    ``digest`` is the sweep rollup over everything and does not depend
    on the worker count, so the row runs the sweep in-process.
    """
    sweep = sweep_matrix(seeds=(seed,))
    matrix_runs = [v for v in sweep.values if not v.get("exclude_noisy", False)]
    return {
        "digest": sweep.digest,
        "runs": len(sweep.values),
        "matrix_runs": len(matrix_runs),
        "completed": sum(int(v["completed"]) for v in matrix_runs),
        "rejected": sum(int(v["rejected"]) for v in matrix_runs),
    }
