"""The six ledger workloads: frozen inputs, one repetition each.

Every workload is a function ``(seed, meter) -> Result``.  A repetition
builds everything fresh from the seed and passes through three phases —
set-up (build + pre-schedule arrivals / seed the DB + plan), run (event
loop to horizon + drain / plan execution) and report (rollups + digest)
— whose boundaries it marks on the ``Meter``; the simulator workloads
also let the meter mark (spin the calibration kernel) every ``SLICE_S``
of wall inside the run, see ``SlicedSimulator``.

The shapes are literal constructors (and one committed ``ScenarioSpec``
JSON for the two cluster workloads) so the program under test only ever
receives generated inputs, and so nothing here depends on
``benchmarks/perf`` or ``benchmarks/_scenarios.py``.  The program is
driven only through entry points ROADMAP keeps: ``Simulator``,
``WorkloadManager``, ``Scenario.build``, ``TeradataASMConfig.build()
.create_manager``, ``run_scenario``/``summarize_run`` and
``plan_statements``/``run_plan``/``SQLiteBackend``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np

from repro.backends import RunConfig, SQLiteBackend, plan_statements, run_plan
from repro.core.manager import FCFSDispatcher, WorkloadManager
from repro.core.policy import ThresholdKind
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.parallel.digest import outcome_digest
from repro.scenarios import (
    PolicyConfig,
    load_scenario_file,
    run_scenario,
    summarize_run,
)
from repro.systems.teradata import (
    QueryResourceFilter,
    TeradataASMConfig,
    TeradataException,
    TeradataWorkloadDefinition,
)
from repro.workloads.generator import Scenario, bi_workload, oltp_workload
from repro.workloads.models import (
    ClosedArrivals,
    Constant,
    Exponential,
    RequestClass,
    Uniform,
    WorkloadSpec,
)

from .calibration import END, REPORT, RUN, SETUP, Meter

SPEC_DIR = Path(__file__).resolve().parent / "specs"

#: The single-server box every non-cluster simulator workload runs on.
MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)


class SlicedSimulator(Simulator):
    """Opens the run phase at the event loop's entry (``run_scenario``
    builds the cluster and runs it in one call, so that is the only
    place set-up and run meet) and advances the loop in ``FINE_SLICES``
    steps of simulated time.  Each step is a piece of its own on the
    meter — the same events in every repetition of a seed — and between
    two steps the meter spins again whenever it is due.  No program
    code runs between events, so the outcome is that of one
    ``run_until`` call: every workload's digest and event count are
    what they were unsliced.
    """

    FINE_SLICES = 256

    def __init__(self, meter: Meter, seed: int) -> None:
        super().__init__(seed=seed)
        self.meter = meter

    def run_until(self, time, max_events=None):
        meter = self.meter
        meter.mark(RUN)
        start = self.now
        step = (time - start) / self.FINE_SLICES
        fired = 0
        for index in range(1, self.FINE_SLICES + 1):
            edge = time if index == self.FINE_SLICES else start + index * step
            budget = None if max_events is None else max_events - fired
            fired += super().run_until(edge, max_events=budget)
            meter.lap()
            if meter.due():
                meter.respin()
        return fired


@dataclass
class Result:
    """What one repetition produced: counters and digest."""

    digest: str
    submitted: int
    completed: int
    rejected: int
    killed: int
    in_flight: int
    events: int                      # simulator events fired (0 on sqlite)
    conserved: bool = True           # per-tenant / RunReport conservation
    errored: int = 0                 # statements ended by an engine error
    exact: bool = True               # False: thread timing decides outcomes
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def counters(self) -> Tuple[int, ...]:
        """The tuple every repetition of a workload must reproduce."""
        if not self.exact:
            return (self.submitted,)
        return (self.completed, self.submitted, self.events)

    @property
    def unaccounted(self) -> int:
        """submitted - (completed + rejected + killed + in-flight)."""
        return self.submitted - (
            self.completed + self.rejected + self.killed + self.in_flight
        )

    @property
    def balanced(self) -> bool:
        """Conservation holds, overall and per tenant / per plan."""
        return self.conserved and self.unaccounted == 0

    @property
    def failed(self) -> int:
        """Operations the program lost or errored on.  A rejection or a
        kill *by policy* is a correct outcome of a workload manager and
        shows in ``failed_share``, not here; on ``sqlite_replay`` no
        policy is armed, so there a kill or an abort is an error."""
        return abs(self.unaccounted) + self.errored


# ----------------------------------------------------------------------
# closed_mpl96 / closed_mpl8: engine + generation, no controllers
# ----------------------------------------------------------------------
def _micro_jobs(population: int) -> WorkloadSpec:
    job = RequestClass(
        name="job",
        cpu=Exponential(0.012),
        io=Exponential(0.024),
        memory_mb=Uniform(4.0, 16.0),
        rows=Constant(1_000),
    )
    return WorkloadSpec(
        name="closed",
        request_classes=((job, 1.0),),
        arrivals=ClosedArrivals(
            population=population, think_time=Constant(0.01)
        ),
        priority=1,
    )


def _manager_result(manager: WorkloadManager, meter: Meter) -> Result:
    """Report phase of a single-manager run: rollups, then the digest."""
    meter.mark(REPORT)
    metrics = manager.metrics
    completed = killed = 0
    extras: Dict[str, float] = {}
    for name in sorted(metrics.workloads()):
        stats = metrics.stats_for(name)
        completed += stats.completions
        # an aborted query leaves the engine for good unless its
        # resubmission (counted as a fresh submission) comes back
        killed += stats.kills + stats.aborts
        extras[f"{name}.mean_rt_s"] = stats.mean_response_time() or 0.0
        extras[f"{name}.p95_rt_s"] = stats.percentile_response_time(95.0) or 0.0
    digest = outcome_digest(manager)
    meter.mark(END)
    return Result(
        digest=digest,
        submitted=manager.submitted_count,
        completed=completed,
        rejected=manager.rejected_count,
        killed=killed,
        in_flight=manager.outstanding_work(),
        events=manager.sim.events_fired,
        extras=extras,
    )


def _closed(
    seed: int, meter: Meter, population: int, mpl: int, horizon: float
) -> Result:
    meter.mark(SETUP)
    sim = SlicedSimulator(meter, seed)
    manager = WorkloadManager(
        sim, machine=MACHINE, scheduler=FCFSDispatcher(max_concurrency=mpl)
    )
    scenario = Scenario(specs=(_micro_jobs(population),), horizon=horizon)
    generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    manager.run(horizon, drain=0.0)
    return _manager_result(manager, meter)


def closed_mpl96(seed: int, meter: Meter) -> Result:
    return _closed(seed, meter, population=128, mpl=96, horizon=80.0)


def closed_mpl8(seed: int, meter: Meter, horizon: float = 120.0) -> Result:
    return _closed(seed, meter, population=32, mpl=8, horizon=horizon)


# ----------------------------------------------------------------------
# teradata_mix: all four taxonomy classes over an open OLTP + BI mix
# ----------------------------------------------------------------------
TERADATA = TeradataASMConfig(
    definitions=(
        TeradataWorkloadDefinition(
            name="tactical",
            application="order-entry",
            priority=3,
            allocation_weight=4.0,
        ),
        TeradataWorkloadDefinition(
            name="analytics",
            application="analytics",
            priority=1,
            allocation_weight=1.0,
            throttle=6,
            exceptions=(
                TeradataException(ThresholdKind.ELAPSED_TIME, 10.0, "demote"),
                TeradataException(ThresholdKind.ELAPSED_TIME, 40.0, "abort"),
            ),
        ),
    ),
    resource_filters=(
        QueryResourceFilter("no-monsters", max_estimated_work=30.0),
    ),
    global_mpl=48,
)

TERADATA_HORIZON = 70.0


def teradata_mix(seed: int, meter: Meter) -> Result:
    meter.mark(SETUP)
    sim = SlicedSimulator(meter, seed)
    manager = TERADATA.build().create_manager(
        sim, machine=MACHINE, control_period=0.5
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
        horizon=TERADATA_HORIZON,
    )
    generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    manager.run(TERADATA_HORIZON, drain=0.0)
    return _manager_result(manager, meter)


# ----------------------------------------------------------------------
# cluster_push_256 / cluster_pull_256: one spec, two binding policies
# ----------------------------------------------------------------------
CLUSTER_DRAIN = 4.0


def _cluster(seed: int, meter: Meter, dispatch: str) -> Result:
    meter.mark(SETUP)
    spec = load_scenario_file(SPEC_DIR / "cluster_256.json")
    policy = PolicyConfig(name=dispatch, dispatch=dispatch, placement="cost")
    sim = SlicedSimulator(meter, seed)
    result = run_scenario(spec, policy, seed=seed, drain=CLUSTER_DRAIN, sim=sim)
    meter.mark(REPORT)
    summary = summarize_run(result)
    tenants = summary["tenants"]
    ledgers = [result.tenant_ledger(name) for name in sorted(tenants)]
    conserved = all(
        ledger["intake"]
        == ledger["completed"]
        + ledger["rejected"]
        + ledger["killed"]
        + ledger["in_flight"]
        and ledger["in_flight"] >= 0
        for ledger in ledgers
    ) and sum(ledger["intake"] for ledger in ledgers) == summary["arrivals"]
    extras = {"resubmissions": float(summary["resubmitted"])}
    for name in sorted(tenants):
        for label, roll in sorted(tenants[name]["workloads"].items()):
            extras[f"{name}/{label}.p95_rt_s"] = roll["p95"] or 0.0
    meter.mark(END)
    return Result(
        digest=summary["digest"],
        submitted=summary["arrivals"],
        completed=summary["completed"],
        rejected=sum(ledger["rejected"] for ledger in ledgers),
        killed=sum(ledger["killed"] for ledger in ledgers),
        in_flight=sum(ledger["in_flight"] for ledger in ledgers),
        events=summary["events"],
        conserved=conserved,
        extras=extras,
    )


def cluster_push_256(seed: int, meter: Meter) -> Result:
    return _cluster(seed, meter, "push")


def cluster_pull_256(seed: int, meter: Meter) -> Result:
    return _cluster(seed, meter, "pull")


# ----------------------------------------------------------------------
# sqlite_replay: the real backend does the work, the simulator none
# ----------------------------------------------------------------------
SQLITE_HORIZON = 1800.0
SQLITE_THREADS = 2


def sqlite_replay(seed: int, meter: Meter) -> Result:
    meter.mark(SETUP)
    plan = plan_statements(
        [oltp_workload(), bi_workload()], horizon=SQLITE_HORIZON, seed=seed
    )
    plan_digest = plan.digest()
    # two connections on one shared-cache database collide now and then
    # (SQLITE_LOCKED); eight retries make a lost statement vanishingly rare
    config = RunConfig(
        mpl=SQLITE_THREADS,
        time_scale=1e-4,
        statement_timeout_s=10.0,
        max_retries=8,
    )
    meter.mark(RUN)
    # run_plan seeds the database (driver.setup) before it paces the
    # first statement; the traced repetition shows that share as
    # backends.driver.setup
    report = run_plan(SQLiteBackend(), plan, config)
    meter.mark(REPORT)
    service = [
        record.end_time - record.start_time
        for record in report.log
        if record.completed and record.start_time is not None
    ]
    p50, p95 = np.percentile(service, [50, 95]) if service else (0.0, 0.0)
    h = hashlib.sha256(plan_digest.encode("ascii"))
    h.update(json.dumps([report.planned, report.recorded]).encode("ascii"))
    extras = {
        "stmt_p50_ms": 1e3 * float(p50),
        "stmt_p95_ms": 1e3 * float(p95),
        "max_lateness_ms": 1e3 * report.max_lateness_s,
        "retries": float(report.retries),
    }
    meter.mark(END)
    return Result(
        digest=h.hexdigest(),
        submitted=report.planned,
        completed=report.completed,
        rejected=report.rejected,
        killed=report.killed + report.aborted,
        in_flight=report.planned - report.recorded,
        events=0,
        conserved=report.conserved,
        errored=report.killed + report.aborted,
        exact=False,
        extras=extras,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int                        # default; ``--seed`` offsets it
    threads: int
    repetition: Callable[[int, Meter], Result]

    @property
    def single_threaded(self) -> bool:
        return self.threads == 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("closed_mpl96", 7, 1, closed_mpl96),
        Workload("closed_mpl8", 9, 1, closed_mpl8),
        Workload("teradata_mix", 11, 1, teradata_mix),
        Workload("cluster_push_256", 29, 1, cluster_push_256),
        Workload("cluster_pull_256", 29, 1, cluster_pull_256),
        Workload("sqlite_replay", 31, SQLITE_THREADS, sqlite_replay),
    )
}

