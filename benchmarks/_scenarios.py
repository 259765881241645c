"""Scenario builders shared by the validation-experiment benches."""

from __future__ import annotations

from typing import Optional

from repro.cluster.node import NODE_MACHINE
from repro.core.interfaces import AdmissionController, Scheduler
from repro.core.manager import WorkloadManager
from repro.core.sla import SLASet
from repro.engine.executor import EngineConfig
from repro.engine.optimizer import OptimizerProfile
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.workloads.generator import Scenario, WorkloadGenerator
from repro.workloads.models import (
    ClosedArrivals,
    Constant,
    Exponential,
    LogNormal,
    OpenArrivals,
    RequestClass,
    Uniform,
    WorkloadSpec,
)

#: The standard simulated server used across experiments: the one box
#: every cluster node also runs on.
DEFAULT_MACHINE = NODE_MACHINE


def build_manager(
    sim: Simulator,
    scheduler: Optional[Scheduler] = None,
    admission: Optional[AdmissionController] = None,
    controllers=(),
    slas: Optional[SLASet] = None,
    machine: Optional[MachineSpec] = None,
    engine_config: Optional[EngineConfig] = None,
    control_period: float = 1.0,
    weight_fn=None,
) -> WorkloadManager:
    """A WorkloadManager on the standard machine."""
    return WorkloadManager(
        sim,
        machine=machine or DEFAULT_MACHINE,
        engine_config=engine_config,
        scheduler=scheduler,
        admission=admission,
        execution_controllers=list(controllers),
        slas=slas,
        control_period=control_period,
        weight_fn=weight_fn,
    )


def drive(
    manager: WorkloadManager,
    scenario: Scenario,
    drain: Optional[float] = None,
    max_events: Optional[int] = None,
) -> WorkloadGenerator:
    """Run a scenario to completion on a manager.

    ``max_events`` is an explicit event budget: exceeding it raises
    :class:`repro.errors.SimulationBudgetExceeded` instead of silently
    truncating the run (large scenarios must size their budget).
    """
    generator = scenario.build(
        manager.sim, manager.submit, sessions=manager.sessions
    )
    manager.add_completion_listener(generator.notify_done)
    manager.run(
        scenario.horizon,
        drain=scenario.horizon if drain is None else drain,
        max_events=max_events,
    )
    return generator


def closed_batch_workload(
    population: int = 64,
    think: float = 0.05,
    mean_cpu: float = 0.4,
    mean_io: float = 0.8,
    memory_low: float = 200.0,
    memory_high: float = 400.0,
    name: str = "closed",
) -> WorkloadSpec:
    """The thrashing-study workload: a closed population of mid-size
    jobs whose working memory oversubscribes the pool at high MPL."""
    job = RequestClass(
        name="job",
        cpu=Exponential(mean_cpu),
        io=Exponential(mean_io),
        memory_mb=Uniform(memory_low, memory_high),
        rows=Constant(1_000),
    )
    return WorkloadSpec(
        name=name,
        request_classes=((job, 1.0),),
        arrivals=ClosedArrivals(population=population, think_time=Constant(think)),
        priority=1,
    )


def lock_heavy_workload(
    population: int = 48,
    think: float = 0.02,
    lock_count: float = 12.0,
    name: str = "txns",
) -> WorkloadSpec:
    """Update transactions over a small hot set: data-contention study."""
    txn = RequestClass(
        name="update-txn",
        cpu=Exponential(0.08),
        io=Exponential(0.08),
        memory_mb=Constant(8.0),
        locks=Constant(lock_count),
        rows=Constant(10),
    )
    return WorkloadSpec(
        name=name,
        request_classes=((txn, 1.0),),
        arrivals=ClosedArrivals(population=population, think_time=Constant(think)),
        priority=2,
    )


def overload_mix(
    horizon: float = 120.0,
    oltp_rate: float = 12.0,
    bi_rate: float = 0.25,
    optimizer_error: float = 0.0,
) -> Scenario:
    """OLTP + aggressive BI: the consolidation overload of §1."""
    from repro.workloads.generator import bi_workload, oltp_workload

    return Scenario(
        specs=(
            oltp_workload(rate=oltp_rate, priority=3),
            bi_workload(
                rate=bi_rate,
                priority=1,
                median_cpu=10.0,
                median_io=20.0,
                sigma=0.8,
                memory_low=300.0,
                memory_high=900.0,
            ),
        ),
        horizon=horizon,
        optimizer_profile=OptimizerProfile(
            error_sigma=optimizer_error, cardinality_sigma=optimizer_error
        ),
    )


def three_class_scenario(horizon: float = 180.0) -> Scenario:
    """Gold / silver / bronze classes for the scheduling study (EXP5)."""
    gold = WorkloadSpec(
        name="gold",
        request_classes=(
            (
                RequestClass(
                    "gold-q",
                    cpu=Exponential(0.3),
                    io=Exponential(0.3),
                    memory_mb=Constant(32.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=2.0),
        priority=3,
    )
    silver = WorkloadSpec(
        name="silver",
        request_classes=(
            (
                RequestClass(
                    "silver-q",
                    cpu=Exponential(1.0),
                    io=Exponential(1.0),
                    memory_mb=Constant(64.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=0.8),
        priority=2,
    )
    bronze = WorkloadSpec(
        name="bronze",
        request_classes=(
            (
                RequestClass(
                    "bronze-q",
                    cpu=LogNormal(median=6.0, sigma=0.8),
                    io=LogNormal(median=6.0, sigma=0.8),
                    memory_mb=Uniform(100.0, 400.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=0.25),
        priority=1,
    )
    return Scenario(specs=(gold, silver, bronze), horizon=horizon)
