#!/usr/bin/env python3
"""Throttling lab: Parekh's PI utility throttling and Powley's query
throttling controllers side by side (paper §4.2.2).

An on-line backup utility and large ad-hoc queries degrade a production
workload; the lab runs each surveyed controller and prints its control
trajectory — the throttle level over time — so you can see the PI ramp,
the step controller's bisection, and the black-box model's probing.

Run:  python examples/throttling_lab.py
"""

from repro import MachineSpec, Simulator, WorkloadManager
from repro.core.interfaces import decisions_by
from repro.execution.throttling import (
    QueryThrottlingController,
    ThrottleMethod,
    UtilityThrottlingController,
)
from repro.reporting.figures import ascii_line_chart
from repro.workloads.generator import Scenario, utility_workload
from repro.workloads.models import (
    Constant,
    Exponential,
    OpenArrivals,
    RequestClass,
    WorkloadSpec,
)

HORIZON = 90.0
MACHINE = MachineSpec(cpu_capacity=2.0, disk_capacity=1.0, memory_mb=4096.0)


def production() -> WorkloadSpec:
    return WorkloadSpec(
        name="prod",
        request_classes=(
            (
                RequestClass(
                    "prod-q", cpu=Exponential(0.05), io=Exponential(0.4),
                    memory_mb=Constant(8.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=1.2),
        priority=3,
    )


def big_queries() -> WorkloadSpec:
    return WorkloadSpec(
        name="adhoc",
        request_classes=(
            (
                RequestClass(
                    "big", cpu=Constant(5.0), io=Constant(120.0),
                    memory_mb=Constant(64.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=0.0, phases=((5.0, 0.04),)),
        priority=1,
    )


def run(name, controller, background):
    sim = Simulator(seed=5)
    manager = WorkloadManager(
        sim,
        machine=MACHINE,
        execution_controllers=[controller],
        control_period=1.0,
        weight_fn=lambda q: 1.0,
    )
    scenario = Scenario(specs=(production(), background), horizon=HORIZON)
    generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    manager.run(HORIZON, drain=0.0)

    print(f"\n=== {name} ===")
    print(" ", manager.metrics.summary_line("prod", sim.now))
    history = decisions_by(manager.decisions, action="throttle")
    if history:
        chart = ascii_line_chart(
            [event.time for event in history],
            {"throttle": [event.detail for event in history]},
            title=f"{name}: throttle level over time",
            x_label="time (s)",
            y_label="sleep fraction",
            height=8,
            width=56,
        )
        print(chart)
    return manager


def main() -> None:
    run(
        "PI utility throttling (Parekh et al.)",
        UtilityThrottlingController(
            degradation_target=0.15, baseline_velocity=0.9
        ),
        utility_workload(count=2, at=5.0, io_seconds=200.0),
    )
    run(
        "Step-controller query throttling (Powley et al.)",
        QueryThrottlingController(
            velocity_goal=0.75, controller="step", large_query_work=20.0
        ),
        big_queries(),
    )
    run(
        "Black-box model query throttling (Powley et al.)",
        QueryThrottlingController(
            velocity_goal=0.75, controller="blackbox", large_query_work=20.0
        ),
        big_queries(),
    )
    run(
        "Interrupt-method throttling (one long pause per period)",
        QueryThrottlingController(
            velocity_goal=0.75,
            controller="step",
            method=ThrottleMethod.INTERRUPT,
            large_query_work=20.0,
        ),
        big_queries(),
    )


if __name__ == "__main__":
    main()
