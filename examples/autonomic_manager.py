#!/usr/bin/env python3
"""The §5.3 vision, running: an autonomic MAPE loop managing a server.

A gold workload with a tight SLA shares the machine with waves of
problematic ad-hoc queries.  The AutonomicLoop monitors SLA attainment,
analyzes which running queries are problematic, plans the most
effective technique by utility (demote / throttle / suspend / kill) and
executes it — then releases controls when the goals recover.

The script prints the loop's decision log so you can watch the planner
pick techniques as the mix shifts.

Run:  python examples/autonomic_manager.py
"""

from repro import MachineSpec, Simulator, SLASet, WorkloadManager, response_time_sla
from repro.control.loop import AnalyzeStage, AutonomicLoop, ExecuteStage
from repro.core.interfaces import decisions_by
from repro.workloads.generator import Scenario
from repro.workloads.models import (
    Constant,
    Exponential,
    OpenArrivals,
    RequestClass,
    WorkloadSpec,
)

HORIZON = 180.0


def build_scenario() -> Scenario:
    gold = WorkloadSpec(
        name="gold",
        request_classes=(
            (
                RequestClass(
                    "gold-q",
                    cpu=Exponential(0.25),
                    io=Exponential(0.1),
                    memory_mb=Constant(16.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=1.0),
        priority=4,
    )
    adhoc = WorkloadSpec(
        name="adhoc",
        request_classes=(
            (
                RequestClass(
                    "monster",
                    cpu=Constant(300.0),
                    io=Constant(50.0),
                    memory_mb=Constant(128.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(
            rate=0.0,
            phases=((20.0, 0.08), (60.0, 0.0), (110.0, 0.08), (150.0, 0.0)),
        ),
        priority=1,
    )
    return Scenario(specs=(gold, adhoc), horizon=HORIZON)


def run(with_loop: bool):
    sim = Simulator(seed=7)
    loop = AutonomicLoop(
        analyzer=AnalyzeStage(problem_age=2.0, problem_work=10.0),
        effector=ExecuteStage(resubmit_delay=80.0),
    )
    manager = WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=1.0, disk_capacity=2.0, memory_mb=2048.0),
        execution_controllers=[loop] if with_loop else [],
        slas=SLASet([response_time_sla("gold", average=1.0, importance=4)]),
        control_period=2.0,
        weight_fn=lambda q: 1.0,
    )
    generator = build_scenario().build(
        sim, manager.submit, sessions=manager.sessions
    )
    manager.add_completion_listener(generator.notify_done)
    manager.run(HORIZON, drain=0.0)
    return manager, loop, sim


def main() -> None:
    print("Without the autonomic loop:")
    manager, _, sim = run(with_loop=False)
    print(" ", manager.metrics.summary_line("gold", sim.now))
    baseline_rt = manager.metrics.stats_for("gold").mean_response_time()

    print("\nWith the autonomic loop (Monitor->Analyze->Plan->Execute):")
    manager, loop, sim = run(with_loop=True)
    print(" ", manager.metrics.summary_line("gold", sim.now))
    managed_rt = manager.metrics.stats_for("gold").mean_response_time()
    attainment = manager.metrics.attainment(manager.slas, sim.now)
    print(f"  gold SLA attainment: {attainment.get('gold', 0.0):.0%}")

    print("\nLoop decision log (first 20 interventions):")
    shown = 0
    for event in decisions_by(manager.decisions, "AutonomicLoop"):
        print(f"  t={event.time:6.1f}s  {event.action} -> query {event.query_id}")
        shown += 1
        if shown >= 20:
            break

    print("\nActions taken:", {a.value: n for a, n in loop.actions_taken().items()})
    print(f"\nGold mean response time: {baseline_rt:.2f}s -> {managed_rt:.2f}s")


if __name__ == "__main__":
    main()
