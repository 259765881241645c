"""EXP7 — throttling keeps protected work at its goals (§4.2.2, [64][65][66]).

Claims reproduced:

* Parekh et al.: a PI controller on production-performance degradation
  "maintain[s] performance of running workloads at an acceptable level"
  by throttling on-line utilities;
* Powley et al.: step-function and black-box controllers throttle large
  queries until high-priority requests meet their goals.

Setup: a stream of short production queries sharing the disk with an
on-line backup utility (PI case) or large analytical queries (Powley
case).  Expected shape: production/protected velocity is restored close
to its goal under every controller, and far above the uncontrolled
value; utilities still make progress (they are slowed, not starved).
"""

import functools

from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.execution.throttling import (
    QueryThrottlingController,
    ThrottleMethod,
    UtilityThrottlingController,
)
from repro.workloads.generator import Scenario, utility_workload
from repro.workloads.models import (
    Constant,
    Exponential,
    OpenArrivals,
    RequestClass,
    WorkloadSpec,
)

from benchmarks._scenarios import build_manager, drive
from benchmarks.conftest import write_result

HORIZON = 120.0
MACHINE = MachineSpec(cpu_capacity=2.0, disk_capacity=1.0, memory_mb=4096.0)


def _production():
    return WorkloadSpec(
        name="prod",
        request_classes=(
            (
                RequestClass(
                    "prod-q",
                    cpu=Exponential(0.05),
                    io=Exponential(0.4),
                    memory_mb=Constant(8.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=1.2),
        priority=3,
    )


def _utility_scenario():
    return Scenario(
        specs=(
            _production(),
            utility_workload(count=2, at=5.0, io_seconds=200.0),
        ),
        horizon=HORIZON,
    )


def _large_query_scenario():
    bigs = WorkloadSpec(
        name="adhoc",
        request_classes=(
            (
                RequestClass(
                    "big",
                    cpu=Constant(5.0),
                    io=Constant(120.0),
                    memory_mb=Constant(64.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=0.02, phases=((0.0, 0.0), (5.0, 0.04))),
        priority=1,
    )
    return Scenario(specs=(_production(), bigs), horizon=HORIZON)


def _prod_velocity(manager):
    stats = manager.metrics.stats_for("prod")
    velocities = stats.velocities
    if not velocities:
        return 0.0
    # steady state: second half of the completions
    tail = velocities[len(velocities) // 2 :]
    return sum(tail) / len(tail)


def run_variant(kind: str, seed=61):
    sim = Simulator(seed=seed)
    controllers = []
    scenario = _utility_scenario() if kind in ("none-utility", "pi") else _large_query_scenario()
    if kind == "pi":
        controllers = [
            UtilityThrottlingController(
                degradation_target=0.15, baseline_velocity=0.9
            )
        ]
    elif kind == "step":
        controllers = [
            QueryThrottlingController(
                velocity_goal=0.75, controller="step", large_query_work=20.0
            )
        ]
    elif kind == "blackbox":
        controllers = [
            QueryThrottlingController(
                velocity_goal=0.75, controller="blackbox", large_query_work=20.0
            )
        ]
    elif kind == "interrupt":
        controllers = [
            QueryThrottlingController(
                velocity_goal=0.75,
                controller="step",
                method=ThrottleMethod.INTERRUPT,
                large_query_work=20.0,
            )
        ]
    manager = build_manager(
        sim,
        machine=MACHINE,
        controllers=controllers,
        control_period=1.0,
        weight_fn=lambda q: 1.0,
    )
    drive(manager, scenario, drain=0.0)
    other = "utilities" if kind in ("none-utility", "pi") else "adhoc"
    other_stats = manager.metrics.stats_for(other)
    other_progress = sum(
        manager.engine.progress_of(q.query_id)
        for q in manager.engine.running_queries()
        if q.workload_name == other
    ) + other_stats.completions
    return {
        "prod_velocity": _prod_velocity(manager),
        "prod_completions": manager.metrics.stats_for("prod").completions,
        "other_progress": other_progress,
    }


@functools.lru_cache(maxsize=1)
def results():
    return {
        "uncontrolled (utility)": run_variant("none-utility"),
        "PI (Parekh)": run_variant("pi"),
        "uncontrolled (large queries)": run_variant("none-large"),
        "step (Powley)": run_variant("step"),
        "black-box (Powley)": run_variant("blackbox"),
        "interrupt method": run_variant("interrupt"),
    }


def test_exp7_throttling(benchmark):
    outcome = results()
    lines = ["EXP7 — request throttling [64][65][66]", ""]
    for name, row in outcome.items():
        lines.append(
            f"{name:>28}: prod velocity {row['prod_velocity']:.2f}, "
            f"prod n={row['prod_completions']}, "
            f"background progress {row['other_progress']:.2f}"
        )
    write_result("exp7_throttling", "\n".join(lines))

    # the uncontrolled baselines genuinely degrade production
    assert outcome["uncontrolled (utility)"]["prod_velocity"] < 0.7
    assert outcome["uncontrolled (large queries)"]["prod_velocity"] < 0.7
    # PI restores production near its acceptable level
    assert (
        outcome["PI (Parekh)"]["prod_velocity"]
        > outcome["uncontrolled (utility)"]["prod_velocity"] + 0.15
    )
    # every Powley controller restores the protected velocity
    for name in ("step (Powley)", "black-box (Powley)", "interrupt method"):
        assert (
            outcome[name]["prod_velocity"]
            > outcome["uncontrolled (large queries)"]["prod_velocity"] + 0.1
        ), name
    # throttled background work is slowed, not killed: it still holds
    # its state and advances (the PI pegs near max throttle because the
    # degradation target is unreachable while utilities run at all on
    # the shared disk, so progress is small but non-zero)
    assert outcome["PI (Parekh)"]["other_progress"] > 0.02
    assert outcome["step (Powley)"]["other_progress"] > 0.1

    benchmark.pedantic(lambda: run_variant("step", seed=62), rounds=1, iterations=1)
