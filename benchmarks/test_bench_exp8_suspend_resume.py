"""EXP8 — suspend/resume frees resources for high-priority bursts.

Claims reproduced (§4.2.3, Chandramouli et al. [10]):

* suspension "quickly suspend[s] long-running and low-priority queries
  when high-priority queries arrive" — protected latency during the
  burst approaches the unloaded latency;
* "although GoBack incurs a lower suspend cost than DumpState, it can
  result in a higher resume cost than DumpState" — measured directly
  from the suspend planner over a progress sweep;
* the optimal (MIP-equivalent) plan never exceeds either fixed strategy
  and respects a suspend-cost budget.
"""

import functools

from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.execution.suspend_resume import (
    SuspendResumeController,
    SuspendStrategy,
    plan_suspension,
)
from repro.workloads.generator import Scenario
from repro.workloads.models import (
    Constant,
    Exponential,
    OpenArrivals,
    RequestClass,
    WorkloadSpec,
)

from benchmarks._scenarios import build_manager, drive
from benchmarks.conftest import write_result

from tests.conftest import make_query, staged_plan

HORIZON = 120.0
MACHINE = MachineSpec(cpu_capacity=1.0, disk_capacity=2.0, memory_mb=4096.0)


def _scenario():
    bi = WorkloadSpec(
        name="bi",
        request_classes=(
            (
                RequestClass(
                    "crunch",
                    cpu=Constant(300.0),
                    io=Constant(100.0),
                    memory_mb=Constant(256.0),
                    plan_shape=("scan", "hash-build", "join", "sort", "aggregate"),
                    operator_state_mb=120.0,
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=0.05, phases=((0.1, 0.0),)),
        priority=1,
    )
    burst = WorkloadSpec(
        name="tactical",
        request_classes=(
            (
                RequestClass(
                    "t-q",
                    cpu=Exponential(0.3),
                    io=Exponential(0.1),
                    memory_mb=Constant(8.0),
                ),
                1.0,
            ),
        ),
        # quiet until t=30, then a burst of 2/s
        arrivals=OpenArrivals(rate=0.0, phases=((30.0, 2.0), (80.0, 0.0))),
        priority=3,
    )
    return Scenario(specs=(bi, burst), horizon=HORIZON)


def run_variant(controller=None, seed=71):
    sim = Simulator(seed=seed)
    controllers = [controller] if controller else []
    manager = build_manager(
        sim,
        machine=MACHINE,
        controllers=controllers,
        control_period=1.0,
        weight_fn=lambda q: 1.0,
    )
    drive(manager, _scenario(), drain=0.0)
    tactical = manager.metrics.stats_for("tactical")
    return {
        "tactical_mean_rt": tactical.mean_response_time(),
        "tactical_completions": tactical.completions,
        "suspensions": manager.metrics.stats_for("bi").suspensions,
    }


@functools.lru_cache(maxsize=1)
def burst_results():
    controller = SuspendResumeController(
        protected_priority=3,
        max_victim_priority=1,
        strategy=SuspendStrategy.OPTIMAL,
        min_victim_work=5.0,
        velocity_floor=0.8,
    )
    return {
        "no-control": run_variant(None),
        "suspend-resume": run_variant(controller),
    }


def strategy_costs():
    """Suspend/resume cost split per strategy over a progress sweep."""
    query = make_query(cpu=300.0, io=100.0, plan=staged_plan(state_mb=400.0))
    rows = []
    for progress in (0.25, 0.45, 0.65, 0.85):
        dump = plan_suspension(query, progress, SuspendStrategy.DUMP_STATE)
        go_back = plan_suspension(query, progress, SuspendStrategy.GO_BACK)
        optimal = plan_suspension(query, progress, SuspendStrategy.OPTIMAL)
        rows.append((progress, dump, go_back, optimal))
    return rows


def test_exp8_suspend_resume(benchmark):
    outcome = burst_results()
    costs = strategy_costs()

    lines = ["EXP8 — query suspend and resume [10]", "", "burst protection:"]
    for name, row in outcome.items():
        lines.append(
            f"{name:>15}: tactical rt={row['tactical_mean_rt']:.2f}s "
            f"(n={row['tactical_completions']}), bi suspensions={row['suspensions']}"
        )
    lines.append("")
    lines.append("strategy costs (suspend_cost / resume_cost seconds):")
    for progress, dump, go_back, optimal in costs:
        lines.append(
            f"  progress {progress:.2f}: DumpState {dump.suspend_cost:.2f}/"
            f"{dump.resume_cost:.2f}  GoBack {go_back.suspend_cost:.2f}/"
            f"{go_back.resume_cost:.2f}  Optimal {optimal.suspend_cost:.2f}/"
            f"{optimal.resume_cost:.2f}"
        )
    write_result("exp8_suspend_resume", "\n".join(lines))

    # suspension protects the tactical burst by a large factor
    baseline = outcome["no-control"]["tactical_mean_rt"]
    protected = outcome["suspend-resume"]["tactical_mean_rt"]
    assert outcome["suspend-resume"]["suspensions"] >= 1
    assert protected < baseline / 1.5
    assert (
        outcome["suspend-resume"]["tactical_completions"]
        >= outcome["no-control"]["tactical_completions"]
    )

    # the paper's cost trade-off, at every progress point with state
    for progress, dump, go_back, optimal in costs:
        assert go_back.suspend_cost <= dump.suspend_cost
        if dump.suspend_cost > 0:
            assert go_back.resume_cost >= dump.resume_cost
        assert optimal.total_overhead <= dump.total_overhead + 1e-9
        assert optimal.total_overhead <= go_back.total_overhead + 1e-9

    benchmark.pedantic(strategy_costs, rounds=3, iterations=1)
