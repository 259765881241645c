"""EXP17 (extension) — progress indicators vs. manual thresholds (§3.4, §5.2).

Claims reproduced:

* "the difference between the use of query execution time thresholds
  and query progress indicators is that thresholds have to be manually
  set, whereas query progress indicators do not need human intervention"
  (§3.4);
* §5.2's open problem: with poor progress information "the query can be
  treated as a long-running query and killed... however the performance
  of important requests would not be improved as the query was not a
  big consumer".

Setup: a mix of genuinely huge "monster" queries and medium queries
that are slowed past the kill threshold by the monsters' interference.
Kill policies compared: an elapsed-time threshold (kills anything old —
including medium queries that are more than half done) vs. the same
threshold guarded by a progress indicator (spares work that is already
mostly complete).  A second measurement compares the three indicators'
remaining-time estimates on a query the optimizer underestimated 10x.  Expected
shape: the guarded policy wastes far less completed work while killing
the same real monsters; and the optimizer-only indicator misjudges
remaining time by orders of magnitude where the runtime indicators do
not.
"""

import functools

from repro.core.manager import WorkloadManager
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.execution.cancellation import QueryKillController, elapsed_time_kill
from repro.execution.progress import (
    OperatorBoundaryProgressIndicator,
    OptimizerCostProgressIndicator,
    SpeedAwareProgressIndicator,
)
from repro.workloads.generator import Scenario
from repro.workloads.models import (
    Constant,
    OpenArrivals,
    RequestClass,
    WorkloadSpec,
)
from repro.workloads.traces import QueryLog

from benchmarks._scenarios import build_manager, drive
from benchmarks.conftest import write_result

from tests.conftest import make_query, staged_plan

HORIZON = 150.0
MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=4.0, memory_mb=8192.0)


def _scenario():
    medium = WorkloadSpec(
        name="medium",
        request_classes=(
            (
                RequestClass(
                    "medium-q", cpu=Constant(40.0), io=Constant(5.0),
                    memory_mb=Constant(32.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=0.1),
        priority=1,
    )
    monsters = WorkloadSpec(
        name="monsters",
        request_classes=(
            (
                RequestClass(
                    "monster", cpu=Constant(500.0), io=Constant(50.0),
                    memory_mb=Constant(64.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=0.03),
        priority=1,
    )
    return Scenario(specs=(medium, monsters), horizon=HORIZON)


def run_policy(spare_over_progress, seed=201):
    sim = Simulator(seed=seed)
    controller = QueryKillController(
        [
            elapsed_time_kill(
                limit=45.0,
                max_priority=1,
                spare_over_progress=spare_over_progress,
            )
        ]
    )
    manager = build_manager(
        sim, machine=MACHINE, controllers=[controller], control_period=2.0
    )
    log = QueryLog()
    manager.add_completion_listener(log.record_query)
    drive(manager, _scenario(), drain=60.0)
    medium = manager.metrics.stats_for("medium")
    monsters = manager.metrics.stats_for("monsters")
    # work thrown away by kills (the §5.2 waste being measured)
    wasted = sum(
        r.true_cost.total_work
        for r in log
        if r.final_state.value == "killed" and r.workload == "medium"
    )
    return {
        "medium_done": medium.completions,
        "medium_killed": medium.kills,
        "monster_kills": monsters.kills,
        "wasted_medium_work": wasted,
    }


@functools.lru_cache(maxsize=1)
def kill_results():
    return {
        "threshold-only": run_policy(None),
        "progress-guarded": run_policy(0.5),
    }


def indicator_accuracy():
    """Remaining-time error of the three indicators on an
    underestimated query, halfway through its run."""
    sim = Simulator(seed=202)
    manager = WorkloadManager(sim, machine=MACHINE)
    query = make_query(cpu=40.0, io=0.0, est_cpu=4.0, plan=staged_plan())
    manager.submit(query)
    sim.run_until(20.0)  # true progress 0.5, 20s remaining
    context = manager
    true_remaining = 20.0
    rows = {}
    for name, indicator in (
        ("speed-aware", SpeedAwareProgressIndicator()),
        ("operator-boundary", OperatorBoundaryProgressIndicator()),
        ("optimizer-only", OptimizerCostProgressIndicator()),
    ):
        estimate = indicator.remaining_seconds(query, context)
        rows[name] = {
            "estimate": estimate,
            "error": abs(estimate - true_remaining),
        }
    return rows


def test_exp17_progress_indicators(benchmark):
    kills = kill_results()
    accuracy = indicator_accuracy()

    lines = ["EXP17 — progress indicators vs. manual thresholds (§3.4/§5.2)", ""]
    for name, row in kills.items():
        lines.append(
            f"{name:>17}: medium done={row['medium_done']} "
            f"killed={row['medium_killed']} "
            f"(wasted {row['wasted_medium_work']:.0f}s of work), "
            f"monster kills={row['monster_kills']}"
        )
    lines.append("")
    lines.append("remaining-time estimates at true remaining = 20.0s:")
    for name, row in accuracy.items():
        lines.append(
            f"  {name:>18}: {row['estimate']:.1f}s "
            f"(error {row['error']:.1f}s)"
        )
    write_result("exp17_progress", "\n".join(lines))

    threshold = kills["threshold-only"]
    guarded = kills["progress-guarded"]
    # the blind threshold kills nearly-done medium queries...
    assert threshold["medium_killed"] > 0
    # ...the progress guard completes more of them and wastes less work
    assert guarded["medium_done"] > threshold["medium_done"]
    assert guarded["wasted_medium_work"] < threshold["wasted_medium_work"]
    # both still cancel the real monsters
    assert guarded["monster_kills"] >= 1
    assert threshold["monster_kills"] >= 1

    # the runtime indicators estimate remaining time well; the
    # optimizer-only baseline is off by ~the whole remaining time
    assert accuracy["speed-aware"]["error"] < 1.0
    assert accuracy["operator-boundary"]["error"] < 10.0
    assert accuracy["optimizer-only"]["error"] > 15.0

    benchmark.pedantic(indicator_accuracy, rounds=1, iterations=1)
