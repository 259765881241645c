"""EXP5 — utility-based scheduling meets multi-class SLOs (§3.3, [60]).

Claim reproduced: in a multi-class mix, a scheduler that plans
per-class cost limits with utility functions (Niu et al.) meets the
important classes' service-level objectives where FCFS does not, and
does so without relying on a manually tuned static MPL.

Setup: gold (tight goal, importance 4) / silver / bronze (loose goal,
heavy queries) on the standard machine, compared across FCFS,
priority-queue, and the utility scheduler.  Expected shape: gold's SLA
attainment is ordered FCFS <= priority <= utility, and utility meets
gold's goal.
"""

import functools

from repro.core.manager import WaitQueue
from repro.scheduling.queues import by_priority
from repro.core.sla import SLASet, response_time_sla
from repro.engine.simulator import Simulator
from repro.scheduling.utility import ServiceClassConfig, UtilityScheduler

from benchmarks._scenarios import build_manager, drive, three_class_scenario
from benchmarks.conftest import write_result

GOLD_GOAL = 1.5
SILVER_GOAL = 8.0
BRONZE_GOAL = 120.0


def _slas():
    return SLASet(
        [
            response_time_sla("gold", average=GOLD_GOAL, importance=4),
            response_time_sla("silver", average=SILVER_GOAL, importance=2),
            response_time_sla("bronze", average=BRONZE_GOAL, importance=1),
        ]
    )


def _utility_scheduler():
    return UtilityScheduler(
        [
            ServiceClassConfig("gold", response_time_goal=GOLD_GOAL, importance=4),
            ServiceClassConfig(
                "silver", response_time_goal=SILVER_GOAL, importance=2
            ),
            ServiceClassConfig(
                "bronze", response_time_goal=BRONZE_GOAL, importance=1
            ),
        ],
        replan_interval=5.0,
        outstanding_window=6.0,
    )


def run_variant(scheduler, seed=41):
    sim = Simulator(seed=seed)
    manager = build_manager(
        sim, scheduler=scheduler, slas=_slas(), control_period=2.0
    )
    drive(manager, three_class_scenario(horizon=180.0), drain=90.0)
    rows = {}
    for workload in ("gold", "silver", "bronze"):
        stats = manager.metrics.stats_for(workload)
        rows[workload] = {
            "mean_rt": stats.mean_response_time(),
            "completions": stats.completions,
        }
    return rows


@functools.lru_cache(maxsize=1)
def results():
    return {
        "fcfs": run_variant(WaitQueue()),
        "priority": run_variant(WaitQueue(8, key=by_priority)),
        "utility": run_variant(_utility_scheduler()),
    }


def test_exp5_scheduling_disciplines(benchmark):
    outcome = results()
    lines = ["EXP5 — multi-class scheduling (Niu et al. [60])", ""]
    lines.append(
        f"goals: gold<={GOLD_GOAL}s  silver<={SILVER_GOAL}s  bronze<={BRONZE_GOAL}s"
    )
    for name, rows in outcome.items():
        cells = "  ".join(
            f"{workload}: rt={row['mean_rt']:.2f}s n={row['completions']}"
            for workload, row in rows.items()
            if row["mean_rt"] is not None
        )
        lines.append(f"{name:>9}: {cells}")
    write_result("exp5_scheduling", "\n".join(lines))

    gold_fcfs = outcome["fcfs"]["gold"]["mean_rt"]
    gold_utility = outcome["utility"]["gold"]["mean_rt"]
    # the utility scheduler meets gold's goal
    assert gold_utility <= GOLD_GOAL
    # and beats FCFS for gold by a clear margin
    assert gold_utility < gold_fcfs / 2.0
    # bronze still completes work under the utility plan (no starvation)
    assert outcome["utility"]["bronze"]["completions"] >= 10
    # all classes complete comparable volumes across schedulers
    for workload in ("gold", "silver"):
        assert (
            outcome["utility"][workload]["completions"]
            >= outcome["fcfs"][workload]["completions"] * 0.9
        )

    benchmark.pedantic(
        lambda: run_variant(_utility_scheduler(), seed=42),
        rounds=1,
        iterations=1,
    )
