"""EXP12 — priority aging demotes over-consuming queries (Table 3, [9]).

Claim reproduced: "when the running request ... executes longer than a
certain allowed time period, the request's service level will be
dynamically degraded, such as from a high level to a medium level, thus
reducing the amount of resources that the request can access" — DB2's
remap-to-lower-subclass action.

Setup: an over-consuming query admitted at the *high* service level
(the optimizer underestimated it) next to a stream of short tactical
queries at the same level.  With aging, threshold violations walk the
hog down the high → medium → low ladder.  Expected shape: demotion
events occur in ladder order, the hog's weight drops 4x, and tactical
mean response time improves materially versus no aging.
"""

import functools

from repro.core.interfaces import decisions_by
from repro.core.policy import Threshold, ThresholdAction, ThresholdKind
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.execution.reprioritization import (
    PriorityAgingController,
    ServiceClassLadder,
)
from repro.workloads.generator import Scenario
from repro.workloads.models import (
    Constant,
    Exponential,
    OpenArrivals,
    RequestClass,
    WorkloadSpec,
)
from repro.workloads.traces import QueryLog

from benchmarks._scenarios import build_manager, drive
from benchmarks.conftest import MAJORITY, REPLICATES, seed_tally, write_result

HORIZON = 120.0
SEEDS = range(121, 121 + REPLICATES)
MACHINE = MachineSpec(cpu_capacity=1.0, disk_capacity=2.0, memory_mb=4096.0)
LADDER = ServiceClassLadder()


def _scenario():
    hog = WorkloadSpec(
        name="hog",
        request_classes=(
            (
                RequestClass(
                    "runaway", cpu=Constant(200.0), io=Constant(10.0),
                    memory_mb=Constant(64.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=0.03, phases=((0.5, 0.0),)),
        priority=2,
    )
    tactical = WorkloadSpec(
        name="tactical",
        request_classes=(
            (
                RequestClass(
                    "t-q", cpu=Exponential(0.1), io=Exponential(0.05),
                    memory_mb=Constant(8.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=2.0),
        priority=2,
    )
    return Scenario(specs=(hog, tactical), horizon=HORIZON)


def run_variant(aging: bool, seed=SEEDS[0]):
    sim = Simulator(seed=seed)
    controller = PriorityAgingController(
        ladder=LADDER,
        thresholds=[
            Threshold(ThresholdKind.ELAPSED_TIME, 10.0, ThresholdAction.DEMOTE)
        ],
        demote_cooldown=10.0,
    )
    manager = build_manager(
        sim,
        machine=MACHINE,
        controllers=[controller] if aging else [],
        control_period=1.0,
        # everyone starts in the 'high' service level (weight 4)
        weight_fn=lambda q: LADDER.weight_of(q.service_class or LADDER.top),
    )
    log = QueryLog()
    manager.add_completion_listener(log.record_query)
    drive(manager, _scenario(), drain=0.0)
    tactical = manager.metrics.stats_for("tactical")
    hog_query = next(
        (q for q in manager.engine.running_queries() if q.workload_name == "hog"),
        None,
    )
    return {
        # query ids are process-global: the run's own numbering starts here
        "first_query_id": min(
            [record.query_id for record in log]
            + [q.query_id for q in manager.engine.running_queries()]
        ),
        "tactical_rt": tactical.mean_response_time(),
        "tactical_n": tactical.completions,
        "demotion_events": decisions_by(
            manager.decisions, "PriorityAgingController", "demote"
        ),
        "hog_weight": (
            manager.engine.weight_of(hog_query.query_id)
            if hog_query is not None
            else None
        ),
        "hog_class": hog_query.service_class if hog_query else None,
    }


@functools.lru_cache(maxsize=1)
def replicates():
    return [
        {
            "no-aging": run_variant(False, seed=seed),
            "priority-aging": run_variant(True, seed=seed),
        }
        for seed in SEEDS
    ]


def test_exp12_priority_aging(benchmark):
    runs = replicates()
    outcome = runs[0]
    aged = outcome["priority-aging"]
    lines = ["EXP12 — priority aging (DB2 service-subclass remap) [9]", ""]
    for name, row in outcome.items():
        lines.append(
            f"{name:>14}: tactical rt={row['tactical_rt']:.3f}s "
            f"(n={row['tactical_n']}), hog class={row['hog_class']}, "
            f"hog weight={row['hog_weight']}"
        )
    lines.append("")
    lines.append("demotion events (time, workload and query's ordinal in the run, new level):")
    for event in aged["demotion_events"]:
        ordinal = event.query_id - aged["first_query_id"] + 1
        lines.append(
            f"  t={event.time:.1f}s {event.workload} query #{ordinal} -> {event.detail}"
        )

    claims = [
        # the ladder was walked in order: high -> medium -> low
        ("first two demotions are -> medium, -> low",
         [
             [e.detail for e in run["priority-aging"]["demotion_events"][:2]]
             == ["medium", "low"]
             for run in runs
         ]),
        # the hog ends at the bottom with a 4x lower weight
        ("hog ends in 'low' at weight 1.0",
         [
             run["priority-aging"]["hog_class"] == "low"
             and run["priority-aging"]["hog_weight"] == 1.0
             for run in runs
         ]),
        # tactical work improves under aging
        ("tactical mean rt under aging < no-aging",
         [
             run["priority-aging"]["tactical_rt"] < run["no-aging"]["tactical_rt"]
             for run in runs
         ]),
        ("tactical mean rt under aging < 0.8x no-aging",
         [
             run["priority-aging"]["tactical_rt"]
             < run["no-aging"]["tactical_rt"] * 0.8
             for run in runs
         ]),
    ]
    counts, tally = seed_tally(SEEDS, claims)
    tally.append(
        "  tactical rt by seed, no-aging -> aging (s): "
        + ", ".join(
            f"{run['no-aging']['tactical_rt']:.3f} -> "
            f"{run['priority-aging']['tactical_rt']:.3f}"
            for run in runs
        )
    )
    write_result("exp12_priority_aging", "\n".join(lines + [""] + tally))

    for (claim, _), count in zip(claims, counts):
        assert count >= MAJORITY, claim

    benchmark.pedantic(
        lambda: run_variant(True, seed=SEEDS[0] + 1), rounds=1, iterations=1
    )
