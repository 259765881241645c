"""EXP14 — the autonomic MAPE loop keeps workloads at their goals (§5.3).

Claim reproduced: the envisioned feedback loop — monitor performance,
analyze capacity and progress, plan the most effective technique by
utility, execute it — "takes effective actions and keeps the workloads
to meet their performance goals" under a shifting mix [80].

Setup: a gold workload with a tight SLA runs continuously; problematic
ad-hoc monsters arrive in two waves (a mix shift).  Compared: no
control vs. the AutonomicLoop.  Expected shape: with the loop, gold SLA
attainment is full and its mean response time drops several-fold; the
loop's decision log shows technique selection at work (including
releasing controls between waves).

Replicated over eight seeds, the mix shift breaks the goal without
control and the loop intervenes and improves gold's response time at
every seed, but "restores the 1 s goal with full attainment" holds at
two seeds of eight (the loop lands gold at 0.83-1.15 s around a 1.0 s
goal) and "halves the response time" at four: those two are recorded as
counts, not asserted.
"""

import functools

from repro.control.loop import AutonomicLoop, LoopAction
from repro.core.sla import SLASet, response_time_sla
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.workloads.generator import Scenario
from repro.workloads.models import (
    Constant,
    Exponential,
    OpenArrivals,
    RequestClass,
    WorkloadSpec,
)

from benchmarks._scenarios import build_manager, drive
from benchmarks.conftest import MAJORITY, REPLICATES, seed_tally, write_result

HORIZON = 180.0
SEEDS = range(141, 141 + REPLICATES)
MACHINE = MachineSpec(cpu_capacity=1.0, disk_capacity=2.0, memory_mb=2048.0)
GOLD_GOAL = 1.0


def _scenario():
    gold = WorkloadSpec(
        name="gold",
        request_classes=(
            (
                RequestClass(
                    "gold-q", cpu=Exponential(0.25), io=Exponential(0.1),
                    memory_mb=Constant(16.0),
                ),
                1.0,
            ),
        ),
        arrivals=OpenArrivals(rate=1.0),
        priority=4,
    )
    monsters = WorkloadSpec(
        name="adhoc",
        request_classes=(
            (
                RequestClass(
                    "monster", cpu=Constant(300.0), io=Constant(50.0),
                    memory_mb=Constant(128.0),
                ),
                1.0,
            ),
        ),
        # two waves: 20-60s and 110-150s
        arrivals=OpenArrivals(
            rate=0.0,
            phases=((20.0, 0.08), (60.0, 0.0), (110.0, 0.08), (150.0, 0.0)),
        ),
        priority=1,
    )
    return Scenario(specs=(gold, monsters), horizon=HORIZON)


def run_variant(with_loop: bool, seed=SEEDS[0]):
    from repro.control.loop import AnalyzeStage, ExecuteStage

    sim = Simulator(seed=seed)
    # tuned loop: detect problems after one control period and park
    # killed monsters for a while before resubmission (the "re-submitted
    # ... for later execution based on a policy" of §3.4)
    loop = AutonomicLoop(
        analyzer=AnalyzeStage(problem_age=2.0, problem_work=10.0),
        effector=ExecuteStage(resubmit_delay=80.0),
    )
    manager = build_manager(
        sim,
        machine=MACHINE,
        controllers=[loop] if with_loop else [],
        slas=SLASet([response_time_sla("gold", average=GOLD_GOAL, importance=4)]),
        control_period=2.0,
        weight_fn=lambda q: 1.0,
    )
    drive(manager, _scenario(), drain=0.0)
    gold = manager.metrics.stats_for("gold")
    attainment = manager.metrics.attainment(manager.slas, sim.now)
    return {
        "gold_rt": gold.mean_response_time(),
        "gold_n": gold.completions,
        "attainment": attainment.get("gold", 0.0),
        "actions": loop.actions_taken() if with_loop else {},
    }


@functools.lru_cache(maxsize=1)
def replicates():
    return [
        {
            "no-control": run_variant(False, seed=seed),
            "autonomic-loop": run_variant(True, seed=seed),
        }
        for seed in SEEDS
    ]


def _interventions(row):
    """Planned actions that are not a no-op (a win must not be one)."""
    return sum(
        count
        for action, count in row["actions"].items()
        if action not in (LoopAction.NONE, LoopAction.RELEASE)
    )


def test_exp14_autonomic_loop(benchmark):
    runs = replicates()
    lines = ["EXP14 — autonomic MAPE loop (§5.3, [80])", "", f"seed {SEEDS[0]}:"]
    for name, row in runs[0].items():
        actions = ", ".join(
            f"{action.value}x{count}" for action, count in row["actions"].items()
        )
        lines.append(
            f"{name:>15}: gold rt={row['gold_rt']:.3f}s (n={row['gold_n']}), "
            f"SLA attainment={row['attainment']:.2f}"
            + (f", actions: {actions}" if actions else "")
        )

    pairs = [(run["no-control"], run["autonomic-loop"]) for run in runs]
    (breaks, intervenes, helps, _restores, _halves), tally = seed_tally(
        SEEDS,
        [
            # the shifting mix genuinely breaks the goal without control
            ("no control: gold mean rt above the goal",
             [base["gold_rt"] > GOLD_GOAL for base, _ in pairs]),
            # it actually planned interventions (not a no-op win)
            ("loop plans >= 2 interventions",
             [_interventions(managed) >= 2 for _, managed in pairs]),
            ("loop lowers gold mean rt",
             [managed["gold_rt"] < base["gold_rt"] for base, managed in pairs]),
            ("loop restores the goal (rt <= goal, attainment 1.0)",
             [
                 managed["gold_rt"] <= GOLD_GOAL and managed["attainment"] == 1.0
                 for _, managed in pairs
             ]),
            ("loop at least halves gold mean rt",
             [managed["gold_rt"] < base["gold_rt"] / 2.0 for base, managed in pairs]),
        ],
    )
    tally.append(
        "  gold rt by seed, no control -> loop (s): "
        + ", ".join(
            f"{base['gold_rt']:.2f} -> {managed['gold_rt']:.2f}"
            for base, managed in pairs
        )
    )
    write_result("exp14_autonomic", "\n".join(lines + [""] + tally))

    assert breaks >= MAJORITY
    assert intervenes >= MAJORITY
    # "restores the goal" and "halves" are counts above, not assertions:
    # the loop lands gold just under or just over 1 s (docstring)
    assert helps >= MAJORITY

    benchmark.pedantic(
        lambda: run_variant(True, seed=SEEDS[0] + 1), rounds=1, iterations=1
    )
