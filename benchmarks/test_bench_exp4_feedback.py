"""EXP4 — throughput-feedback admission converges near the optimal MPL.

Claim reproduced (Table 2, Heiss & Wagner [26]): adjusting the
admission limit by throughput feedback — raise while throughput rises,
reverse when it falls — finds the good operating region of the
throughput-vs-MPL curve without a model of the system.

Setup: the EXP1 workload with shorter jobs (so each measurement
interval sees a usable completion count — the signal the feedback
needs).  The controller starts both *below* (MPL 2) and *above* (MPL
16, past the knee where throughput has already fallen ~5x) the optimum.
Expected shape: from either start, settled throughput lands within a
modest factor of the best static MPL and far above the overloaded
reference; started above the knee, the controller walks the MPL down.

A sweep limitation documented for the record: started *deep* in
thrashing (MPL 40), the plant's completions are so rare that the
feedback signal is dominated by noise and descent becomes a slow random
walk — the known weakness of model-free hill climbing on a cliff-shaped
plant, cf. the conflict-ratio alternative of [56].
"""

import functools

from repro.admission.throughput_feedback import ThroughputFeedbackAdmission
from repro.core.interfaces import decisions_by
from repro.core.manager import FCFSDispatcher
from repro.engine.simulator import Simulator
from repro.reporting.figures import ascii_line_chart
from repro.workloads.generator import Scenario

from benchmarks._scenarios import build_manager, closed_batch_workload, drive
from benchmarks.conftest import MAJORITY, REPLICATES, seed_tally, write_result

HORIZON = 240.0
STATIC_SEED, FEEDBACK_SEED = 3, 31
MEAN_CPU, MEAN_IO = 0.15, 0.3


def _workload():
    return closed_batch_workload(mean_cpu=MEAN_CPU, mean_io=MEAN_IO)


def run_static(mpl: int, seed: int = STATIC_SEED, horizon: float = 120.0) -> float:
    sim = Simulator(seed=seed)
    manager = build_manager(
        sim, scheduler=FCFSDispatcher(max_concurrency=mpl), control_period=5.0
    )
    drive(manager, Scenario(specs=(_workload(),), horizon=horizon), drain=0.0)
    return manager.metrics.stats_for("closed").completions / horizon


def run_feedback(initial_mpl: int, seed: int = FEEDBACK_SEED):
    sim = Simulator(seed=seed)
    admission = ThroughputFeedbackAdmission(
        initial_mpl=initial_mpl,
        min_mpl=1,
        max_mpl=64,
        interval=10.0,
        step=2,
        hysteresis=0.1,
    )
    manager = build_manager(sim, admission=admission, control_period=5.0)
    drive(manager, Scenario(specs=(_workload(),), horizon=HORIZON), drain=0.0)
    stats = manager.metrics.stats_for("closed")
    return {
        "throughput": stats.throughput(window=HORIZON * 0.5, now=HORIZON),
        "mpl_history": [
            (event.time, event.detail)
            for event in decisions_by(
                manager.decisions, "ThroughputFeedbackAdmission", "set_mpl"
            )
        ],
        "final_mpl": admission.mpl,
    }


@functools.lru_cache(maxsize=1)
def replicates():
    """One outcome per replicate: both default seeds shifted together."""
    return [
        {
            "static": {
                mpl: run_static(mpl, seed=STATIC_SEED + shift)
                for mpl in (2, 4, 6, 8, 16)
            },
            "from-below": run_feedback(2, seed=FEEDBACK_SEED + shift),
            "from-above": run_feedback(16, seed=FEEDBACK_SEED + shift),
        }
        for shift in range(REPLICATES)
    ]


def test_exp4_feedback_mpl(benchmark):
    runs = replicates()
    outcome = runs[0]

    lines = ["EXP4 — Heiss-Wagner throughput feedback [26]", ""]
    lines.append(
        "static sweep: "
        + ", ".join(f"MPL {m}={t:.2f}/s" for m, t in outcome["static"].items())
    )
    for name in ("from-below", "from-above"):
        row = outcome[name]
        lines.append(
            f"{name:>10}: settled throughput {row['throughput']:.2f}/s, "
            f"final MPL {row['final_mpl']}"
        )
    history = outcome["from-above"]["mpl_history"]
    chart = ascii_line_chart(
        [t for t, _ in history],
        {"MPL": [m for _, m in history]},
        title="EXP4 — feedback MPL trajectory (start=16, past the knee)",
        x_label="time (s)",
        y_label="MPL",
        height=12,
    )

    best = [max(run["static"].values()) for run in runs]
    overloaded = [run["static"][16] for run in runs]
    claims = [
        # the knee exists: MPL 16 has already lost most of the peak
        ("static MPL 16 below half the best static setting",
         [over < top / 2.0 for over, top in zip(overloaded, best)]),
    ]
    for name in ("from-below", "from-above"):
        achieved = [run[name]["throughput"] for run in runs]
        claims += [
            # near-optimal: within 40% of the best static setting...
            (f"{name} settles within 40% of the best static setting",
             [got >= 0.6 * top for got, top in zip(achieved, best)]),
            # ...and well above the overloaded reference
            (f"{name} settles above 2x static MPL 16",
             [got > 2.0 * over for got, over in zip(achieved, overloaded)]),
        ]
    claims.append(
        # started above the knee, the controller walked the MPL down
        ("from-above ends below MPL 10",
         [run["from-above"]["final_mpl"] < 10 for run in runs])
    )
    seeds = range(FEEDBACK_SEED, FEEDBACK_SEED + REPLICATES)
    counts, tally = seed_tally(seeds, claims)
    tally.append(
        "  settled throughput by seed, from-below / from-above (/s): "
        + ", ".join(
            f"{run['from-below']['throughput']:.2f} / "
            f"{run['from-above']['throughput']:.2f}"
            for run in runs
        )
    )
    write_result(
        "exp4_feedback", "\n".join(lines + [""] + tally) + "\n\n" + chart
    )

    for (claim, _), count in zip(claims, counts):
        assert count >= MAJORITY, claim

    benchmark.pedantic(
        lambda: run_feedback(8, seed=FEEDBACK_SEED + 1), rounds=1, iterations=1
    )
