"""EXP3 — conflict-ratio load control avoids data-contention thrashing.

Claim reproduced (Table 2, Moenkeberg & Weikum [56]): gating new
transactions when the conflict ratio passes its critical value (≈1.3)
keeps a lock-heavy workload out of contention collapse.

Setup: a closed population of update transactions over a small hot set.
Uncontrolled, high concurrency drives blocking and wait-die aborts
(wasted work); with the conflict-ratio gate, admissions pause while the
ratio is critical.  Expected shape: with the gate, useful throughput
rises well above the contention-collapsed baseline and the wasted work
per completed transaction (aborts/completion) drops sharply.

Replicated over eight seeds the expected shape does *not* hold: this
plant is bimodal (a seed either sustains ~5-12 txn/s or collapses below
0.2 txn/s) with the gate and without it, "gate >= 2x throughput" held at
one seed of eight before the request streams moved and holds at one of
eight after, and where the gate halves the waste it does so by admitting
almost nothing.  The bench asserts what does replicate — the baseline is
genuinely contended — and records the rest as counts.
"""

import functools

from repro.admission.conflict_ratio import ConflictRatioAdmission
from repro.engine.executor import EngineConfig
from repro.engine.simulator import Simulator
from repro.workloads.generator import Scenario

from benchmarks._scenarios import build_manager, drive, lock_heavy_workload
from benchmarks.conftest import MAJORITY, REPLICATES, seed_tally, write_result

HORIZON = 90.0
SEEDS = range(21, 21 + REPLICATES)


def run_variant(admission=None, seed=SEEDS[0], hot_set=120):
    sim = Simulator(seed=seed)
    manager = build_manager(
        sim,
        admission=admission,
        engine_config=EngineConfig(hot_set_size=hot_set),
        control_period=0.5,
    )
    scenario = Scenario(
        specs=(lock_heavy_workload(population=48, lock_count=12.0),),
        horizon=HORIZON,
    )
    drive(manager, scenario, drain=0.0)
    stats = manager.metrics.stats_for("txns")
    return {
        "throughput": stats.completions / HORIZON,
        "aborts": stats.aborts,
        "completions": stats.completions,
    }


def _waste(row):
    return row["aborts"] / max(row["completions"], 1)


@functools.lru_cache(maxsize=1)
def replicates():
    return [
        {
            "uncontrolled": run_variant(None, seed=seed),
            "conflict-ratio<=1.3": run_variant(
                ConflictRatioAdmission(critical_ratio=1.3), seed=seed
            ),
        }
        for seed in SEEDS
    ]


def test_exp3_conflict_ratio_control(benchmark):
    runs = replicates()
    lines = [
        "EXP3 — Conflict-ratio admission control [56]",
        "",
        f"seed {SEEDS[0]}:",
    ]
    for name, row in runs[0].items():
        lines.append(
            f"{name:>20}: {row['throughput']:.2f} txn/s, "
            f"{row['aborts']} wait-die aborts, "
            f"{row['completions']} completed"
        )
    pairs = [(run["uncontrolled"], run["conflict-ratio<=1.3"]) for run in runs]
    (contended, _lifted, _halved), tally = seed_tally(
        SEEDS,
        [
            ("baseline is contended (> 50 wait-die aborts)",
             [base["aborts"] > 50 for base, _ in pairs]),
            ("gate >= 2x uncontrolled throughput",
             [gated["throughput"] >= base["throughput"] * 2.0 for base, gated in pairs]),
            ("gate halves aborts per completion",
             [_waste(gated) < _waste(base) / 2.0 for base, gated in pairs]),
        ],
    )
    lines += [""] + tally + [
        "  throughput by seed, uncontrolled -> gated (txn/s): "
        + ", ".join(
            f"{base['throughput']:.2f} -> {gated['throughput']:.2f}"
            for base, gated in pairs
        )
    ]
    write_result("exp3_conflict_ratio", "\n".join(lines))

    # contention is actually present in the baseline
    assert contended >= MAJORITY
    # "the gate lifts throughput 2x" and "halves the waste" are recorded
    # above as counts, not asserted: neither replicates (module docstring)

    benchmark.pedantic(
        lambda: run_variant(ConflictRatioAdmission(), seed=SEEDS[0] + 1),
        rounds=1,
        iterations=1,
    )
