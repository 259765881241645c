"""EXP1 — the thrashing knee: throughput vs. MPL (paper §3.2).

Claim reproduced: "if the number of requests increases, throughput of
the system increases up to some maximum.  Beyond the maximum, it begins
to decrease dramatically as the system starts thrashing" [7][16][27].

Setup: a closed population of 64 mid-size jobs whose working memory
oversubscribes the buffer pool at high concurrency; a static-MPL
dispatcher sweeps the admission limit.  Expected shape: throughput
rises with MPL, peaks near the memory-feasible concurrency, then
collapses by an order of magnitude.
"""

import functools

from repro.core.manager import FCFSDispatcher
from repro.engine.simulator import Simulator
from repro.reporting.figures import ascii_line_chart
from repro.workloads.generator import Scenario

from benchmarks._scenarios import build_manager, closed_batch_workload, drive
from benchmarks.conftest import write_result

MPL_SWEEP = (1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64)
HORIZON = 120.0


def run_point(mpl: int, seed: int = 3) -> float:
    """Completed jobs per second at a static MPL."""
    sim = Simulator(seed=seed)
    manager = build_manager(
        sim, scheduler=FCFSDispatcher(max_concurrency=mpl), control_period=5.0
    )
    scenario = Scenario(specs=(closed_batch_workload(),), horizon=HORIZON)
    drive(manager, scenario, drain=0.0)
    return manager.metrics.stats_for("closed").completions / HORIZON


@functools.lru_cache(maxsize=1)
def sweep():
    return {mpl: run_point(mpl) for mpl in MPL_SWEEP}


def test_exp1_thrashing_knee(benchmark):
    throughput = sweep()
    xs = list(throughput)
    ys = [throughput[mpl] for mpl in xs]
    chart = ascii_line_chart(
        xs,
        {"throughput": ys},
        title="EXP1 — Throughput vs. MPL (closed population of 64)",
        x_label="MPL",
        y_label="jobs/s",
    )
    rows = "\n".join(f"MPL {mpl:>3}: {tput:6.2f} jobs/s" for mpl, tput in throughput.items())
    write_result("exp1_thrashing", chart + "\n\n" + rows)

    peak_mpl = max(throughput, key=throughput.get)
    peak = throughput[peak_mpl]
    # shape: rises to an interior peak...
    assert 2 <= peak_mpl <= 16
    assert peak > throughput[1] * 1.5
    # ...then decreases dramatically (paper's wording): >5x collapse
    assert throughput[max(MPL_SWEEP)] < peak / 5.0
    # monotone-ish fall past 2x the peak MPL
    tail = [throughput[mpl] for mpl in MPL_SWEEP if mpl >= 2 * peak_mpl]
    assert all(a >= b for a, b in zip(tail, tail[1:]))

    # time a single mid-sweep point (the simulation itself)
    benchmark.pedantic(
        lambda: run_point(8, seed=4), rounds=1, iterations=1
    )
