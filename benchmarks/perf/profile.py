"""One-command hotspot profiling: ``python -m benchmarks.perf.profile``.

Runs cProfile over a shortened ``high_mpl`` (the hot-path reference
scenario) and prints the top cumulative functions, so hotspot claims in
PRs are reproducible with ``make profile`` instead of ad-hoc snippets.

Options pick the scenario, MPL level, scale and row count; the defaults
match the kill-list workflow used for the columnar-engine optimization
pass (see DESIGN.md §7).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys


def profile_high_mpl(
    scale: float, mpl: int, top: int, sort: str
) -> pstats.Stats:
    """Profile one high_mpl shard; returns the collected stats."""
    from benchmarks.perf.scenarios import run_high_mpl_shard

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_high_mpl_shard(scale=scale, mpl=mpl)
    profiler.disable()
    print(
        f"profiled high_mpl shard: scale={scale} mpl={mpl} "
        f"completed={result['completed']} events={result['events']}"
    )
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top)
    print(stream.getvalue())
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.profile",
        description="cProfile a shortened high_mpl shard and print the "
        "top functions (the kill-list workflow).",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="scenario scale; 0.25 keeps the run under ~2s (default)",
    )
    parser.add_argument(
        "--mpl",
        type=int,
        default=96,
        help="MPL level of the profiled shard (default 96, the level "
        "that stresses the vectorized solve)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="number of functions to print (default 25)",
    )
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
        help="pstats sort order (default cumulative)",
    )
    args = parser.parse_args(argv)
    profile_high_mpl(args.scale, args.mpl, args.top, args.sort)
    return 0


if __name__ == "__main__":
    sys.exit(main())
