"""Measure one workload in a process of its own.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

This is the command ``BENCHMARK.json`` names, and the child process the
full ``python -m benchmarks.ledger`` command starts per workload.  It
finds the program next to the benchmark (``src/repro`` of the checkout
it sits in), pins ``PYTHONHASHSEED=0`` by re-running itself once, runs
the protocol, prints every metric by name with its unit and ends its
standard output with one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(
            f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
            env=env,
        ).returncode
    # ``ledger`` is imported as a top-level package so the measuring
    # process never runs benchmarks/__init__.py (which imports pytest)
    sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]
    from ledger.cli import measure_main

    return measure_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
