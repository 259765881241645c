"""Command lines of the ledger.

``main`` is ``python -m benchmarks.ledger``: it starts one measuring
process per workload (``run.py``, one at a time), lets each print its
metrics, folds their entries into ``ledger.json`` and exits non-zero if
any output failed verification.  ``--list`` and ``--compare`` do not
measure.  ``measure_main`` is the body of ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .calibration import CALIB_REF_S
from .compare import compare_files
from .protocol import (
    END_TO_END_UNITS,
    FULL_WINDOW_S,
    measure,
    per_layer_units,
)
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_OUT = "ledger-out"


def workload_whys() -> Dict[str, str]:
    """Why each workload was chosen, as ``BENCHMARK.json`` records it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {w["name"]: w["why"] for w in json.load(handle)["workloads"]}


# ----------------------------------------------------------------------
# the measuring process
# ----------------------------------------------------------------------
def _format(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_entry(entry: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    n = entry["end_to_end"]["us_per_completion"]["n"]
    print(
        f"== {entry['workload']}  seed {entry['seed']}  {n} timed repetitions  "
        f"{entry['threads']} thread(s)"
    )
    print(
        f"   digest {entry['digest']}\n"
        f"   submitted {entry['submitted']}  completed {entry['completed']}  "
        f"rejected {entry['rejected']}  killed {entry['killed']}  "
        f"in-flight {entry['in_flight']}  events {entry['events']}"
    )
    print("   end-to-end, value (median [q1, q3] of the timed repetitions):")
    for name, unit in END_TO_END_UNITS.items():
        stats = entry["end_to_end"][name]
        print(
            f"     {name:<44} {_format(stats['value']):>12} {unit:<8}"
            f"({_format(stats['median'])} [{_format(stats['q1'])}, "
            f"{_format(stats['q3'])}])"
        )
    if entry["per_layer"] is not None:
        print(
            "   per-layer, from the traced repetition "
            f"(seam self times add up to {entry['trace_coverage']:.1%} of its "
            "run + report wall):"
        )
        for name, unit in per_layer_units().items():
            print(f"     {name:<44} {_format(entry['per_layer'][name]):>12} {unit}")
        for seam in entry["missing_seams"]:
            print(f"   missing seam: {seam}")
        for target in entry["missing_targets"]:
            print(f"   unresolved seam target: {target}")
    for name, value in entry["outputs"].items():
        print(f"   output {name} = {_format(value)}")
    if entry["problems"]:
        for problem in entry["problems"]:
            print(f"   WRONG: {problem}")
    else:
        print("   outputs verified: digests, counters and conservation agree")


def result_line(entry: dict, trace: bool) -> str:
    """The one JSON object a benchmark driver reads off the last line.

    It requires numbers, so a metric that could not be measured here (a
    missing seam, the call count of a threaded workload) reads 0, and
    ``completed_share`` = 1 - ``failed_share`` stands in for a share
    that is 0 on ``sqlite_replay``.
    """
    metrics = {}
    if trace:
        for name, unit in per_layer_units().items():
            value = entry["per_layer"][name]
            metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    else:
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": entry["end_to_end"][name]["value"], "unit": unit}
        failed = metrics.pop("failed_share")
        metrics["completed_share"] = {"value": 1.0 - failed["value"], "unit": "share"}
    return json.dumps(
        {
            "correct": not entry["problems"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": metrics,
        }
    )


def pin_to_one_cpu() -> None:
    """Keep the measuring process on one CPU.

    Unpinned, ``sqlite_replay``'s two worker threads sometimes run truly
    in parallel and sometimes not, at the scheduler's whim: the same
    plan then sees 1 or 150 ``SQLITE_LOCKED`` sleep-and-retry cycles and
    its wall doubles.  On one CPU the interleaving is the interpreter
    lock's, and the single-threaded workloads stop migrating.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to the workload's fixed default seed")
    parser.add_argument("--seconds", type=float, default=FULL_WINDOW_S,
                        help="window of timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add the traced and counted repetitions and "
                             "report the per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for trace-<workload>.jsonl and the "
                             "workload's ledger entry")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()
    trace_path = None
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        if args.trace:
            trace_path = args.out / f"trace-{workload.name}.jsonl"
    entry = measure(
        workload,
        seed=workload.seed + args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        trace_path=trace_path,
    )
    print_entry(entry)
    if args.out is not None:
        with open(args.out / f"entry-{workload.name}.json", "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
    print(result_line(entry, bool(args.trace)))
    return 1 if entry["problems"] else 0


# ----------------------------------------------------------------------
# the full command
# ----------------------------------------------------------------------
def run_all(names: List[str], seed: int, seconds: float, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    whys = workload_whys()
    entries = {}
    status = 0
    for name in names:
        print(f"-- {name}: {whys.get(name, '')}", flush=True)
        child = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "1", "--out", str(out),
            ],
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        if child.returncode != 0:
            print(f"ledger: {name} failed (exit {child.returncode})", file=sys.stderr)
            status = 1
        fragment = out / f"entry-{name}.json"
        if fragment.exists():
            entries[name] = json.loads(fragment.read_text(encoding="utf-8"))
            fragment.unlink()
    ledger = {"calib_ref_s": CALIB_REF_S, "seed_offset": seed,
              "seconds": seconds, "workloads": entries}
    with open(out / "ledger.json", "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
    print(f"ledger: wrote {out / 'ledger.json'}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="The layered performance ledger: six workloads, "
        "noise-normalised us/completion, outside-in layer trace.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every workload's default seed")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="measure only this workload (repeatable)")
    parser.add_argument("--seconds", type=float, default=FULL_WINDOW_S,
                        help="window of timed repetitions per workload")
    parser.add_argument("--out", type=Path, default=Path(DEFAULT_OUT),
                        help="where ledger.json and trace-*.jsonl go")
    parser.add_argument("--list", action="store_true",
                        help="print the workloads and why each was chosen")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), type=Path,
                        help="compare two ledger.json files (A = before)")
    args = parser.parse_args(argv)
    if args.list:
        whys = workload_whys()
        for name, workload in WORKLOADS.items():
            print(f"{name}  (default seed {workload.seed}, "
                  f"{workload.threads} thread(s))\n    {whys.get(name, '')}")
        return 0
    if args.compare:
        return compare_files(*args.compare)
    return run_all(args.workload or list(WORKLOADS), args.seed, args.seconds, args.out)
