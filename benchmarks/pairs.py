"""Alternating pairs of the ledger command: a reference commit against
the working tree.

    python3 benchmarks/pairs.py --ref HEAD --workloads closed_mpl96 --pairs 10
    make ledger-pairs REF=HEAD W=closed_mpl96 N=10

The reference commit's committed files are extracted (``git archive``)
into a temporary directory, removed on exit.  For seed ``i = 1..N`` the
command ``BENCHMARK.json`` names runs there and in this working tree, as
``<command> --workload W --seed i --seconds S --trace 0`` with ``S`` its
``run_seconds``; odd pairs run the reference first, even pairs the change.  Each run's standard output
ends with one JSON object (``{"correct", "attempted", "failed",
"metrics"}``).  The report gives, per workload and end-to-end metric of
``BENCHMARK.json``, both medians with their quartiles, the change in the
median, in how many pairs the change reads better, and whether the
medians differ by more than the reference's own quartile distance.
Quartiles are ``statistics.quantiles``' default, as the ledger's own
summary computes them; a run that is not ``correct`` is reported, not
folded.

Standard library only: the tool measures checkouts, it imports neither.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("ref", "change")


def last_json(stdout: str) -> Optional[dict]:
    """The JSON object a ledger run ends its standard output with."""
    for line in reversed(stdout.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except ValueError:
                return None
    return None


def quartiles(values: List[float]):
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def reduce(records: Iterable[dict], end_to_end: List[dict]) -> List[dict]:
    """Fold run records into one row per workload and metric.

    A record is ``{"workload", "side", "seed", "result"}`` with ``side``
    ``"ref"`` or ``"change"`` and ``result`` a run's final JSON object;
    runs of one workload pair up by seed.  ``end_to_end`` is
    ``BENCHMARK.json``'s list of ``{"name", "better", ...}``.  Records
    whose result is not ``correct`` are left out.
    """
    runs: Dict[str, Dict[str, Dict[int, dict]]] = {}
    for record in records:
        if not record["result"].get("correct", False):
            continue
        sides = runs.setdefault(record["workload"], {side: {} for side in SIDES})
        sides[record["side"]][int(record["seed"])] = record["result"]
    rows = []
    for workload, sides in runs.items():
        seeds = sorted(set(sides["ref"]) & set(sides["change"]))
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            pairs = []
            for seed in seeds:
                ref = sides["ref"][seed].get("metrics", {}).get(name)
                change = sides["change"][seed].get("metrics", {}).get(name)
                if ref is not None and change is not None:
                    pairs.append((float(ref["value"]), float(change["value"])))
            if not pairs:
                continue
            ref_q = quartiles([ref for ref, _ in pairs])
            change_q = quartiles([change for _, change in pairs])
            better = sum((c < r) if lower else (c > r) for r, c in pairs)
            gain = ref_q[1] - change_q[1] if lower else change_q[1] - ref_q[1]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "ref": ref_q,
                    "change": change_q,
                    "delta": (change_q[1] / ref_q[1] - 1.0) if ref_q[1] else 0.0,
                    "better": better,
                    "pairs": len(pairs),
                    "beyond_iqr": gain > ref_q[2] - ref_q[0],
                }
            )
    return rows


def failures(records: Iterable[dict]) -> List[str]:
    """Runs whose final object is missing or says ``correct: false``."""
    return [
        f"{r['workload']} {r['side']} seed {r['seed']}"
        for r in records
        if not r["result"].get("correct", False)
    ]


def format_rows(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<18} {'ref median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'change':>8}  better  beyond IQR"
    ]
    for row in rows:
        (r1, rm, r3), (c1, cm, c3) = row["ref"], row["change"]
        lines.append(
            f"{row['workload']:<18} {row['metric']:<18} "
            f"{f'{rm:.4g} [{r1:.4g}, {r3:.4g}]':>34} "
            f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>34} "
            f"{row['delta']:>+8.1%}  {row['better']:>2}/{row['pairs']:<3}  "
            f"{'yes' if row['beyond_iqr'] else 'no'}"
        )
    return "\n".join(lines)


def extract(ref: str, into: Path) -> None:
    """Write the committed files of ``ref`` under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def measure(checkout: Path, command: List[str], workload: str, seed: int, seconds: float):
    argv = [*command, "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    return last_json(done.stdout) or {"correct": False, "stderr": done.stderr[-2000:]}


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="commit to hold the working tree against")
    parser.add_argument("--workloads", default=",".join(names), help="comma-separated")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(names))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workload(s) {unknown}" if unknown else "--pairs must be >= 1")

    records = []
    with tempfile.TemporaryDirectory(prefix="ledger-pairs-") as tmp:
        extract(args.ref, Path(tmp))
        checkouts = {"ref": Path(tmp), "change": ROOT}
        for workload in workloads:
            for seed in range(1, args.pairs + 1):
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    result = measure(checkouts[side], spec["command"], workload, seed, spec["run_seconds"])
                    record = {"workload": workload, "side": side, "seed": seed, "result": result}
                    records.append(record)
                    value = result.get("metrics", {}).get("us_per_completion", {}).get("value")
                    print(f"{workload} seed {seed} {side}: us_per_completion {value}", file=sys.stderr)
    print(format_rows(reduce(records, spec["end_to_end"])))
    failed = failures(records)
    for run in failed:
        print(f"failed: {run}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
