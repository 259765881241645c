"""The bench gate: one row table, one ``run_row``, one ``check``, one ``main``.

``python -m benchmarks.perf`` runs every row the table declares for the
chosen mode and compares each result with its committed entry in
``BENCH_core.json`` (``{"ci": {row: entry}, "full": {row: entry},
"history": ...}``).  The question the gate answers is "does the
experiment still mean what it meant?": the seeded SHA-256 digest and
every integer counter must equal the committed ones exactly.

Wall time is printed beside its ratio to the recorded value and never
changes the exit status.  A single raw wall against a number recorded
on another machine is not a measurement: on one host the same passing
code ran at 0.47x (``matcher_push_64``) to 1.24x (``million_query``) of
its recorded wall, so a 2x bound let a 4.2x slowdown of push dispatch
through while a 1.6x slowdown of the million slice failed.  Speed is
judged by the ledger's noise-normalised parent-vs-change comparison
(``BENCHMARK.json``, ``benchmarks/ledger``).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from benchmarks.perf import scenarios as runs
from repro.parallel.runner import run_tasks
from repro.parallel.spec import TaskFn, make_task

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_core.json"

MODES = ("ci", "full")

#: result keys that are committed and must match the run exactly
GATED = (
    "digest",
    "plan_digest",
    "submitted",
    "completed",
    "events",
    "rejected",
    "arrivals",
    "statements",
    "runs",
    "matrix_runs",
    "resubmitted",
    "polls",
    "sim_time",
)
#: committed for the record, printed as a ratio, never compared
ADVISORY = ("wall_s",)


@dataclass(frozen=True)
class Row:
    """One gated experiment.

    ``params`` maps a mode to the runner's keyword arguments; a mode the
    mapping leaves out is not run.  ``shards`` names a parameter and its
    values: each value is an independent seeded sub-run, reduced in
    order.  ``repeat`` runs the row twice in ci mode and requires equal
    digests.  ``floor`` maps a mode to a ``(counter, minimum)`` the
    reduced run must reach, so a short run cannot be recorded as the
    macro-scenario.
    """

    name: str
    runner: TaskFn
    seed: int
    params: Mapping[str, Mapping[str, object]]
    shards: Optional[Tuple[str, Sequence[object]]] = None
    repeat: bool = False
    floor: Mapping[str, Tuple[str, int]] = field(default_factory=dict)


_SCALE = {"ci": {"scale": 0.08}, "full": {"scale": 1.0}}
#: EXP18's overload on 4 nodes, n1 down from 45% to 70% of the horizon
_KILL_N1 = {"scenario": "cluster_overload", "policy": "push/cost",
            "crashes": ((0.45, "n1", 0.7),)}


def _matcher(dispatch: str, nodes: int, horizon: float) -> Dict[str, object]:
    return {"scenario": "matcher_stress", "policy": f"{dispatch}/cost",
            "nodes": nodes, "horizon": horizon, "drain": 2.0 * horizon}


#: Seeds are part of the committed digests.
ROWS: Tuple[Row, ...] = (
    # fair-share reallocation over a large running set
    Row("high_mpl", runs.run_high_mpl_shard, 7, _SCALE,
        shards=("mpl", runs.HIGH_MPL_LEVELS), repeat=True),
    # the per-tick control loop over the running set
    Row("mixed_pipeline", runs.run_mixed_pipeline, 11, _SCALE, repeat=True),
    # streaming metrics polled every tick
    Row("sla_polling", runs.run_sla_polling, 13, _SCALE, repeat=True),
    # placement, crash evacuation, resubmission and recovery
    Row("cluster", runs.run_cluster_row, 19,
        {"ci": {**_KILL_N1, "horizon": 12.0, "drain": 212.0},
         "full": {**_KILL_N1, "horizon": 150.0, "drain": 350.0}}, repeat=True),
    Row("million_query", runs.run_million_query_shard, 23,
        {"ci": {"scale": 0.04}, "full": {"scale": 1.0}},
        shards=("shard", range(runs.MILLION_SHARD_COUNT)),
        floor={"ci": ("submitted", 40_000),
               "full": ("submitted", runs.MILLION_SUBMITTED_FLOOR)}),
    # push and pull share a seed: same arrivals, speeds and fault plan
    Row("matcher_push_64", runs.run_cluster_row, 29,
        {"ci": _matcher("push", 64, 10.0), "full": _matcher("push", 64, 120.0)}),
    Row("matcher_pull_64", runs.run_cluster_row, 29,
        {"ci": _matcher("pull", 64, 10.0), "full": _matcher("pull", 64, 120.0)}),
    Row("matcher_push_256", runs.run_cluster_row, 29,
        {"full": _matcher("push", 256, 120.0)}),
    Row("matcher_pull_256", runs.run_cluster_row, 29,
        {"full": _matcher("pull", 256, 120.0)}),
    Row("backend", runs.run_backend, 31,
        {"ci": {"horizon": 100.0, "time_scale": 0.005},
         "full": {"horizon": 600.0, "time_scale": 0.01}},
        floor={"ci": ("statements", 1_000), "full": ("statements", 6_000)}),
    Row("scenarios", runs.run_scenario_matrix, 42, {"ci": {}}),
)


def run_row(row: Row, mode: str, workers: int = 1) -> Dict[str, object]:
    """Run one row in one mode and return its reduced result.

    Every shard is a :mod:`repro.parallel` task.  ``run_tasks`` executes
    them in-process when ``workers <= 1`` and reduces in task order
    either way, so the digest does not depend on ``workers``.
    ``wall_s`` is the elapsed time of the shards' run.
    """
    axis, values = row.shards or (None, (None,))
    tasks = [
        make_task(
            row.runner,
            seed=row.seed,
            **row.params[mode],
            **({axis: value} if axis else {}),
        )
        for value in values
    ]

    def run() -> Dict[str, object]:
        sweep = run_tasks(tasks, workers=workers)
        reduced = runs.reduce_shards(sweep.values)
        reduced["wall_s"] = sweep.wall_s
        return reduced

    result = run()
    invariants = dict(result.get("invariants", {}))
    if row.repeat and mode == "ci":
        invariants["run_to_run_identical"] = run()["digest"] == result["digest"]
    if mode in row.floor:
        counter, minimum = row.floor[mode]
        invariants[f"{counter}_floor"] = result[counter] >= minimum
    result["invariants"] = invariants
    return result


def _digest(entry: Mapping[str, object]) -> str:
    return str(entry.get("digest") or entry.get("plan_digest"))


def check(
    results: Mapping[str, Mapping[str, object]],
    committed: Mapping[str, Mapping[str, object]],
    declared: Iterable[str],
    log: Callable[[str], None] = print,
) -> bool:
    """The gate: True iff every result equals its committed entry.

    ``results`` is ``{row: result}`` for the rows that ran, ``committed``
    the baseline's section for the mode and ``declared`` every row name
    the table has for the mode.  For each row, every committed key except
    ``wall_s`` must equal the run's value exactly and every invariant the
    run computed must hold.  A row with no committed entry fails, and so
    does a committed entry that no row declares — a renamed row or a
    dropped section must not gate nothing.
    """
    ok = True
    log(f"  {'row':<17} {'wall':>9} {'ratio':>6}  {'digest':<12}  counters")
    for name, result in results.items():
        entry = committed.get(name)
        failures = []
        if entry is None:
            entry = {}
            failures.append("no committed entry (record it with --update-baseline)")
        elif "digest" not in entry and "plan_digest" not in entry:
            failures.append("committed entry has no digest")
        for key, want in entry.items():
            if key not in ADVISORY and result.get(key) != want:
                failures.append(f"{key} {result.get(key)!r} != committed {want!r}")
        failures += [
            f"invariant {invariant} does not hold"
            for invariant, held in result["invariants"].items()
            if not held
        ]
        wall, recorded = float(result["wall_s"]), entry.get("wall_s")
        ratio = f"{wall / recorded:.2f}x" if recorded else "-"
        digest = _digest(result)
        counters = " ".join(
            f"{key}={result[key]}" for key in GATED if isinstance(result.get(key), int)
        )
        log(f"  {name:<17} {wall:8.3f}s {ratio:>6}  {digest[:12]}  {counters}")
        for failure in failures:
            log(f"  FAIL {name}: {failure}")
        ok = ok and not failures
    for name in sorted(set(committed) - set(declared)):
        log(f"  FAIL {name}: committed entry has no row in the table")
        ok = False
    log("  (wall and its ratio to the recorded wall are advisory, never gated)")
    return ok


def describe_rerecord(
    name: str, old: Optional[Mapping[str, object]], new: Mapping[str, object]
) -> str:
    """What ``--update-baseline`` is about to do to one entry, read from
    the entry it overwrites: ``old digest → new digest`` and each gated
    counter that moved, or ``digest only`` — the evidence line a declared
    re-baseline (DESIGN.md §7) quotes.  A key the old entry did not hold
    has no old value to compare: it is listed as newly gated.  When the
    digest is equal and only ``events`` moved, the line also gives events
    per completion before and after: the whole evidence of a change that
    fires fewer events for the same outcomes."""
    if old is None:
        return f"  {name}: new entry"
    old_digest, new_digest = _digest(old)[:12], _digest(new)[:12]
    counters = [key for key in GATED if "digest" not in key and key in new]
    moved_keys = [key for key in counters if key in old and old[key] != new[key]]
    moved = [f"{key} {old[key]} → {new[key]}" for key in moved_keys]
    moved += [f"{key} {old[key]} → dropped" for key in old if key not in new]
    added = [f"{key}={new[key]}" for key in counters if key not in old]
    if old_digest == new_digest and not moved and not added:
        return f"  {name}: {old_digest} unchanged"
    only_events = moved_keys == ["events"] and len(moved) == 1 and not added
    done = new.get("completed")
    if old_digest == new_digest and only_events and done:
        before, after = old["events"], new["events"]
        return (
            f"  {name}: {old_digest} digest unchanged  events {before} → {after} "
            f"({before / done:.2f} → {after / done:.2f} per completion)"
        )
    line = f"  {name}: {old_digest} → {new_digest}  {', '.join(moved) or 'digest only'}"
    return line + (f"; newly gated: {', '.join(added)}" if added else "")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Run the bench rows and gate their digests and counters "
        "against the committed BENCH_core.json; exit 1 on any mismatch.",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default="ci",
        help="ci: scaled-down rows sized for the workflow (default); "
        "full: the committed macro-scenario sizes",
    )
    parser.add_argument(
        "--only",
        metavar="ROW[,ROW...]",
        help="run only these rows (default: every row the mode declares)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="spread each row's shards over N worker processes "
        "(digests are identical to a serial run)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record this run's rows in BENCH_core.json instead of "
        "comparing them with it; other rows and modes are left alone",
    )
    parser.add_argument(
        "--json-out", metavar="PATH", help="also write the results as JSON"
    )
    args = parser.parse_args(argv)

    declared = [row for row in ROWS if args.mode in row.params]
    chosen = declared
    if args.only:
        names = args.only.split(",")
        unknown = sorted(set(names) - {row.name for row in declared})
        if args.update_baseline:
            # `make bench-baseline ROWS=...` runs each mode in turn: a row
            # only the other mode declares is recorded by that step
            elsewhere = sorted(set(unknown) & {row.name for row in ROWS})
            if elsewhere:
                print(f"skipping {', '.join(elsewhere)}: no {args.mode} row")
            unknown = [name for name in unknown if name not in elsewhere]
        if unknown:
            parser.error(
                f"no {args.mode} row named {', '.join(unknown)}; choose "
                f"from {', '.join(row.name for row in declared)}"
            )
        chosen = [row for row in declared if row.name in names]

    print(f"bench gate ({args.mode} mode, {args.workers} worker(s)):")
    results: Dict[str, Dict[str, object]] = {}
    for row in chosen:
        results[row.name] = run_row(row, args.mode, args.workers)
        print(f"  ran {row.name} in {results[row.name]['wall_s']}s", flush=True)

    baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
    section = baseline.setdefault(args.mode, {})
    if args.update_baseline:
        for name, result in results.items():
            entry = {k: result[k] for k in GATED + ADVISORY if k in result}
            print(describe_rerecord(name, section.get(name), entry))
            section[name] = entry
    ok = check(results, section, [row.name for row in declared])
    if args.update_baseline and ok and results:
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"recorded {', '.join(results)} under {args.mode!r} in {BASELINE_PATH}")
    if args.json_out:
        payload = {"mode": args.mode, "workers": args.workers, "ok": ok, "rows": results}
        Path(args.json_out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json_out}")
    print("gate: OK" if ok else "gate: FAILED")
    return 0 if ok else 1
