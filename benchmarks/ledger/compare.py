"""``--compare A/ledger.json B/ledger.json``: the before/after rows.

One row per workload x end-to-end metric: A's value, B's value, the
delta, the bound the metric may worsen by, and a verdict.  The value of
``us_per_completion`` is its undisturbed cost (see ``protocol``); the
quartiles of the whole repetitions beside it say how disturbed each run
was, a cautious stand-in for the value's own run-to-run spread:

* ``ok`` — B's value is no worse than A's by more than the bound, and
  the spread (either side's quartile distance) fits within the bound,
  so "no worse" is a resolved statement;
* ``worse`` — B's value is worse by more than the bound *and* the
  quartile ranges are apart (B's better quartile is worse than A's
  worse one): the command exits non-zero;
* ``unresolved`` — the values or the spread exceed the bound but the
  quartile ranges still overlap: report it as unresolved, not as
  unchanged, and measure again.

All four end-to-end metrics are lower-is-better.  Below the rows come
the largest per-layer movers, which is where a saving or a regression
should be visible if it is real.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from .protocol import END_TO_END_UNITS

#: metric -> (relative bound, absolute floor of the bound)
BOUNDS: Dict[str, Tuple[float, float]] = {
    "us_per_completion": (0.10, 0.0),
    "setup_s": (0.25, 0.02),
    "peak_rss_mb": (0.10, 0.0),
    # exact on the simulator workloads; thread timing on sqlite_replay
    "failed_share": (0.0, 0.0),
}
FAILED_SHARE_FLOOR = {"sqlite_replay": 0.001}

MOVERS_SHOWN = 5


def allowed(metric: str, workload: str, base: float) -> float:
    """How much ``metric`` may worsen from ``base`` on ``workload``."""
    relative, floor = BOUNDS[metric]
    if metric == "failed_share":
        floor = FAILED_SHARE_FLOOR.get(workload, floor)
    return max(relative * abs(base), floor)


def verdict(a: dict, b: dict, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one lower-is-better row."""
    delta = b["value"] - a["value"]
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"])
    if delta > bound:
        return "worse" if b["q1"] > a["q3"] else "unresolved"
    return "ok" if spread <= bound else "unresolved"


def compare(a: dict, b: dict) -> Tuple[List[dict], List[dict]]:
    """Rows and per-layer movers for two loaded ledgers."""
    rows: List[dict] = []
    movers: List[dict] = []
    for name, before in a["workloads"].items():
        after = b["workloads"].get(name)
        if after is None:
            continue
        for metric in END_TO_END_UNITS:
            stats_a = before["end_to_end"][metric]
            stats_b = after["end_to_end"][metric]
            bound = allowed(metric, name, stats_a["value"])
            rows.append({
                "workload": name,
                "metric": metric,
                "a": stats_a["value"],
                "b": stats_b["value"],
                "delta": stats_b["value"] - stats_a["value"],
                "bound": bound,
                "verdict": verdict(stats_a, stats_b, bound),
            })
        layers_a, layers_b = before.get("per_layer"), after.get("per_layer")
        if not layers_a or not layers_b:
            continue
        moved = []
        for key, value_a in layers_a.items():
            value_b = layers_b.get(key)
            if key.endswith(".self_us") and value_a is not None and value_b is not None:
                moved.append((abs(value_b - value_a), key, value_a, value_b))
        for _, key, value_a, value_b in sorted(moved, reverse=True)[:MOVERS_SHOWN]:
            movers.append({"workload": name, "metric": key, "a": value_a, "b": value_b})
    return rows, movers


def _relative(delta: float, base: float) -> str:
    return f"{delta / base:+.1%}" if base else "   n/a"


def render(rows: List[dict], movers: List[dict], a: dict, b: dict) -> str:
    lines = [
        f"{'workload':<18}{'metric':<19}{'A':>12}{'B':>12}{'delta':>12}"
        f"{'':>8}{'bound':>11}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<18}{row['metric']:<19}{row['a']:>12.6g}"
            f"{row['b']:>12.6g}{row['delta']:>+12.4g}"
            f"{_relative(row['delta'], row['a']):>8}{row['bound']:>11.4g}"
            f"  {row['verdict']}"
        )
    lines.append("")
    lines.append("outputs (exact; compared, not gated — one declared re-baseline is allowed):")
    for name, before in a["workloads"].items():
        after = b["workloads"].get(name)
        if after is None:
            lines.append(f"  {name:<18} missing from B")
            continue
        same = "same" if before["digest"] == after["digest"] else "DIFFERS"
        lines.append(
            f"  {name:<18} digest {same}  completed {before['completed']} -> "
            f"{after['completed']}  events {before['events']} -> {after['events']}"
        )
    if movers:
        lines.append("")
        lines.append(f"largest per-layer movers (self us per completion, top {MOVERS_SHOWN} per workload):")
        for mover in movers:
            lines.append(
                f"  {mover['workload']:<18}{mover['metric']:<42}"
                f"{mover['a']:>10.2f} ->{mover['b']:>10.2f}"
                f"  ({mover['b'] - mover['a']:+.2f})"
            )
    return "\n".join(lines)


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare_files(path_a: Path, path_b: Path, out=None) -> int:
    """Print the comparison; 1 if any row is ``worse``, else 0."""
    a, b = load(path_a), load(path_b)
    rows, movers = compare(a, b)
    print(render(rows, movers, a, b), file=out)
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
