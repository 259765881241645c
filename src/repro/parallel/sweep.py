"""Canonical sweeps: placement policy × seed grids with a rollup table.

This is the ``python -m repro sweep`` backend — the advisor-style
evaluation loop (WiSeDB trains over thousands of simulated workloads;
scheduling surveys sweep policy × seed grids) run on the deterministic
parallel runtime.  Every run is a ``scenario`` task over the
``cluster_overload`` spec under a ``dispatch/placement`` policy.  The
rollup is computed from results reduced in task order, so the printed
table is byte-identical for any worker count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.dispatcher import UNTENANTED
from repro.cluster.placement import POLICY_NAMES
from repro.parallel.runner import Log, SweepResult, run_tasks
from repro.parallel.spec import SweepSpec

DEFAULT_SEEDS = (42, 43, 44)


def run_policy_sweep(
    policies: Sequence[str] = POLICY_NAMES,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    workers: int = 1,
    log: Log = None,
    dispatch: str = "push",
    **scenario_params: object,
) -> SweepResult:
    """Run a placement-policy × seed grid over the cluster scenario
    (parallel when ``workers > 1``); ``scenario_params`` go to
    :func:`repro.scenarios.matrix.cluster_overload`."""
    from repro.scenarios import get_policy, get_scenario

    names = tuple(f"{dispatch}/{placement}" for placement in policies)
    # bad input fails here with one error, not once per worker
    for name in names:
        get_policy(name)
    get_scenario("cluster_overload", **scenario_params)
    spec = SweepSpec(
        runner="scenario",
        grid={"policy": names},
        seeds=tuple(int(s) for s in seeds),
        base={"scenario": "cluster_overload", **scenario_params},
    )
    return run_tasks(spec.tasks(), workers=workers, log=log)


def _fmt(value: Optional[float], width: int = 8) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:{width}.3f}"


def rollup_table(result: SweepResult) -> str:
    """Deterministic ASCII rollup: one row per run, then per-policy
    aggregates.  Built purely from the ordered result list."""
    header = (
        f"{'policy':<22} {'seed':>5} {'done':>6} {'rej':>5} {'resub':>5} "
        f"{'oltp p95':>8} {'bi mean':>8}  digest"
    )
    lines = [header, "-" * len(header)]
    by_policy: Dict[str, List[Dict[str, object]]] = {}
    for value in result.values:
        response = value["tenants"][UNTENANTED]["workloads"]
        lines.append(
            f"{str(value['policy']):<22} {value['seed']:>5} "
            f"{value['completed']:>6} {value['rejected']:>5} "
            f"{value['resubmitted']:>5} "
            f"{_fmt(response['oltp']['p95'])} {_fmt(response['bi']['mean'])}  "
            f"{str(value['digest'])[:12]}…"
        )
        by_policy.setdefault(str(value["policy"]), []).append(value)
    lines.append("-" * len(header))
    for policy in sorted(by_policy):
        runs = by_policy[policy]
        completed = sum(int(v["completed"]) for v in runs)
        rejected = sum(int(v["rejected"]) for v in runs)
        resubmitted = sum(int(v["resubmitted"]) for v in runs)
        p95s = [
            v["tenants"][UNTENANTED]["workloads"]["oltp"]["p95"] for v in runs
        ]
        worst = max((p95 for p95 in p95s if p95 is not None), default=None)
        lines.append(
            f"{policy + ' (all)':<22} {len(runs):>5} {completed:>6} "
            f"{rejected:>5} {resubmitted:>5} {_fmt(worst)} {_fmt(None)}  "
            f"worst-seed p95"
        )
    return "\n".join(lines)
