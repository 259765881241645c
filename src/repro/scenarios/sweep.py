"""The sweep: every grid of runs in the repo is expanded and run here.

:func:`scenario_matrix_tasks` expands scenarios × policies × seeds into
deterministic ``scenario`` tasks, each noisy scenario's run followed by
its leakage companion (the same run, antagonists removed);
:func:`run_scenario_matrix` runs them over :mod:`repro.parallel`,
reduced in task order, so the sweep digest is identical for any worker
count.  ``python -m repro sweep`` (``cluster_overload`` ×
``dispatch/placement``, printed by :func:`rollup_table`), ``scenario
sweep/report`` and the bench gate's ``scenarios`` row are this one
call; seed replication is its ``seeds`` argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.dispatcher import UNTENANTED
from repro.errors import ConfigurationError
from repro.parallel.runner import SweepResult, run_tasks
from repro.parallel.spec import RunTask, make_task
from repro.scenarios.matrix import (
    get_policy,
    get_scenario,
    policy_names,
    scenario_names,
)

#: Seed replications for the committed matrix (one: the matrix is a
#: deterministic artifact, replications belong to research sweeps).
SCENARIO_SEEDS: Tuple[int, ...] = (42,)


def scenario_matrix_tasks(
    scenarios: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = SCENARIO_SEEDS,
    **params: object,
) -> List[RunTask]:
    """The ordered task list: the grid's runs plus leakage companions.

    ``scenarios`` and ``policies`` default to the committed matrix;
    ``params`` go to every scenario's builder.  Names and ``params`` are
    resolved here by the resolvers the workers will call: bad input is
    one error in the parent, not one per worker.  Order is (scenario,
    policy, seed, companion-last), so the sweep digest is stable.
    """
    if not seeds:
        raise ConfigurationError("a sweep needs at least one seed")
    chosen_policies = list(policies) if policies else list(policy_names())
    for policy in chosen_policies:
        get_policy(policy)
    tasks: List[RunTask] = []
    for scenario in scenarios if scenarios else scenario_names():
        runs: List[Dict[str, object]] = [{}]
        if get_scenario(scenario, **params).has_noisy:
            runs.append({"exclude_noisy": True})
        tasks.extend(
            make_task(
                "scenario",
                seed=int(seed),
                scenario=scenario,
                policy=policy,
                **params,
                **extra,
            )
            for policy in chosen_policies
            for seed in seeds
            for extra in runs
        )
    if len({task.key for task in tasks}) != len(tasks):
        raise ConfigurationError("sweep expansion produced duplicate keys")
    return tasks


def run_scenario_matrix(
    scenarios: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = SCENARIO_SEEDS,
    workers: int = 1,
    **params: object,
) -> SweepResult:
    """Run the grid (parallel when ``workers > 1``); digest-stable."""
    tasks = scenario_matrix_tasks(scenarios, policies, seeds, **params)
    return run_tasks(tasks, workers=workers)


def index_results(
    values: Sequence[Dict[str, object]],
) -> Dict[Tuple[str, str, int, bool], Dict[str, object]]:
    """``(scenario, policy, seed, exclude_noisy) -> summary`` lookup."""
    out: Dict[Tuple[str, str, int, bool], Dict[str, object]] = {}
    try:
        for value in values:
            key = (
                str(value["scenario"]),
                str(value["policy"]),
                int(value["seed"]),  # type: ignore[arg-type]
                bool(value.get("exclude_noisy", False)),
            )
            out[key] = dict(value)
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ConfigurationError(
            "malformed results: expected a list of run summaries, each a "
            "mapping carrying 'scenario', 'policy' and an integer 'seed'"
        ) from None
    return out


_ROW = "{:<22} {:>5} {:>6} {:>5} {:>5} {:>8} {:>8}  {}"
_COUNTERS = ("completed", "rejected", "resubmitted")


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}"


def rollup_table(result: SweepResult) -> str:
    """Deterministic ASCII rollup of an OLTP+BI cluster sweep: one row
    per run, then per-policy aggregates.  Built purely from the ordered
    result list."""
    header = _ROW.format(
        "policy", "seed", "done", "rej", "resub", "oltp p95", "bi mean", "digest"
    )
    rule = "-" * len(header)
    lines = [header, rule]
    by_policy: Dict[str, list] = {}
    for value in result.values:
        workloads = value["tenants"][UNTENANTED]["workloads"]
        p95 = workloads["oltp"]["p95"]
        lines.append(
            _ROW.format(
                value["policy"], value["seed"], *(value[c] for c in _COUNTERS),
                _fmt(p95), _fmt(workloads["bi"]["mean"]),
                f"{str(value['digest'])[:12]}…",
            )
        )
        by_policy.setdefault(str(value["policy"]), []).append((value, p95))
    lines.append(rule)
    for policy, runs in sorted(by_policy.items()):
        totals = (sum(int(value[c]) for value, _ in runs) for c in _COUNTERS)
        worst = max((p95 for _, p95 in runs if p95 is not None), default=None)
        lines.append(
            _ROW.format(
                f"{policy} (all)", len(runs), *totals, _fmt(worst), "-",
                "worst-seed p95",
            )
        )
    return "\n".join(lines)
