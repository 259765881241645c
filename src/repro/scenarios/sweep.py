"""The scenario-matrix sweep: scenarios × policies over repro.parallel.

Expands the committed matrix (plus the leakage companions — each
noisy scenario re-run with its antagonists removed) into deterministic
``scenario`` tasks, runs them over the process-pool runtime and
reduces in task-key order, so the matrix rollup digest is identical
for any worker count.  The bench gate's ``scenarios`` row and ``python
-m repro scenario sweep/report`` both sit on this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.parallel.runner import Log, SweepResult, run_tasks
from repro.parallel.spec import RunTask, make_task
from repro.scenarios.matrix import (
    MATRIX_POLICIES,
    MATRIX_SCENARIOS,
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
) -> List[RunTask]:
    """The ordered task list: matrix runs plus leakage companions.

    Order is (scenario, policy, seed, companion-last) — deterministic,
    so the sweep digest is a stable artifact.
    """
    chosen_scenarios = list(scenarios) if scenarios else list(scenario_names())
    chosen_policies = list(policies) if policies else list(policy_names())
    unknown = [s for s in chosen_scenarios if s not in scenario_names()]
    if unknown:
        raise ConfigurationError(
            f"unknown scenarios {unknown}; choose from {scenario_names()}"
        )
    unknown = [p for p in chosen_policies if p not in policy_names()]
    if unknown:
        raise ConfigurationError(
            f"unknown policies {unknown}; choose from {policy_names()}"
        )
    noisy = {
        spec.name for spec in MATRIX_SCENARIOS if spec.has_noisy
    }
    tasks: List[RunTask] = []
    for scenario in chosen_scenarios:
        for policy in chosen_policies:
            for seed in seeds:
                tasks.append(
                    make_task(
                        "scenario",
                        seed=int(seed),
                        scenario=scenario,
                        policy=policy,
                    )
                )
                if scenario in noisy:
                    tasks.append(
                        make_task(
                            "scenario",
                            seed=int(seed),
                            scenario=scenario,
                            policy=policy,
                            exclude_noisy=True,
                        )
                    )
    return tasks


def run_scenario_matrix(
    scenarios: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = SCENARIO_SEEDS,
    workers: int = 1,
    log: Log = None,
) -> SweepResult:
    """Run the matrix (parallel when ``workers > 1``); digest-stable."""
    tasks = scenario_matrix_tasks(
        scenarios=scenarios, policies=policies, seeds=seeds
    )
    return run_tasks(tasks, workers=workers, log=log)


def index_results(
    values: Sequence[Dict[str, object]],
) -> Dict[Tuple[str, str, int, bool], Dict[str, object]]:
    """``(scenario, policy, seed, exclude_noisy) -> summary`` lookup."""
    out: Dict[Tuple[str, str, int, bool], Dict[str, object]] = {}
    for value in values:
        key = (
            str(value["scenario"]),
            str(value["policy"]),
            int(value["seed"]),  # type: ignore[arg-type]
            bool(value.get("exclude_noisy", False)),
        )
        out[key] = dict(value)
    return out
