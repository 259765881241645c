"""Task runners: how a worker turns a :class:`RunTask` into a result.

A runner is resolved from the task's ``runner`` string either through
the registry (:func:`register_task` names; ``"scenario"`` is the only
built-in one) or as a ``module:function`` dotted path imported in the
worker process.  Either
way the runner is a plain function ``fn(seed=..., **params) -> dict``
that rebuilds its simulator from scratch — workers share nothing with
the parent but the task descriptor.

Result dicts should be small, picklable and carry a ``digest`` key so
the sweep-level reduction can verify determinism (see
:mod:`repro.parallel.digest`).
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.parallel.spec import RunTask

TaskRunner = Callable[..., Dict[str, object]]

TASK_REGISTRY: Dict[str, TaskRunner] = {}


def register_task(name: str) -> Callable[[TaskRunner], TaskRunner]:
    """Register ``fn`` under a short runner name usable in RunTasks."""

    def decorator(fn: TaskRunner) -> TaskRunner:
        TASK_REGISTRY[name] = fn
        return fn

    return decorator


def resolve_runner(runner: str) -> TaskRunner:
    """Registry name or ``module:function`` dotted path → callable."""
    fn = TASK_REGISTRY.get(runner)
    if fn is not None:
        return fn
    if ":" not in runner:
        raise ConfigurationError(
            f"unknown task runner {runner!r}: not registered and not a "
            "'module:function' path"
        )
    module_name, _, attr = runner.partition(":")
    module = importlib.import_module(module_name)
    fn = getattr(module, attr, None)
    if fn is None:
        raise ConfigurationError(f"{module_name!r} has no attribute {attr!r}")
    return fn


def runner_module(runner: str) -> str:
    """The module a worker must import to execute ``runner`` (warm-up)."""
    if runner in TASK_REGISTRY:
        return TASK_REGISTRY[runner].__module__
    return runner.partition(":")[0]


def execute_task(task: RunTask) -> Dict[str, object]:
    """Run one task in this process; the worker-side entry point.

    The same function executes tasks in serial fallback mode, so the
    parallel and serial paths are one code path by construction.
    """
    fn = resolve_runner(task.runner)
    start = time.perf_counter()
    value = fn(seed=task.seed, **task.kwargs)
    if not isinstance(value, dict):
        raise TypeError(
            f"task runner {task.runner!r} returned {type(value).__name__}, "
            "expected a result dict"
        )
    value = dict(value)
    value.setdefault("task_key", task.key)
    value["task_wall_s"] = round(time.perf_counter() - start, 3)
    return value


# ----------------------------------------------------------------------
# the built-in runner
# ----------------------------------------------------------------------
@register_task("scenario")
def run_scenario_task(
    seed: int = 42,
    scenario: str = "noisy_neighbor",
    policy: str = "baseline",
    exclude_noisy: bool = False,
    drain: Optional[float] = None,
    **params: object,
) -> Dict[str, object]:
    """One seeded scenario run, summarized: every cluster run a sweep,
    a gate row or a replication makes is this task.

    ``scenario`` and ``policy`` are names resolved in the worker (task
    descriptors stay picklable primitives) by
    :func:`repro.scenarios.get_scenario`, which takes ``params``, and
    :func:`repro.scenarios.get_policy`; ``exclude_noisy`` runs the
    leakage companion — the same scenario with its antagonist tenants
    removed.  The summary dict carries the conservation counters, the
    per-tenant ledgers, per-workload response aggregates, SLA verdicts
    and the scenario digest.
    """
    from repro.scenarios import get_policy, get_scenario, run_scenario
    from repro.scenarios.runner import summarize_run

    spec = get_scenario(scenario, **params)
    if exclude_noisy:
        spec = spec.without_noisy()
    result = run_scenario(spec, get_policy(policy), seed=seed, drain=drain)
    summary = summarize_run(result)
    summary["exclude_noisy"] = bool(exclude_noisy)
    return summary
