"""Task runners: how a worker turns a :class:`RunTask` into a result.

A runner is resolved from the task's ``runner`` string either through
the registry (:func:`register_task` names, e.g. ``"cluster"``) or as a
``module:function`` dotted path imported in the worker process.  Either
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
# built-in runners
# ----------------------------------------------------------------------
def _summarize_dispatcher(dispatcher) -> Dict[str, object]:
    """Picklable rollup of a finished cluster run.

    Per-workload response aggregates come from the cluster's own
    :meth:`~repro.cluster.metrics.ClusterMetrics.rollup`, so a sweep row
    and the ``python -m repro cluster`` table report the same mean and
    p95 for the same run.  ``in_flight`` is measured (queued at the
    dispatcher plus outstanding on the nodes), never derived from the
    other counters, so callers can test conservation with it.
    """
    from repro.parallel.digest import dispatcher_digest

    # Digest first: rollup() reads every node's collector with
    # stats_for(), which creates an empty entry on a node that never saw
    # the workload, and the digest walks those entries.
    digest = dispatcher_digest(dispatcher)
    response: Dict[str, Dict[str, Optional[float]]] = {}
    for workload in dispatcher.metrics.workloads():
        roll = dispatcher.metrics.rollup(workload)
        if roll.mean_response_time is not None:
            response[workload] = {
                "count": roll.completions,
                "mean": roll.mean_response_time,
                "p95": roll.p95_response_time,
            }
    return {
        "dispatch": dispatcher.dispatch,
        "arrivals": dispatcher.arrivals,
        "completed": dispatcher.completions,
        "rejected": dispatcher.rejections,
        "in_flight": dispatcher.outstanding_work(),
        "resubmitted": dispatcher.resubmissions,
        "sim_time": dispatcher.sim.now,
        "events": dispatcher.sim.events_fired,
        "response": response,
        "digest": digest,
    }


@register_task("cluster")
def run_cluster_task(
    seed: int = 42,
    nodes: int = 4,
    policy: str = "cost",
    horizon: float = 60.0,
    drain: Optional[float] = None,
    oltp_rate: float = 30.0,
    bi_rate: float = 0.3,
    mpl: int = 2,
    max_queue_depth: Optional[int] = None,
    dispatch: str = "push",
) -> Dict[str, object]:
    """One seeded cluster run (the EXP18 scenario), summarized.

    Returns conservation counters, cluster-wide per-workload response
    aggregates and the run's :func:`dispatcher digest
    <repro.parallel.digest.dispatcher_digest>` — everything the sweep
    rollup and the determinism check need, nothing that can't pickle.
    """
    from repro.cluster.scenario import run_cluster_scenario

    dispatcher = run_cluster_scenario(
        seed=seed,
        nodes=nodes,
        policy=policy,
        horizon=horizon,
        drain=drain,
        oltp_rate=oltp_rate,
        bi_rate=bi_rate,
        mpl=mpl,
        max_queue_depth=max_queue_depth,
        dispatch=dispatch,
    )
    summary = _summarize_dispatcher(dispatcher)
    summary.update({"seed": seed, "policy": policy, "nodes": nodes})
    return summary


@register_task("scenario")
def run_scenario_task(
    seed: int = 42,
    scenario: str = "noisy_neighbor",
    policy: str = "baseline",
    exclude_noisy: bool = False,
    drain: Optional[float] = None,
) -> Dict[str, object]:
    """One seeded multi-tenant scenario run, summarized.

    ``scenario`` and ``policy`` are matrix names resolved in the worker
    (task descriptors stay picklable primitives); ``exclude_noisy``
    runs the leakage companion — the same scenario with its antagonist
    tenants removed.  The summary dict carries per-tenant conservation
    ledgers, SLA verdicts and the scenario digest.
    """
    from repro.scenarios import get_policy, get_scenario, run_scenario
    from repro.scenarios.runner import summarize_run

    spec = get_scenario(scenario)
    if exclude_noisy:
        spec = spec.without_noisy()
    result = run_scenario(spec, get_policy(policy), seed=seed, drain=drain)
    summary = summarize_run(result)
    summary["exclude_noisy"] = bool(exclude_noisy)
    return summary


@register_task("matcher")
def run_matcher_task(
    seed: int = 42,
    nodes: int = 64,
    dispatch: str = "pull",
    policy: str = "cost",
    horizon: float = 120.0,
    drain: Optional[float] = None,
    mpl: int = 2,
    oltp_rate_per_node: float = 6.0,
    bi_rate: float = 1.0,
    churn: bool = True,
    heterogeneous: bool = True,
) -> Dict[str, object]:
    """One seeded matcher stress run (push vs pull), summarized.

    Same rollup shape as the ``cluster`` task; the sweep-level digest
    combine over these is what the worker-count-stability tests pin.
    """
    from repro.cluster.scenario import run_matcher_scenario

    dispatcher = run_matcher_scenario(
        seed=seed,
        nodes=nodes,
        dispatch=dispatch,
        policy=policy,
        horizon=horizon,
        drain=drain,
        mpl=mpl,
        oltp_rate_per_node=oltp_rate_per_node,
        bi_rate=bi_rate,
        churn=churn,
        heterogeneous=heterogeneous,
    )
    summary = _summarize_dispatcher(dispatcher)
    summary.update({"seed": seed, "policy": policy, "nodes": nodes})
    return summary
