"""The deterministic multi-process task runner.

Independent seeded runs fan out over a ``ProcessPoolExecutor`` and the
results are reduced **in task order**, so the output — values and the
combined SHA-256 digest — is bit-identical to serial execution
regardless of worker count or completion order.  The determinism
contract:

* tasks are picklable descriptors (:class:`~repro.parallel.spec.RunTask`);
  workers rebuild the simulator from ``(runner, params, seed)`` and no
  live object crosses the process boundary;
* every task is itself seed-deterministic (the library-wide rule);
* reduction order is fixed by the task list, never by completion order.

Operationally there is one pass: tasks are cut into shards (chunked
dispatch amortizes IPC), each shard is dispatched — a future on a
warm-started pool, or run in place when there is none — and shards are
collected in dispatch order.  A task's exception is a per-task value,
so the rest of its shard completes; a shard-level failure (unpicklable
result, dead worker, pool broken on submit) fails exactly that shard's
tasks.  Nothing is retried: a seeded task fails the same way every
time.  ``workers <= 1``, a single task, or a platform that cannot start
a process pool run in this process.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.parallel.digest import combine
from repro.parallel.spec import RunTask
from repro.parallel.tasks import execute_task, runner_module

#: One run of one task: ``(value, None)`` or ``(None, error text)``.
Attempt = Tuple[Optional[Dict[str, object]], Optional[str]]


def _warm_import(modules: Tuple[str, ...]) -> None:
    """Worker initializer: pre-import task modules so the first real
    shard does not pay the import cost inside its timing window."""
    import importlib

    for name in modules:
        try:
            importlib.import_module(name)
        except Exception:  # tolerated: the shard will surface the error
            pass


def _execute_shard(tasks: Tuple[RunTask, ...]) -> List[Attempt]:
    """Run a shard's tasks in order, in a worker or in place.

    A task failure is captured per task so the rest of the shard still
    completes; the parent reports it.
    """
    attempts: List[Attempt] = []
    for task in tasks:
        try:
            attempts.append((execute_task(task), None))
        except Exception as error:
            attempts.append((None, f"{type(error).__name__}: {error}"))
    return attempts


@dataclass
class TaskOutcome:
    """Terminal state of one task."""

    task: RunTask
    value: Optional[Dict[str, object]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.value is not None


@dataclass
class SweepResult:
    """Every task's outcome in task order, plus run telemetry.

    :func:`run_tasks` raises rather than return a failed task, so every
    outcome here carries a value.
    """

    outcomes: List[TaskOutcome]
    workers: int
    wall_s: float
    fell_back_serial: bool = False

    @property
    def values(self) -> List[Dict[str, object]]:
        """Result dicts in task order."""
        return [o.value for o in self.outcomes]  # type: ignore[misc]

    @property
    def digest(self) -> str:
        """Combined SHA-256 over per-task digests in task order."""
        return combine(str(value.get("digest", "")) for value in self.values)


def _make_pool(
    workers: int, modules: Tuple[str, ...]
) -> Optional[ProcessPoolExecutor]:
    """A warm-started pool, or ``None`` where the platform cannot start
    one.  ``fork`` is preferred (cheap, inherits warm imports)."""
    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else "spawn"
    try:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(method),
            initializer=_warm_import,
            initargs=(modules,),
        )
    except (NotImplementedError, ImportError, OSError, ValueError):
        return None


def _dispatch(
    pool: Optional[ProcessPoolExecutor], tasks: Tuple[RunTask, ...]
) -> Union[Future, List[Attempt]]:
    """Start one shard: a future on the pool, or — with no pool — the
    attempts themselves, run in place."""
    if pool is None:
        return _execute_shard(tasks)
    try:
        return pool.submit(_execute_shard, tasks)
    except Exception as error:  # pool already broken
        return [(None, f"submit failed: {error}")] * len(tasks)


def _collect(
    dispatched: Union[Future, List[Attempt]], count: int
) -> List[Attempt]:
    """A dispatched shard's ``count`` attempts; a shard-level failure is
    every one of its tasks failing with the same error."""
    if isinstance(dispatched, list):
        return dispatched
    try:
        return dispatched.result()
    except Exception as error:  # unpicklable result, dead worker
        return [(None, f"{type(error).__name__}: {error}")] * count


def run_tasks(tasks: Sequence[RunTask], workers: int = 1) -> SweepResult:
    """Run every task once and reduce the results in task order.

    ``workers <= 1`` runs everything in-process — the same code path
    the workers execute.  Any failed task raises
    :class:`~repro.errors.ParallelExecutionError` with its error.
    """
    tasks = list(tasks)
    outcomes = [TaskOutcome(task=task) for task in tasks]
    if len({task.key for task in tasks}) != len(tasks):
        raise ConfigurationError("duplicate task keys in sweep")
    start = time.perf_counter()
    result = SweepResult(outcomes=outcomes, workers=max(1, workers), wall_s=0.0)
    pool = None
    if result.workers > 1 and len(tasks) > 1:
        modules = tuple(sorted({runner_module(task.runner) for task in tasks}))
        pool = _make_pool(result.workers, modules)
        result.fell_back_serial = pool is None
    # small enough to balance load, large enough to amortize IPC
    size = max(1, len(tasks) // (result.workers * 4))
    shards = [outcomes[i : i + size] for i in range(0, len(tasks), size)]
    try:
        dispatched = [
            _dispatch(pool, tuple(outcome.task for outcome in shard)) for shard in shards
        ]
        for shard, handle in zip(shards, dispatched):
            for outcome, (value, error) in zip(shard, _collect(handle, len(shard))):
                outcome.value, outcome.error = value, error
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    result.wall_s = round(time.perf_counter() - start, 3)
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        detail = "; ".join(f"{o.task.key}: {o.error}" for o in failed[:5])
        raise ParallelExecutionError(f"{len(failed)} task(s) failed: {detail}")
    return result
