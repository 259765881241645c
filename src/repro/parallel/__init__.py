"""Deterministic multi-process experiment runtime.

Our simulations are seed-deterministic and shared-nothing per run —
embarrassingly parallel.  This package supplies the runtime: picklable
task descriptors (:mod:`~repro.parallel.spec`), a process-pool runner
with warm start, chunked dispatch, bounded retry, timeouts and a serial
fallback (:mod:`~repro.parallel.runner`), task-key-ordered reduction
with SHA-256 digest verification (:mod:`~repro.parallel.digest`), and
canonical policy × seed sweeps (:mod:`~repro.parallel.sweep`).

The contract: for any task list, ``run_tasks(tasks, workers=N)``
returns the same ordered values — and the same combined digest — for
every ``N``.  The property suite and ``make bench-parallel`` enforce
it.
"""

from repro.parallel.digest import combine, dispatcher_digest, outcome_digest
from repro.parallel.runner import (
    SweepResult,
    TaskOutcome,
    default_chunk_size,
    run_tasks,
)
from repro.parallel.spec import RunTask, SweepSpec, make_task
from repro.parallel.sweep import (
    DEFAULT_SEEDS,
    rollup_table,
    run_policy_sweep,
)
from repro.parallel.tasks import (
    TASK_REGISTRY,
    execute_task,
    register_task,
    resolve_runner,
)

__all__ = [
    "DEFAULT_SEEDS",
    "RunTask",
    "SweepResult",
    "SweepSpec",
    "TASK_REGISTRY",
    "TaskOutcome",
    "combine",
    "default_chunk_size",
    "dispatcher_digest",
    "execute_task",
    "make_task",
    "outcome_digest",
    "register_task",
    "resolve_runner",
    "rollup_table",
    "run_policy_sweep",
    "run_tasks",
]
