"""Deterministic multi-process experiment runtime.

Our simulations are seed-deterministic and shared-nothing per run —
embarrassingly parallel.  This package supplies the runtime and nothing
else: picklable task descriptors (:mod:`~repro.parallel.spec`), a
process-pool runner with warm start, chunked dispatch, shard-level
failure isolation and a serial fallback
(:mod:`~repro.parallel.runner`), and task-ordered reduction with
SHA-256 digest verification (:mod:`~repro.parallel.digest`).  It
imports nothing from the simulator at import time; the grids of runs
it executes are built by :mod:`repro.scenarios.sweep`.

The contract: for any task list, ``run_tasks(tasks, workers=N)``
returns the same ordered values — and the same combined digest — for
every ``N``.  The property suite and ``make bench-parallel`` enforce
it.
"""

from repro.parallel.digest import combine, dispatcher_digest, outcome_digest
from repro.parallel.runner import SweepResult, TaskOutcome, run_tasks
from repro.parallel.spec import RunTask, make_task
from repro.parallel.tasks import (
    TASK_REGISTRY,
    execute_task,
    register_task,
    resolve_runner,
)

__all__ = [
    "RunTask",
    "SweepResult",
    "TASK_REGISTRY",
    "TaskOutcome",
    "combine",
    "dispatcher_digest",
    "execute_task",
    "make_task",
    "outcome_digest",
    "register_task",
    "resolve_runner",
    "run_tasks",
]
