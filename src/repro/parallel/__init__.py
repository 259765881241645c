"""Deterministic multi-process experiment runtime.

Our simulations are seed-deterministic and shared-nothing per run —
embarrassingly parallel.  This package supplies the runtime and nothing
else: picklable task descriptors (:mod:`~repro.parallel.spec`), a
process-pool runner with chunked dispatch, shard-level failure
isolation and a serial fallback
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
from repro.parallel.runner import SweepResult, TaskOutcome, execute_task, run_tasks
from repro.parallel.spec import RunTask, make_task

__all__ = [
    "RunTask",
    "SweepResult",
    "TaskOutcome",
    "combine",
    "dispatcher_digest",
    "execute_task",
    "make_task",
    "outcome_digest",
    "run_tasks",
]
