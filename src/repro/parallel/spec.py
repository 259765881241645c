"""Task descriptors for the deterministic sweep runtime.

A :class:`RunTask` is one independent simulation run, called as
``fn(seed=seed, **params)``.  ``fn`` is a module-level function and the
parameters are values (numbers, strings, frozen specs), so a task
pickles as it is: pickle sends ``fn`` by reference.  No live simulator,
manager or RNG crosses the process boundary — ``fn`` rebuilds its run
from the values, which is what makes parallel execution bit-identical
to serial execution.  A grid of runs is expanded into tasks by
:mod:`repro.scenarios.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

#: A task's function: ``fn(seed=..., **params) -> result dict``.
TaskFn = Callable[..., Dict[str, object]]


@dataclass(frozen=True)
class RunTask:
    """One independent, reproducible simulation run.

    ``key`` uniquely identifies the task inside a sweep and fixes its
    position in the reduced output; two tasks with equal keys may not
    coexist in one sweep.
    """

    key: str
    fn: TaskFn
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0


def make_task(
    fn: TaskFn, seed: int = 0, key: Optional[str] = None, **params: object
) -> RunTask:
    """Build a single :class:`RunTask`; the default key is ``fn``'s name
    with the sorted parameters and the seed."""
    if key is None:
        bits = [f"{k}={v}" for k, v in sorted(params.items())]  # str(float) is its repr
        bits.append(f"seed={seed}")
        key = f"{fn.__name__}[{';'.join(bits)}]"
    return RunTask(key=key, fn=fn, params=params, seed=int(seed))
