"""Task descriptors for the deterministic sweep runtime.

A :class:`RunTask` is a *picklable description* of one independent
simulation run: a runner (registered task name or ``module:function``
dotted path), a parameter mapping and a seed.  No live simulator,
manager or RNG object ever crosses the process boundary — a worker
rebuilds everything from ``(runner, params, seed)``, which is exactly
what makes parallel execution bit-identical to serial execution.

Reduction happens in task-list order regardless of which worker
finishes first (see :mod:`repro.parallel.runner`); a grid of runs is
expanded into tasks by :mod:`repro.scenarios.sweep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Parameter payload: sorted ``(name, value)`` pairs, hashable + picklable.
Params = Tuple[Tuple[str, object], ...]


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class RunTask:
    """One independent, reproducible simulation run.

    ``key`` uniquely identifies the task inside a sweep and fixes its
    position in the reduced output; two tasks with equal keys may not
    coexist in one sweep.
    """

    key: str
    runner: str
    params: Params = ()
    seed: int = 0

    @property
    def kwargs(self) -> Dict[str, object]:
        """The parameter mapping a worker calls the runner with."""
        return dict(self.params)

    def describe(self) -> str:
        parts = [f"{k}={_format_value(v)}" for k, v in self.params]
        parts.append(f"seed={self.seed}")
        return f"{self.runner}({', '.join(parts)})"


def make_task(
    runner: str,
    seed: int = 0,
    key: Optional[str] = None,
    **params: object,
) -> RunTask:
    """Build a single :class:`RunTask` with a derived default key."""
    frozen = tuple(sorted(params.items()))
    if key is None:
        bits = [f"{k}={_format_value(v)}" for k, v in frozen]
        bits.append(f"seed={seed}")
        key = f"{runner}[{';'.join(bits)}]"
    return RunTask(key=key, runner=runner, params=frozen, seed=int(seed))

