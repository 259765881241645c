"""Exception hierarchy for the dbwm reproduction library.

All library-specific errors derive from :class:`DbwmError` so callers can
catch a single base class.  Control-flow outcomes that are *expected* in a
workload-management process (a rejected admission, a killed query) are
modelled as result values, not exceptions; the exceptions below indicate
misuse of the API or an internally inconsistent state.
"""

from __future__ import annotations


class DbwmError(Exception):
    """Base class for all errors raised by the library."""


class SimulationError(DbwmError):
    """The discrete-event simulator was driven into an invalid state."""


class SimulationBudgetExceeded(SimulationError):
    """An event budget (``max_events``) was exhausted before the run drained.

    Raised instead of silently truncating: a macro-scenario that stops at
    the cap would otherwise report partial counters and digests as if
    they were complete.  Carries the budget and the number of events
    fired so harnesses can report exactly where the run stopped.
    """

    def __init__(self, message: str, *, budget: int, fired: int) -> None:
        super().__init__(message)
        self.budget = budget
        self.fired = fired


class SchedulingError(DbwmError):
    """A scheduler was asked to do something it cannot do."""


class PolicyError(DbwmError):
    """A workload-management policy is malformed or inconsistent."""


class ConfigurationError(DbwmError):
    """A system model or manager was configured inconsistently."""


class QueryStateError(DbwmError):
    """An operation is not valid for the query's current lifecycle state."""


class ClassificationError(DbwmError):
    """A request or technique could not be classified."""


class CapacityError(DbwmError):
    """A resource pool was asked for more capacity than exists."""


class ParallelExecutionError(DbwmError):
    """A sweep task was still failing when its retry budget ran out."""
