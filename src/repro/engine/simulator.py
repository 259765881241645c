"""Discrete-event simulation core: clock, event queue and RNG streams.

The :class:`Simulator` owns simulated time.  Components schedule callbacks
at absolute times or after delays; the simulator fires them in time order
with deterministic FIFO tie-breaking (events scheduled earlier run first
when times are equal).  Periodic processes — monitors, controllers,
arrival generators — are built from the same primitive via
:meth:`Simulator.schedule_periodic`.

Determinism rules used throughout the library:

* no wall-clock reads — time only advances through the event loop;
* all randomness comes from named, seeded :class:`numpy.random.Generator`
  streams obtained via :meth:`Simulator.rng`, so adding a new random
  consumer does not perturb existing streams.

Throughput notes (see DESIGN.md §7): a heap entry is the tuple ``(time,
seq, event)``, ordered by ``heapq`` with C float/int compares; ``seq``
is unique, lives nowhere else, and keeps the :class:`Event` (the
cancellation handle, one ``__slots__`` object per callback) from ever
being compared.  A cancelled entry stays queued until it is popped and
skipped.  :meth:`Simulator.defer` runs an action once every event of
the current instant has fired, so an engine that changed state N times
at one instant solves its reallocation once.
"""

from __future__ import annotations

import heapq
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationBudgetExceeded, SimulationError


class Event:
    """A scheduled callback: the cancellation handle of one heap entry.

    The simulator's heap holds ``(time, seq, event)``; the tuple decides
    the order (time, then FIFO by ``seq`` among events of one instant)
    and the event carries only what firing and cancelling need.
    """

    __slots__ = ("time", "action", "label", "cancelled")

    def __init__(self, time: float, action: Callable[[], None], label: str) -> None:
        self.time = time
        self.action = action
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event's action from running when it is dequeued."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6f}, {self.label!r}, {state})"


def _over_budget(what: str, budget: int, fired: int) -> SimulationBudgetExceeded:
    return SimulationBudgetExceeded(
        f"{what} exceeded max_events={budget}; "
        "possible event storm or undersized budget",
        budget=budget,
        fired=fired,
    )


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  Every named stream handed out by :meth:`rng` is
        derived from it with :func:`numpy.random.SeedSequence.spawn`-style
        hashing, so two simulators built with the same seed produce
        identical behaviour.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._now = 0.0
        #: heap of ``(time, seq, event)``; see the module docstring
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._rngs: Dict[str, np.random.Generator] = {}
        self._events_fired = 0
        #: actions waiting for the current instant to end; see :meth:`defer`
        self._deferred: Deque[Callable[[], None]] = deque()

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (useful for run-cost stats)."""
        return self._events_fired

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    def rng(self, stream: str) -> np.random.Generator:
        """Return the named random stream, creating it on first use.

        Streams are independent of one another and stable across runs:
        the generator for a given ``(seed, stream)`` pair is always
        identical.
        """
        if stream not in self._rngs:
            # zlib.crc32 is stable across processes (unlike built-in str
            # hashing, which is salted), keeping streams reproducible.
            seed_seq = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(zlib.crc32(stream.encode("utf-8")),)
            )
            self._rngs[stream] = np.random.Generator(np.random.PCG64(seed_seq))
        return self._rngs[stream]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self, time: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run at absolute simulated ``time``."""
        now = self._now
        if not time >= now:  # the past, or NaN (which would break heap order)
            if not time >= now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at {time:.6f}: NaN or in the past "
                    f"(now={now:.6f})"
                )
            time = now
        event = Event(time, action, label)
        heapq.heappush(self._queue, (time, self._seq, event))
        self._seq += 1
        return event

    def schedule(
        self, delay: float, action: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``action`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, action, label=label)

    def schedule_periodic(
        self,
        period: float,
        action: Callable[[], None],
        start: Optional[float] = None,
        label: str = "",
    ) -> "_PeriodicProcess":
        """Run ``action`` every ``period`` seconds until stopped.

        The first firing happens at ``start`` (defaults to ``now +
        period``).  Returns a :class:`_PeriodicProcess` whose ``stop()``
        halts future firings.
        """
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        process = _PeriodicProcess(self, period, action, label)
        first = (self._now + period) if start is None else start
        process._arm(first)
        return process

    def defer(self, action: Callable[[], None]) -> None:
        """Run ``action`` once every event of the current instant has fired.

        Deferred actions run in the order they were deferred, before the
        clock moves on and before :meth:`run_until` or :meth:`run`
        returns; events they schedule at the current instant fire after
        them, and an action deferred while they run joins the same
        flush.  One deferred outside a run runs in the next run, after
        the events due at the current time.  An execution engine defers
        its fair-share solve here, so N state changes at one instant
        cost one solve.
        """
        self._deferred.append(action)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_until(self, time: float, max_events: Optional[int] = None) -> int:
        """Run events until simulated ``time`` (inclusive of events at it).

        Returns the number of events fired by this call, which callers
        advancing in slices subtract from their ``max_events`` budget.
        ``run_until(sim.now)`` fires what is due now and flushes the
        deferred actions.  If ``max_events`` is given and exhausted
        before ``time`` is reached,
        :class:`~repro.errors.SimulationBudgetExceeded` is raised — the
        run never silently truncates.
        """
        if time != time:  # no event time compares above NaN: it would drain the heap
            raise SimulationError("cannot run until NaN")
        fired = self._dispatch(time, max_events, f"run_until({time})")
        if time != float("inf") and time > self._now:
            self._now = time
        return fired

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains (or ``max_events`` fire).

        Raises :class:`~repro.errors.SimulationBudgetExceeded` at the
        cap; pass an explicit ``max_events`` sized to the scenario when
        driving large runs so the budget is a deliberate choice rather
        than a silent default.
        """
        self._dispatch(float("inf"), max_events, "run()")

    def _dispatch(
        self, until: float, max_events: Optional[int], what: str
    ) -> int:
        """The one dispatch loop of :meth:`run_until` and :meth:`run`."""
        queue = self._queue
        deferred = self._deferred
        fired = 0
        while True:
            due = queue and queue[0][0] <= until
            if deferred and not (due and queue[0][0] == self._now):
                while deferred:  # the instant is over: flush before the clock moves
                    deferred.popleft()()
                continue
            if not due:
                return fired
            time, _, event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self._now = time
            self._events_fired += 1
            event.action()
            fired += 1
            if max_events is not None and fired >= max_events:
                raise _over_budget(what, max_events, fired)


@dataclass
class _PeriodicProcess:
    """A repeating event created by :meth:`Simulator.schedule_periodic`."""

    sim: Simulator
    period: float
    action: Callable[[], None]
    label: str = ""
    _stopped: bool = field(default=False, init=False)
    _handle: Optional[Event] = field(default=None, init=False)

    def _arm(self, time: float) -> None:
        if self._stopped:
            return
        self._handle = self.sim.schedule_at(time, self._fire, label=self.label)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.action()
        self._arm(self.sim.now + self.period)

    def stop(self) -> None:
        """Stop future firings (a firing already underway completes)."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
