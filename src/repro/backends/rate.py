"""Rate control for real-backend runs: token bucket + arrival pacing.

Two complementary controls, mirroring dbworkload's ``--max-rate`` and
scheduled-run options:

* :class:`ArrivalPacer` maps the *scheduled* arrival times a workload
  spec's arrival process drew (Poisson, batch — the same
  :mod:`repro.workloads.models` processes the simulator consumes) onto
  the wall clock, optionally compressed/stretched by ``time_scale``.
  This is what makes a real run follow the same open-arrival shape as
  its simulated twin.
* :class:`TokenBucket` caps the *instantaneous* statement rate
  regardless of what the schedule asks for — the classic max-rate
  throttle protecting a shared backend from a flash crowd in the
  schedule.

Both take injectable ``clock``/``sleep`` callables so tests can drive
them on a virtual clock deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import ConfigurationError

Clock = Callable[[], float]
Sleep = Callable[[float], None]


class TokenBucket:
    """A max-rate gate: ``acquire`` blocks until a token is available.

    Tokens refill continuously at ``rate`` per second up to ``burst``;
    each statement consumes one.  With ``burst=1`` the bucket enforces a
    hard minimum spacing of ``1/rate`` seconds; larger bursts tolerate
    short clumps while holding the long-run average at ``rate``.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Clock = time.monotonic,
        sleep: Sleep = time.sleep,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate / 10.0)
        if self.burst < 1.0:
            raise ConfigurationError("burst must allow at least one token")
        self._clock = clock
        self._sleep = sleep
        self._tokens = self.burst
        self._last = clock()
        self.total_wait_s = 0.0
        self.acquired = 0

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last = now

    def acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens``, sleeping as needed; returns seconds waited."""
        self._refill()
        waited = 0.0
        if self._tokens < tokens:
            shortfall = tokens - self._tokens
            waited = shortfall / self.rate
            self._sleep(waited)
            self._refill()
        self._tokens = max(0.0, self._tokens - tokens)
        self.total_wait_s += waited
        self.acquired += 1
        return waited


class ArrivalPacer:
    """Plays a schedule of arrival offsets onto the wall clock.

    ``time_scale`` converts schedule seconds to real seconds: 1.0 paces
    in real time, 0.05 compresses a 60 s schedule into 3 s of wall clock
    (the CI setting), values above 1.0 slow it down.  The pacer never
    *delays* late arrivals — if execution fell behind schedule the next
    statement dispatches immediately and the lateness is reported.
    """

    def __init__(
        self,
        time_scale: float = 1.0,
        clock: Clock = time.monotonic,
        sleep: Sleep = time.sleep,
    ) -> None:
        if time_scale <= 0:
            raise ConfigurationError(
                f"time_scale must be positive, got {time_scale}"
            )
        self.time_scale = float(time_scale)
        self._clock = clock
        self._sleep = sleep
        self._t0: Optional[float] = None
        self.max_lateness_s = 0.0

    def start(self) -> float:
        """Anchor schedule time zero at the current clock; returns it."""
        self._t0 = self._clock()
        return self._t0

    def wait_until(self, scheduled: float) -> float:
        """Block until schedule instant ``scheduled``; returns lateness.

        A zero return means the arrival dispatched on time; positive is
        how far behind schedule the runner already was.
        """
        if self._t0 is None:
            raise ConfigurationError("pacer not started")
        target = self._t0 + scheduled * self.time_scale
        delta = target - self._clock()
        if delta > 0:
            self._sleep(delta)
            return 0.0
        lateness = -delta
        if lateness > self.max_lateness_s:
            self.max_lateness_s = lateness
        return lateness
