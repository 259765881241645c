"""One connection slot per worker, with periodic health checks.

The backend runner's worker threads reuse connections instead of opening
one per statement: connection setup is the dominant cost for short OLTP
statements, and real drivers (dbworkload's run loop, DIRAC's pilot
pools) all amortize it the same way.  The runner starts ``mpl`` workers
over a pool of ``mpl`` slots and worker ``i`` only ever touches slot
``i``, so a connection is used by one thread at a time by construction:
there is no lock, no idle queue and no waiting for a free connection.
A slot connects on its first use, so a worker that never runs a
statement never opens a connection.

Health checking is amortized: every :data:`HEALTH_CHECK_EVERY`-th use
of a connection runs the driver's ``healthcheck``.  A failing
connection, or one released after a fatal error, is closed and its slot
emptied; the slot's next acquire reconnects.  A reconnect that raises
raises from that acquire and leaves the slot empty, so a later acquire
tries again.  A closed pool opens no connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

from repro.backends.base import BackendDriver
from repro.errors import ConfigurationError

#: Every Nth acquire of a slot runs ``driver.healthcheck`` on its connection.
HEALTH_CHECK_EVERY = 25


@dataclass
class PoolStats:
    """Counters exposed for reports and tests."""

    created: int = 0
    recycled: int = 0
    health_checks: int = 0
    health_failures: int = 0


class ConnectionPool:
    """``size`` connection slots; slot ``i`` belongs to worker ``i``."""

    def __init__(self, driver: BackendDriver, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        self.driver = driver
        self.size = size
        self.stats = PoolStats()
        self._conns: List[Any] = [None] * size
        self._uses = [0] * size
        self._closed = False

    def acquire(self, slot: int) -> Any:
        """Slot ``slot``'s connection, opened if the slot is empty."""
        conn = self._conns[slot]
        if conn is None:
            conn = self._connect(slot)
        uses = self._uses[slot] + 1
        self._uses[slot] = uses
        if uses % HEALTH_CHECK_EVERY == 0:
            self.stats.health_checks += 1
            try:
                healthy = self.driver.healthcheck(conn)
            except Exception:
                healthy = False
            if not healthy:
                self.stats.health_failures += 1
                self.release(slot)
                conn = self._connect(slot)
        return conn

    def _connect(self, slot: int) -> Any:
        if self._closed:
            raise ConfigurationError("connection pool is closed")
        conn = self._conns[slot] = self.driver.connect()
        self._uses[slot] = 0
        self.stats.created += 1
        return conn

    def release(self, slot: int) -> None:
        """Close slot ``slot``'s connection (it failed) and empty the
        slot, so the slot's next acquire reconnects."""
        self.stats.recycled += 1
        self._drop(slot)

    def _drop(self, slot: int) -> None:
        conn, self._conns[slot] = self._conns[slot], None
        if conn is not None:
            try:
                self.driver.close_connection(conn)
            except Exception:
                pass

    def close(self) -> None:
        """Close every open slot (after the workers that own them ended);
        a later acquire raises."""
        self._closed = True
        for slot in range(self.size):
            self._drop(slot)

    @property
    def live_connections(self) -> int:
        return sum(conn is not None for conn in self._conns)
