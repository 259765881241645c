"""The execution engine: runs admitted queries on shared resources.

The engine is a fluid-flow simulation of concurrent query execution.
Every running query advances a progress variable from 0 to 1 at a speed
determined by weighted max-min fair resource sharing
(:mod:`repro.engine.resources`), inflated I/O under memory pressure
(:mod:`repro.engine.bufferpool`), and lock waits
(:mod:`repro.engine.locks`).  The next milestone (a completion or a
lock-acquisition point) is scheduled on the simulator.

The sharing runs in virtual time (:mod:`repro.engine.runstore`, DESIGN.md
§7): in the two regimes with a closed form, one round and fits, every
row's progress is an affine function of one clock, so a start, an exit,
a weight or throttle change, a lock wait or wake touches one row's terms
in the growth sums and one heap entry, and the next milestone is the
heap's minimum.  Any other instant, a machine speed change and a change
of buffer-pool inflation take one exact resync.  The regime test runs
once per instant, however many changes the instant held: a change marks
it pending and defers it with
:meth:`~repro.engine.simulator.Simulator.defer`, and ``speed_of`` and
``utilization`` run a pending one early.  A granted lock point moves one
heap entry, and a lock point whose item no other live transaction lists
is no milestone at all (DESIGN.md §7).

Everything execution control needs is a first-class operation here:

* ``set_weight``     — query reprioritization / priority aging / economic
  resource allocation change the weight;
* ``set_throttle``   — request throttling caps the speed (0 pauses);
* ``set_speed``      — a slower machine (a slow or degraded cluster node)
  caps every query's speed; a throttle multiplies it;
* ``kill``           — query cancellation;
* ``abort``          — end an attempt ``ABORTED`` for its owner to
  restart, as a wait-die victim's attempt ends;
* ``remove_suspended`` — suspend-and-resume checkpoints then evicts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.engine.bufferpool import BufferPool
from repro.engine.locks import LockManager, LockOutcome
from repro.engine.query import Query, QueryState
from repro.engine.resources import MachineSpec, ResourceKind
from repro.engine.runstore import Row, RunStore
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError, QueryStateError

__all__ = [
    "CompletionOutcome",
    "CompletionCallback",
    "EngineConfig",
    "ExecutionEngine",
]


class CompletionOutcome(enum.Enum):
    """Why a query left the engine."""

    COMPLETED = "completed"
    KILLED = "killed"
    ABORTED = "aborted"       # attempt lost; the same query re-enters
    SUSPENDED = "suspended"


CompletionCallback = Callable[[Query, CompletionOutcome], None]


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the execution engine.

    ``hot_set_size`` is the number of lockable items (smaller = more
    contention); ``spill_penalty`` is forwarded to the buffer pool;
    ``lock_stream`` names the simulator stream the lock manager draws
    transactions' lock items from, the engine's one random stream (a
    node of a multi-node cluster names its own, so engines sharing one
    simulator draw independently).
    """

    hot_set_size: int = 1000
    spill_penalty: float = 3.0
    lock_stream: str = "locks"

    def __post_init__(self) -> None:
        if self.hot_set_size < 1:
            raise ConfigurationError(
                f"hot_set_size must be >= 1, got {self.hot_set_size}"
            )
        if self.spill_penalty < 0:
            raise ConfigurationError(
                f"spill_penalty must be >= 0, got {self.spill_penalty}"
            )
        if not self.lock_stream:
            raise ConfigurationError("lock_stream must be a non-empty stream name")


_EMPTY_LOCKS: Sequence[float] = ()


class ExecutionEngine:
    """Concurrent query execution over a simulated machine."""

    def __init__(
        self,
        sim: Simulator,
        machine: Optional[MachineSpec] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        # 15 attributes: at 30, CPython 3.11 stops sharing the instance
        # dict's keys, and each engine costs ~1.3 KB more and builds
        # ~1 µs slower (a 256-node cluster builds 256 of them).
        # tests/engine/test_hotpath.py fails at 16.  The clock's state
        # lives on the store, a ``__slots__`` object.
        self.sim = sim
        self.machine = machine or MachineSpec()
        config = config or EngineConfig()
        # The per-query speed ceiling: 1.0 lets a query keep one core and
        # one disk unit busy; a slower machine runs every query below it.
        self._speed = 1.0
        self.buffer_pool = BufferPool(
            capacity_mb=self.machine.memory_mb,
            spill_penalty=config.spill_penalty,
        )
        self.lock_manager = LockManager(
            num_items=config.hot_set_size, rng=sim.rng(config.lock_stream)
        )
        self.store = RunStore(
            float(self.machine.cpu_capacity), float(self.machine.disk_capacity)
        )
        self._callbacks: List[CompletionCallback] = []
        # The one armed milestone event, and the row it fires for.
        self._milestone_handle = None
        self._milestone_row: Optional[Row] = None
        self.completed_count = 0
        self.killed_count = 0
        self.aborted_count = 0
        # The cached running-set snapshot, invalidated by *replacement* on
        # membership change: a caller holding an old snapshot can keep
        # iterating it safely while queries start or finish.
        self._snapshot: Optional[List[Query]] = None
        self._last_inflation = self.buffer_pool.io_inflation()
        # A settle deferred to the end of the instant (see ``_reallocate``).
        self._realloc_pending = False

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def on_exit(self, callback: CompletionCallback) -> None:
        """Register a callback fired whenever a query leaves the engine."""
        self._callbacks.append(callback)

    @property
    def running_count(self) -> int:
        return len(self.store.rows)

    def running_queries(self) -> List[Query]:
        """The running queries as a cached snapshot list.

        The snapshot is invalidated by replacement whenever membership
        changes, so a list obtained before a start/finish stays valid to
        iterate.  Treat it as read-only; copy before sorting or mutating.
        """
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = [row.query for row in self.store.rows.values()]
        return snap

    def is_running(self, query_id: int) -> bool:
        return query_id in self.store.rows

    def progress_of(self, query_id: int) -> float:
        row = self._row(query_id)
        self.store.advance(self.sim.now)
        progress = self.store.progress(row)
        # Keep the query object's field coherent for direct readers —
        # the store is authoritative while the query runs.
        row.query.progress = progress
        return progress

    def speed_of(self, query_id: int) -> float:
        self._flush_reallocation()
        return self.store.speed(self._row(query_id))

    def weight_of(self, query_id: int) -> float:
        return self._row(query_id).weight

    def throttle_of(self, query_id: int) -> float:
        return self._row(query_id).throttle

    def conflict_ratio(self) -> float:
        # a quiet transaction holds each lock point it has passed
        implicit = 0
        for query_id in self.lock_manager.quiet:
            implicit += self._passed(self.store.rows[query_id])
        return self.lock_manager.conflict_ratio(implicit)

    def memory_pressure(self) -> float:
        return self.buffer_pool.pressure

    def utilization(self, kind: ResourceKind) -> float:
        """Instantaneous utilization (0..1) of a rate resource."""
        self._flush_reallocation()
        store = self.store
        usage_cpu, usage_disk = store.current_usage()
        if kind is ResourceKind.CPU:
            return min(usage_cpu, store.cpu_cap) / store.cpu_cap
        if kind is ResourceKind.DISK:
            return min(usage_disk, store.disk_cap) / store.disk_cap
        raise KeyError(kind)

    # ------------------------------------------------------------------
    # lifecycle operations
    # ------------------------------------------------------------------
    def start(self, query: Query, weight: float = 1.0) -> None:
        """Begin executing ``query`` with the given fair-share weight."""
        query_id = query.query_id
        store = self.store
        if query_id in store.rows:
            raise QueryStateError(f"query {query_id} is already running")
        store.advance(self.sim.now)
        query.transition(QueryState.RUNNING)
        if query.start_time is None:
            query.start_time = self.sim.now
        cost = query.true_cost
        self.buffer_pool.reserve(query_id, cost.memory_mb)
        lock_points: Sequence[float] = _EMPTY_LOCKS
        quiet = False
        if cost.lock_count > 0:
            locks = self.lock_manager
            registered = locks.register(query_id, cost.lock_count, self.sim.now)
            lock_points = [p for p in registered if p > query.progress]
            quiet = query_id in locks.quiet
            if not quiet:  # only a loud registration turns a rival loud
                for rival_id in locks.newly_loud():
                    self._take_passed_locks(store.rows[rival_id])
        self._membership_changed()
        row = Row(query, lock_points, weight if weight > 1e-9 else 1e-9)
        dc = cost.cpu_seconds
        row.cpu = dc if dc > 0 else 0.0
        di = cost.io_seconds
        row.io = di if di > 0 else 0.0
        self._set_demands(row)
        if lock_points:
            if quiet:  # it passes them without events
                row.next_lock = len(lock_points)
            else:
                row.milestone = lock_points[0]
        store.add(row)
        # Sub-nanosecond demands complete instantly; without the epsilon
        # a denormal demand overflows the speed-cap division.
        if cost.nominal_duration <= 1e-9:
            self._finish(row, CompletionOutcome.COMPLETED)
            return
        self._reallocate()

    def kill(self, query_id: int) -> Query:
        """Cancel a running query, releasing its resources immediately."""
        row = self._row(query_id)
        self._finish(row, CompletionOutcome.KILLED)
        return row.query

    def abort(self, query_id: int) -> Query:
        """End a running query's attempt ``ABORTED``, its progress lost:
        the branch a wait-die victim takes, for a restart."""
        row = self._row(query_id)
        self._finish(row, CompletionOutcome.ABORTED)
        return row.query

    def remove_suspended(self, query_id: int) -> Query:
        """Evict a query for suspension; caller owns checkpoint costs."""
        row = self._row(query_id)
        self._finish(row, CompletionOutcome.SUSPENDED)
        return row.query

    def set_weight(self, query_id: int, weight: float) -> None:
        """Change a query's fair-share weight (reprioritization)."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        row = self._row(query_id)
        if row.weight != weight:
            store = self.store
            store.advance(self.sim.now)
            store.detach(row)
            row.weight = weight
            row.share = weight / row.bottleneck
            store.attach(row)
            self._reallocate()

    def set_throttle(self, query_id: int, factor: float) -> None:
        """Cap a query's speed at ``factor`` of full speed (0 pauses it)."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"throttle factor must be in [0,1], got {factor}")
        row = self._row(query_id)
        if row.throttle != factor:
            store = self.store
            store.advance(self.sim.now)
            store.detach(row)
            row.throttle = factor
            self._set_cap(row)
            store.attach(row)
            self._reallocate()

    def set_speed(self, factor: float) -> None:
        """Run every query, present and future, at most ``factor`` of full
        speed: the machine itself is slower.  A throttle multiplies it."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"speed factor must be in (0,1], got {factor}")
        if factor == self._speed:
            return
        self.store.advance(self.sim.now)
        self._speed = factor
        self._refresh_demands()
        self._reallocate()

    def pause(self, query_id: int) -> None:
        """Convenience for ``set_throttle(query_id, 0.0)``."""
        self.set_throttle(query_id, 0.0)

    def resume(self, query_id: int) -> None:
        """Convenience for ``set_throttle(query_id, 1.0)``."""
        self.set_throttle(query_id, 1.0)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _row(self, query_id: int) -> Row:
        row = self.store.rows.get(query_id)
        if row is None:
            raise QueryStateError(f"query {query_id} is not running")
        return row

    def _membership_changed(self) -> None:
        self._snapshot = None
        inflation = self.buffer_pool.io_inflation()
        if inflation != self._last_inflation:
            self._last_inflation = inflation
            self._refresh_demands()

    def _set_demands(self, row: Row) -> None:
        """The row's inflation-dependent fields, and its cap."""
        disk = row.disk = row.io * self._last_inflation
        bottleneck = row.bottleneck = row.cpu if row.cpu >= disk else disk
        row.share = row.weight / bottleneck if bottleneck > 1e-9 else 0.0
        self._set_cap(row)

    def _set_cap(self, row: Row) -> None:
        if row.blocked or row.throttle <= 0.0 or row.bottleneck <= 1e-9:
            row.cap = 0.0
        else:
            row.cap = row.throttle * self._speed / row.bottleneck

    def _refresh_demands(self) -> None:
        """Every row's demands and cap changed (inflation or machine
        speed): the store resyncs at the end of the instant."""
        for row in self.store.rows.values():
            self._set_demands(row)
        self.store.dirty = True

    def _flush_reallocation(self) -> None:
        if self._realloc_pending:
            self._solve()

    def _reallocate(self) -> None:
        """Settle the clock and (re)arm the next milestone event once the
        current instant's events have fired: one settle per instant."""
        if not self._realloc_pending:
            self._realloc_pending = True
            self.sim.defer(self._flush_reallocation)

    def _solve(self) -> None:
        self._realloc_pending = False
        pick = self.store.settle(self.sim.now)
        handle = self._milestone_handle
        if handle is not None:
            if pick is not None and pick[1] is self._milestone_row and handle.time == pick[0]:
                return  # armed already
            handle.cancel()
            self._milestone_handle = None
        if pick is not None:
            self._milestone_row = pick[1]
            self._milestone_handle = self.sim.schedule_at(
                pick[0], self._on_milestone, "milestone:"
            )

    def _on_milestone(self) -> None:
        self._milestone_handle = None
        row = self._milestone_row
        store = self.store
        if store.rows.get(row.query.query_id) is not row:
            # left the engine since scheduling (and maybe re-entered as a
            # new attempt, whose milestone this is not)
            self._reallocate()
            return
        store.advance(self.sim.now)
        if row.next_lock >= len(row.lock_points):
            self._finish(row, CompletionOutcome.COMPLETED)
            return
        outcome = self.lock_manager.try_acquire(row.query.query_id, row.next_lock)
        if outcome is LockOutcome.GRANTED:
            self._lock_granted(row)
            store.retarget(row)
        elif outcome is LockOutcome.WAIT:
            store.detach(row)
            row.blocked = True
            row.query.transition(QueryState.BLOCKED)
            row.cap = 0.0
            store.attach(row)
        else:  # DIE: wait-die victim, its attempt ends and it restarts
            self._finish(row, CompletionOutcome.ABORTED)
            return
        self._reallocate()

    def _lock_granted(self, row: Row) -> None:
        """Move the row's milestone to the next lock point, or to the end."""
        row.next_lock += 1
        if row.next_lock < len(row.lock_points):
            row.milestone = row.lock_points[row.next_lock]
        else:
            row.milestone = 1.0

    def _passed(self, row: Row) -> int:
        """How many of a quiet row's lock points the row has passed: those
        behind its anchor, then those whose milestone event, as a loud
        row's would be armed, is not after ``now``."""
        base, rate, since = row.base, row.rate, row.since
        at, now = self.store.at, self.sim.now
        passed = 0
        for point in row.lock_points:
            if point > base and not (rate > 0.0 and at(since + (point - base) / rate) <= now):
                break
            passed += 1
        return passed

    def _take_passed_locks(self, row: Row) -> None:
        """A registration listed one of a quiet row's items: take the
        points it has passed, in order, and arm the next one.  No other
        transaction listed these items, so every request is granted."""
        passed = self._passed(row)
        query_id = row.query.query_id
        for index in range(passed):
            self.lock_manager.try_acquire(query_id, index)
        row.next_lock = passed
        if passed < len(row.lock_points):
            row.milestone = row.lock_points[passed]
            self.store.retarget(row)

    def _finish(self, row: Row, outcome: CompletionOutcome) -> None:
        query = row.query
        query_id = query.query_id
        store = self.store
        store.advance(self.sim.now)
        if query_id in self.lock_manager.quiet:
            # the points it passed without an event were requests all the same
            self.lock_manager.stats.requests += self._passed(row)
        # Write the fluid progress back before terminal transitions
        # overwrite it; the row dies here.
        query.progress = store.progress(row)
        store.remove(row)
        self.buffer_pool.release(query_id)
        self._membership_changed()
        woken = self.lock_manager.release_all(query_id)
        if outcome is CompletionOutcome.COMPLETED:
            query.progress = 1.0
            query.end_time = self.sim.now
            query.transition(QueryState.COMPLETED)
            self.completed_count += 1
        elif outcome is CompletionOutcome.KILLED:
            if query.state is QueryState.BLOCKED:
                query.transition(QueryState.RUNNING)
            query.end_time = self.sim.now
            query.transition(QueryState.KILLED)
            self.killed_count += 1
        elif outcome is CompletionOutcome.ABORTED:
            if query.state is QueryState.BLOCKED:
                query.transition(QueryState.RUNNING)
            query.transition(QueryState.ABORTED)
            query.progress = 0.0
            self.aborted_count += 1
        elif outcome is CompletionOutcome.SUSPENDED:
            if query.state is QueryState.BLOCKED:
                query.transition(QueryState.RUNNING)
            query.transition(QueryState.SUSPENDED)
            query.suspend_count += 1
        for woken_id in woken:
            woken_row = store.rows.get(woken_id)
            if woken_row is None or not woken_row.blocked:
                continue
            store.detach(woken_row)
            woken_row.blocked = False
            woken_row.query.transition(QueryState.RUNNING)
            self._lock_granted(woken_row)
            self._set_cap(woken_row)
            store.attach(woken_row)
        self._reallocate()
        for callback in list(self._callbacks):
            callback(query, outcome)
