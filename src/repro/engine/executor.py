"""The execution engine: runs admitted queries on shared resources.

The engine is a fluid-flow simulation of concurrent query execution.
Every running query advances a progress variable from 0 to 1 at a speed
determined by weighted max-min fair resource sharing
(:mod:`repro.engine.resources`), inflated I/O under memory pressure
(:mod:`repro.engine.bufferpool`), and lock waits
(:mod:`repro.engine.locks`).  Speeds are recomputed after every state
change — admission, completion, kill, pause, weight change, lock wait
or wake — and the next milestone (a completion or a lock-acquisition
point) is scheduled on the simulator.  The solve runs once per instant,
however many changes the instant held: a change marks it pending and
defers it with :meth:`~repro.engine.simulator.Simulator.defer`, and
``speed_of`` and ``utilization`` run a pending solve early.  A granted
lock changes nobody's speed: it moves one query's milestone and nothing
else, and a lock point whose item no other live transaction lists is no
milestone at all (DESIGN.md §7).

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

Hot-path layout (DESIGN.md §7): the running set lives in a columnar
:class:`~repro.engine.runstore.RunStore`; per-query ``_Running`` handles
carry only cold bookkeeping (the query object, lock points).
``_VECTOR_MIN_RUNNING`` is the one cutover: the engine hands it to its
store, which holds Python lists below it and numpy columns at or above
it, and takes the step the representation calls for.  Below it the
advance, solve, pick and demand refresh are scalar loops reading and
writing the lists in place; at or above it they run vectorized over the
arrays.  The advance and milestone
selection perform bit-identical float arithmetic on either side; the
fair-share *fill* is the exact scalar
:func:`~repro.engine.resources.fill_two_resource` below the cutover and
the numpy :func:`~repro.engine.resources.fair_share_fill_vectorized`,
whose sum order differs in the last bits, at or above it.  The vector
side builds a mask only when a reduction says some row needs one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.engine.bufferpool import BufferPool
from repro.engine.locks import LockManager, LockOutcome
from repro.engine.query import Query, QueryState
from repro.engine.resources import (
    MachineSpec,
    ResourceKind,
    fair_share_fill_vectorized,
    fill_two_resource,
)
from repro.engine.runstore import RunStore
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


#: Running-set size at which the store switches from lists to numpy
#: columns, and the advance, milestone selection and solve from scalar
#: Python loops to numpy array operations; the scalar loops win below it
#: on constant factors.
_VECTOR_MIN_RUNNING = 17


class _Running:
    """Cold-path handle for one running query.

    Hot fields (progress, speed, weight, throttle, demands, caps,
    milestones) live in the engine's :class:`RunStore`; this object
    keeps only what the columns cannot hold — the query object and the
    lock-point sequence.  ``next_lock`` indexes the next lock point the
    row takes at a milestone event: ``len(lock_points)`` once none is
    left, and while the transaction is quiet, which passes its points
    without events.
    """

    __slots__ = ("query", "lock_points", "next_lock")

    def __init__(self, query: Query, lock_points: Sequence[float]) -> None:
        self.query = query
        self.lock_points = lock_points
        self.next_lock = 0

    def __repr__(self) -> str:
        return (
            f"_Running(q={self.query.query_id}, next_lock={self.next_lock}, "
            f"locks={len(self.lock_points)})"
        )


_EMPTY_LOCKS: Sequence[float] = ()


class ExecutionEngine:
    """Concurrent query execution over a simulated machine."""

    def __init__(
        self,
        sim: Simulator,
        machine: Optional[MachineSpec] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        # 26 attributes: at 30, CPython 3.11 stops sharing the instance
        # dict's keys, and each engine costs ~1.3 KB more and builds ~1 µs
        # slower (a 256-node cluster builds 256 of them).
        # tests/engine/test_hotpath.py fails at 27.
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
        self.store = RunStore(_VECTOR_MIN_RUNNING)
        self._running: Dict[int, _Running] = {}
        self._callbacks: List[CompletionCallback] = []
        # The one armed milestone event, and the query it fires for.
        self._milestone_handle = None
        self._milestone_qid = -1
        # Every row's ETA as the last real solve's pick computed it, in
        # insertion order; ``None`` when that pick kept none.
        self._etas = None
        self.completed_count = 0
        self.killed_count = 0
        self.aborted_count = 0
        self._cpu_cap = float(self.machine.cpu_capacity)
        self._disk_cap = float(self.machine.disk_capacity)
        # Server-units in use since the last real solve, clamped to capacity.
        self._cpu_usage = 0.0
        self._disk_usage = 0.0
        # The cached running-set snapshot, invalidated by *replacement* on
        # membership change: a caller holding an old snapshot can keep
        # iterating it safely while queries start or finish.
        self._snapshot: Optional[List[Query]] = None
        # Allocation memoization: the fair-share solve is skipped when
        # nothing feeding it (membership, weights, caps, blocked flags,
        # demand inflation, completions) changed since the last solve.
        self._alloc_version = 0
        self._solved_version = -1
        self._demand_epoch = 0
        self._store_epoch = 0
        self._last_inflation = self.buffer_pool.io_inflation()
        # A solve deferred to the end of the instant (see ``_reallocate``).
        self._realloc_pending = False
        self._last_sync_time = -1.0

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def on_exit(self, callback: CompletionCallback) -> None:
        """Register a callback fired whenever a query leaves the engine."""
        self._callbacks.append(callback)

    @property
    def running_count(self) -> int:
        return len(self._running)

    def running_queries(self) -> List[Query]:
        """The running queries as a cached snapshot list.

        The snapshot is invalidated by replacement whenever membership
        changes, so a list obtained before a start/finish stays valid to
        iterate.  Treat it as read-only; copy before sorting or mutating.
        """
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = [entry.query for entry in self._running.values()]
        return snap

    def is_running(self, query_id: int) -> bool:
        return query_id in self._running

    def progress_of(self, query_id: int) -> float:
        self._sync_all()
        entry = self._entry(query_id)
        progress = float(self.store.progress[self.store.index[query_id]])
        # Keep the query object's field coherent for direct readers —
        # the store is authoritative while the query runs.
        entry.query.progress = progress
        return progress

    def speed_of(self, query_id: int) -> float:
        self._flush_reallocation()
        self._entry(query_id)
        return float(self.store.speed[self.store.index[query_id]])

    def weight_of(self, query_id: int) -> float:
        self._entry(query_id)
        return float(self.store.weight[self.store.index[query_id]])

    def throttle_of(self, query_id: int) -> float:
        self._entry(query_id)
        return float(self.store.throttle[self.store.index[query_id]])

    def conflict_ratio(self) -> float:
        # a quiet transaction holds each lock point it has passed
        implicit = 0
        for query_id in self.lock_manager.quiet:
            implicit += self._passed(self._running[query_id])
        return self.lock_manager.conflict_ratio(implicit)

    def memory_pressure(self) -> float:
        return self.buffer_pool.pressure

    def utilization(self, kind: ResourceKind) -> float:
        """Instantaneous utilization (0..1) of a rate resource."""
        self._flush_reallocation()
        if kind is ResourceKind.CPU:
            return self._cpu_usage / self._cpu_cap
        if kind is ResourceKind.DISK:
            return self._disk_usage / self._disk_cap
        raise KeyError(kind)

    # ------------------------------------------------------------------
    # lifecycle operations
    # ------------------------------------------------------------------
    def start(self, query: Query, weight: float = 1.0) -> None:
        """Begin executing ``query`` with the given fair-share weight."""
        query_id = query.query_id
        if query_id in self._running:
            raise QueryStateError(f"query {query_id} is already running")
        self._sync_all()
        query.transition(QueryState.RUNNING)
        now = self.sim.now
        if query.start_time is None:
            query.start_time = now
        cost = query.true_cost
        self.buffer_pool.reserve(query_id, cost.memory_mb)
        lock_points: Sequence[float] = _EMPTY_LOCKS
        quiet = False
        if cost.lock_count > 0:
            locks = self.lock_manager
            registered = locks.register(query_id, cost.lock_count, now)
            lock_points = [p for p in registered if p > query.progress]
            quiet = query_id in locks.quiet
            if not quiet:  # only a loud registration turns a rival loud
                for rival_id in locks.newly_loud():
                    self._take_passed_locks(self._running[rival_id])
        entry = _Running(query, lock_points)
        self._running[query_id] = entry
        self._membership_changed()
        weight = weight if weight > 1e-9 else 1e-9
        dc = cost.cpu_seconds
        if dc <= 0:
            dc = 0.0
        di = cost.io_seconds
        if di <= 0:
            di = 0.0
        io = di * self._last_inflation
        bottleneck = dc if dc >= io else io
        solve_weight = speed_cap = 0.0
        if bottleneck > 1e-9:
            solve_weight = weight / bottleneck
            speed_cap = self._speed / bottleneck
        milestone, pending = 1.0, False
        if lock_points:
            if quiet:  # it passes them without events
                entry.next_lock = len(lock_points)
            else:
                milestone, pending = lock_points[0], True
        self.store.add(
            query_id,
            (query.progress, 0.0, weight, 1.0, dc, di, io,
             bottleneck, solve_weight, speed_cap, milestone),
            pending,
        )
        # Sub-nanosecond demands complete instantly; without the epsilon
        # a denormal demand overflows the speed-cap division below.
        if cost.nominal_duration <= 1e-9:
            self._finish(entry, CompletionOutcome.COMPLETED)
            return
        self._reallocate()

    def kill(self, query_id: int) -> Query:
        """Cancel a running query, releasing its resources immediately."""
        self._sync_all()
        entry = self._entry(query_id)
        self._finish(entry, CompletionOutcome.KILLED)
        return entry.query

    def abort(self, query_id: int) -> Query:
        """End a running query's attempt ``ABORTED``, its progress lost:
        the branch a wait-die victim takes, for a restart."""
        self._sync_all()
        entry = self._entry(query_id)
        self._finish(entry, CompletionOutcome.ABORTED)
        return entry.query

    def remove_suspended(self, query_id: int) -> Query:
        """Evict a query for suspension; caller owns checkpoint costs."""
        self._sync_all()
        entry = self._entry(query_id)
        self._finish(entry, CompletionOutcome.SUSPENDED)
        return entry.query

    def set_weight(self, query_id: int, weight: float) -> None:
        """Change a query's fair-share weight (reprioritization)."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self._sync_all()
        self._entry(query_id)
        store = self.store
        slot = store.index[query_id]
        if float(store.weight[slot]) != weight:
            store.weight[slot] = weight
            bottleneck = float(store.bottleneck[slot])
            if bottleneck > 1e-9:
                store.solve_weight[slot] = weight / bottleneck
            self._alloc_version += 1
        self._reallocate()

    def set_throttle(self, query_id: int, factor: float) -> None:
        """Cap a query's speed at ``factor`` of full speed (0 pauses it)."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"throttle factor must be in [0,1], got {factor}")
        self._sync_all()
        self._entry(query_id)
        store = self.store
        slot = store.index[query_id]
        if float(store.throttle[slot]) != factor:
            store.throttle[slot] = factor
            self._update_cap_slot(slot)
            self._alloc_version += 1
        self._reallocate()

    def set_speed(self, factor: float) -> None:
        """Run every query, present and future, at most ``factor`` of full
        speed: the machine itself is slower.  A throttle multiplies it."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"speed factor must be in (0,1], got {factor}")
        if factor == self._speed:
            return
        self._sync_all()
        self._speed = factor
        self._demand_epoch += 1
        self._alloc_version += 1
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
    def _entry(self, query_id: int) -> _Running:
        entry = self._running.get(query_id)
        if entry is None:
            raise QueryStateError(f"query {query_id} is not running")
        return entry

    def _sync_all(self) -> None:
        """Advance every running query's progress to the current time."""
        now = self.sim.now
        previous = self._last_sync_time
        if now == previous:
            return
        self._last_sync_time = now
        store = self.store
        dt = now - previous
        if store.vector:
            idx = store.live_indices()
            # A mask only when a reduction says some row needs one.
            speed = store.speed[idx]
            if not speed.min() > 0.0:
                moving = speed > 0.0
                if not moving.any():
                    return
                idx = idx[moving]
                speed = speed[moving]
            old_progress = store.progress[idx]
            new_progress = old_progress + speed * dt
            if new_progress.max() >= 1.0:
                if ((new_progress >= 1.0) & (old_progress < 1.0)).any():
                    # A query crossing the finish line leaves the active
                    # request set, so the memoized allocation is stale
                    # until the next real solve.
                    self._alloc_version += 1
                np.minimum(new_progress, 1.0, out=new_progress)
            store.progress[idx] = new_progress
            return
        speeds = store.speed
        progresses = store.progress
        for i in range(store.count):
            speed = speeds[i]
            if speed > 0.0:
                progress = progresses[i] + speed * dt
                if progress >= 1.0:
                    if progresses[i] < 1.0:
                        self._alloc_version += 1
                    progress = 1.0
                progresses[i] = progress

    def _membership_changed(self) -> None:
        self._snapshot = None
        self._alloc_version += 1
        inflation = self.buffer_pool.io_inflation()
        if inflation != self._last_inflation:
            self._last_inflation = inflation
            self._demand_epoch += 1

    def _update_cap_slot(self, slot: int) -> None:
        store = self.store
        if store.blocked[slot] or store.throttle[slot] <= 0.0:
            store.speed_cap[slot] = 0.0
            return
        bottleneck = float(store.bottleneck[slot])
        if bottleneck > 1e-9:
            store.speed_cap[slot] = (
                float(store.throttle[slot]) * self._speed / bottleneck
            )
        else:
            store.speed_cap[slot] = 0.0

    def _refresh_demands(self) -> None:
        """Recompute inflation-dependent columns for the current epoch.

        Elementwise, so the list loop and the array step are bit-identical.
        """
        store = self.store
        inflation, speed = self._last_inflation, self._speed
        if not store.vector:
            weights, throttles, blocked = store.weight, store.throttle, store.blocked
            cpu, io_base, bottlenecks = store.cpu_base, store.io_base, store.bottleneck
            for i in range(store.count):
                io = store.disk_demand[i] = io_base[i] * inflation
                bottleneck = bottlenecks[i] = cpu[i] if cpu[i] >= io else io
                safe = bottleneck if bottleneck > 1e-9 else 1.0
                store.solve_weight[i] = weights[i] / safe
                dead = blocked[i] or throttles[i] <= 0.0 or bottleneck <= 1e-9
                store.speed_cap[i] = 0.0 if dead else throttles[i] * speed / safe
        else:
            idx = store.live_indices()
            io = store.io_base[idx] * inflation
            store.disk_demand[idx] = io
            bottleneck = np.maximum(store.cpu_base[idx], io)
            store.bottleneck[idx] = bottleneck
            safe = np.where(bottleneck > 1e-9, bottleneck, 1.0)
            store.solve_weight[idx] = store.weight[idx] / safe
            cap = store.throttle[idx] * speed / safe
            dead = (
                store.blocked[idx]
                | (store.throttle[idx] <= 0.0)
                | (bottleneck <= 1e-9)
            )
            store.speed_cap[idx] = np.where(dead, 0.0, cap)
        self._store_epoch = self._demand_epoch

    def _flush_reallocation(self) -> None:
        if self._realloc_pending:
            self._solve()

    def _reallocate(self) -> None:
        """Recompute speeds and (re)schedule the next milestone event once
        the current instant's events have fired: one solve per instant."""
        if not self._realloc_pending:
            self._realloc_pending = True
            self.sim.defer(self._flush_reallocation)

    def _solve(self) -> None:
        self._realloc_pending = False
        if self._solved_version == self._alloc_version and self._milestone_handle is not None:
            # Nothing feeding the allocator changed and the milestone is
            # still armed: the speeds stand, and so does every ETA.
            return
        store = self.store
        if self._store_epoch != self._demand_epoch:
            self._refresh_demands()
        self._etas = None  # the pick keeps its own while a row has a lock point ahead
        if store.vector:
            # The vector solve hands the pick the columns it gathered, by
            # return value: a hand-off kept on ``self`` would be one more
            # attribute.
            idx = store.live_indices()
            usage_cpu, usage_disk, progresses, speeds = self._solve_vectorized(idx)
            pick = self._pick_vectorized(idx, progresses, speeds)
        else:
            usage_cpu, usage_disk = self._solve_scalar(store.count)
            pick = self._pick_scalar(store.count)
        self._cpu_usage = min(usage_cpu, self._cpu_cap)
        self._disk_usage = min(usage_disk, self._disk_cap)
        self._solved_version = self._alloc_version
        self._arm_milestone(pick)

    def _solve_scalar(self, n: int):
        """Feed the exact scalar fill from the store's ``n`` list rows.

        Iteration order and accumulation order follow the store's
        insertion order — the float-accumulation contract the committed
        digests pin.  The fill's speeds list becomes the speed column.
        Returns the two usages.
        """
        store = self.store
        speeds = [0.0] * n
        bottlenecks = store.bottleneck
        progresses = store.progress
        weights = store.solve_weight
        cpu_demands = store.cpu_base
        disk_demands = store.disk_demand
        caps = store.speed_cap
        # keyed by position: the fill writes into ``speeds``
        active: List[List] = []
        for i in range(n):
            if bottlenecks[i] <= 1e-9:
                # vanishing remaining demand: mark done so the milestone
                # reaper completes it rather than dividing by ~zero
                progresses[i] = 1.0
                continue
            if progresses[i] >= 1.0:
                continue
            cap = caps[i]
            if cap == 0.0:
                continue
            active.append([i, weights[i], cpu_demands[i], disk_demands[i], cap])
        usage_cpu = usage_disk = 0.0
        if active:
            fill_two_resource(active, speeds, self._cpu_cap, self._disk_cap)
            for item in active:
                speed = speeds[item[0]]
                if speed <= 0:
                    continue
                usage_cpu += speed * item[2]
                usage_disk += speed * item[3]
        store.speed = speeds
        return usage_cpu, usage_disk

    def _solve_vectorized(self, idx: np.ndarray):
        """Vectorized solve: numpy fill + dotted usage sums.

        Results agree with :meth:`_solve_scalar` to solver tolerance
        (1e-9 per speed) but not bit-for-bit — sum order differs.  A
        mask is built only when a reduction says some row is trivial,
        finished, paused or blocked; with every row active the columns
        are read and written through ``idx`` as they are.  Returns the
        two usages, the progress column aligned with ``idx`` as the
        pick must see it, and the solved speeds when they cover every
        row (``None`` otherwise: the pick reads the speed column).
        """
        store = self.store
        bottleneck = store.bottleneck[idx]
        progress = store.progress[idx]
        caps = store.speed_cap[idx]
        if bottleneck.min() <= 1e-9:
            trivial = bottleneck <= 1e-9
            store.progress[idx[trivial]] = 1.0
            progress[trivial] = 1.0
            every_row = False
        else:
            every_row = progress.max() < 1.0 and caps.min() > 0.0
        if every_row:
            act = idx
        else:
            active_mask = (progress < 1.0) & (caps > 0.0)
            store.speed[idx] = 0.0
            if not active_mask.any():
                return 0.0, 0.0, progress, None
            act = idx[active_mask]
            caps = caps[active_mask]
        cpu_demand = store.cpu_base[act]
        disk_demand = store.disk_demand[act]
        speeds = fair_share_fill_vectorized(
            store.solve_weight[act],
            cpu_demand,
            disk_demand,
            caps,
            self._cpu_cap,
            self._disk_cap,
        )
        store.speed[act] = speeds
        if speeds.min() > 0.0:
            usage_cpu = float(speeds.dot(cpu_demand))
            usage_disk = float(speeds.dot(disk_demand))
        else:
            positive = speeds > 0.0
            moving = speeds[positive]
            usage_cpu = float(moving.dot(cpu_demand[positive]))
            usage_disk = float(moving.dot(disk_demand[positive]))
        return usage_cpu, usage_disk, progress, speeds if every_row else None

    def _pick_vectorized(self, idx: np.ndarray, progress: np.ndarray, speed):
        """The vector pick, over the progress :meth:`_solve_vectorized`
        gathered and, when it covers every row, the speeds it solved."""
        store = self.store
        now = self.sim.now
        if progress.max() >= 1.0 - 1e-12:
            done = (progress >= 1.0 - 1e-12) & ~store.locks_pending[idx]
            if done.any():
                # Finished during a sync triggered by someone else's
                # event; reap it via an immediate milestone of its own.
                return now, int(store.qid[idx[done.argmax()]])
        if speed is None:
            speed = store.speed[idx]
        gap = store.milestone[idx] - progress
        np.maximum(gap, 0.0, out=gap)
        if speed.min() > 0.0:
            eta = now + gap / speed
        else:
            moving = speed > 0.0
            if not moving.any():
                return None
            eta = np.full(idx.size, np.inf)
            eta[moving] = now + gap[moving] / speed[moving]
        self._etas = eta  # built anyway: kept whether or not a lock is ahead
        pos = eta.argmin()
        return float(eta[pos]), int(store.qid[idx[pos]])

    def _pick_scalar(self, n: int):
        """The scalar pick loop over the store's ``n`` list rows, as
        :meth:`_solve_scalar` left them."""
        if not n:
            return None
        store = self.store
        now = self.sim.now
        progresses = store.progress
        speeds = store.speed
        milestones = store.milestone
        locks_pending = store.locks_pending
        # Lock-free sets keep nothing: no grant can ask for an ETA.
        etas = [np.inf] * n if True in locks_pending else None
        best_time, best = None, -1
        for i in range(n):
            progress = progresses[i]
            if progress >= 1.0 - 1e-12 and not locks_pending[i]:
                # as in the vector pick: reap it at this instant
                return now, store.qid[i]
            speed = speeds[i]
            if speed <= 0:
                continue
            gap = milestones[i] - progress
            eta = now + (gap if gap > 0.0 else 0.0) / speed
            if etas is not None:
                etas[i] = eta
            if best < 0 or eta < best_time:
                best_time, best = eta, i
        if best < 0:
            return None
        self._etas = etas
        return best_time, store.qid[best]

    def _arm_milestone(self, pick) -> None:
        """Replace the armed milestone event, if any, by one for ``pick``."""
        if self._milestone_handle is not None:
            self._milestone_handle.cancel()
            self._milestone_handle = None
        if pick is not None:
            self._milestone_qid = pick[1]
            self._milestone_handle = self.sim.schedule_at(
                pick[0], self._on_milestone, "milestone:"
            )

    def _on_milestone(self) -> None:
        query_id = self._milestone_qid
        self._milestone_handle = None
        entry = self._running.get(query_id)
        lock_ahead = entry is not None and entry.next_lock < len(entry.lock_points)
        outcome = None
        etas = self._etas
        if (
            lock_ahead
            and etas is not None
            and self._solved_version == self._alloc_version
            and not self._realloc_pending
        ):
            # No speed has changed since the solve whose pick armed this
            # event, so the row is at its lock point and every kept ETA
            # holds.  A grant changes no speed either: this row's ETA
            # moves with its milestone (the progress column stays "as of
            # ``_last_sync_time``": nothing is advanced) and the minimum
            # of the vector is the next milestone.
            outcome = self.lock_manager.try_acquire(query_id, entry.next_lock)
            if outcome is LockOutcome.GRANTED:
                store = self.store
                slot = store.index[query_id]
                self._lock_granted(entry, slot)
                gap = float(store.milestone[slot] - store.progress[slot])
                etas[store.position(slot)] = self._last_sync_time + gap / float(store.speed[slot])
                pos = etas.index(min(etas)) if type(etas) is list else int(etas.argmin())
                self._arm_milestone((float(etas[pos]), int(store.qid[store.slot_at(pos)])))
                return
        self._sync_all()
        if entry is None:  # left the engine since scheduling
            self._reallocate()
            return
        store = self.store
        slot = store.index[query_id]
        milestone = float(store.milestone[slot])
        progress = float(store.progress[slot])
        reached = outcome is not None or progress >= milestone - 1e-9
        if not reached:
            # A fast query can sit further than 1e-9 of progress from its
            # milestone yet closer in time than the clock resolves at
            # ``now``: its ETA rounds to ``now``, the sync above advanced
            # nothing, and re-arming would fire this event at this
            # instant forever.  No tick separates them, so it is there.
            speed = float(store.speed[slot])
            now = self.sim.now
            reached = speed > 0.0 and now + (milestone - progress) / speed == now
        if reached:
            if progress < milestone:
                store.progress[slot] = milestone
                progress = milestone
            if lock_ahead:
                self._acquire_next_lock(entry, outcome)
                return
            if progress >= 1.0 - 1e-12:
                self._finish(entry, CompletionOutcome.COMPLETED)
                return
        self._reallocate()

    def _acquire_next_lock(self, entry: _Running, outcome: Optional[LockOutcome]) -> None:
        query_id = entry.query.query_id
        if outcome is None:  # else the milestone event has asked: once per lock point
            outcome = self.lock_manager.try_acquire(query_id, entry.next_lock)
        if outcome is LockOutcome.GRANTED:
            self._lock_granted(entry, self.store.index[query_id])
            self._reallocate()
        elif outcome is LockOutcome.WAIT:
            store = self.store
            slot = store.index[query_id]
            store.blocked[slot] = True
            entry.query.transition(QueryState.BLOCKED)
            store.speed_cap[slot] = 0.0
            self._alloc_version += 1
            self._reallocate()
        else:  # DIE: wait-die victim, its attempt ends and it restarts
            self._finish(entry, CompletionOutcome.ABORTED)

    def _lock_granted(self, entry: _Running, slot: int) -> None:
        """Move the row's milestone to the next lock point, or to the end."""
        entry.next_lock += 1
        if entry.next_lock < len(entry.lock_points):
            self.store.milestone[slot] = entry.lock_points[entry.next_lock]
        else:
            self.store.milestone[slot] = 1.0
            self.store.locks_pending[slot] = False

    def _passed(self, entry: _Running) -> int:
        """How many of a quiet row's lock points the row has passed: those
        behind its progress at the last sync, then those whose event time
        as an in-place grant computes it is not after ``now``."""
        store = self.store
        slot = store.index[entry.query.query_id]
        progress = float(store.progress[slot])
        speed = float(store.speed[slot])
        synced, now = self._last_sync_time, self.sim.now
        passed = 0
        for point in entry.lock_points:
            if point > progress and not (
                speed > 0.0 and synced + (point - progress) / speed <= now
            ):
                break
            passed += 1
        return passed

    def _take_passed_locks(self, entry: _Running) -> None:
        """A registration listed one of a quiet row's items: take the
        points it has passed, in order, and arm the next one.

        ``start`` has synced every row and bumps the allocation version
        after this, so the next real solve picks the new milestone.  No
        other transaction listed these items, so every request is granted.
        """
        passed = self._passed(entry)
        query_id = entry.query.query_id
        for index in range(passed):
            self.lock_manager.try_acquire(query_id, index)
        entry.next_lock = passed
        if passed < len(entry.lock_points):
            slot = self.store.index[query_id]
            self.store.milestone[slot] = entry.lock_points[passed]
            self.store.locks_pending[slot] = True

    def _finish(self, entry: _Running, outcome: CompletionOutcome) -> None:
        query = entry.query
        query_id = query.query_id
        store = self.store
        if query_id in self.lock_manager.quiet:
            # the points it passed without an event were requests all the same
            self.lock_manager.stats.requests += self._passed(entry)
        slot = store.index.get(query_id)
        if slot is not None:
            # Write the fluid progress back before terminal transitions
            # overwrite it; the store row dies with the entry.
            query.progress = float(store.progress[slot])
            store.remove(query_id)
        self._running.pop(query_id, None)
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
            woken_entry = self._running.get(woken_id)
            if woken_entry is None:
                continue
            woken_slot = store.index[woken_id]
            if store.blocked[woken_slot]:
                store.blocked[woken_slot] = False
                woken_entry.query.transition(QueryState.RUNNING)
                self._lock_granted(woken_entry, woken_slot)
                self._update_cap_slot(woken_slot)
        self._reallocate()
        for callback in list(self._callbacks):
            callback(query, outcome)
