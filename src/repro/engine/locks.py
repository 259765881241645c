"""Two-phase locking with wait-die, and the conflict-ratio metric.

Update transactions acquire exclusive locks on items drawn from a hot
set as they progress, hold them to completion (strict 2PL) and release
them all at once.  Conflicts either block the requester (if it is older
than the holder) or abort it (wait-die, which is deadlock-free because
waits only ever point from older to younger transactions).

The module also computes the **conflict ratio** of Moenkeberg & Weikum
[56] used by conflict-ratio admission control (paper Table 2):

    conflict ratio = locks held by ALL transactions
                     / locks held by ACTIVE (non-blocked) transactions

A ratio near 1 means little contention; past a critical threshold
(≈1.3 in [56]) the system is approaching data-contention thrashing.

A transaction whose items no other live transaction lists can never
conflict, so it is **quiet**: the executor lets it hold each item
implicitly once its progress passes the item's point, and asks nothing
here until a registration that lists one of its items turns it **loud**
(DESIGN.md §7, "A lock point nobody else lists is not an event").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.errors import SimulationError

#: uniform item draws the lock stream yields at a time
_BLOCK_DRAWS = 32


class LockOutcome(enum.Enum):
    """Result of a lock request under wait-die."""

    GRANTED = "granted"
    WAIT = "wait"    # requester is older than holder: block
    DIE = "die"      # requester is younger: abort and restart


@dataclass
class LockConflictStats:
    """Counters exposed to monitors and admission controllers."""

    requests: int = 0
    conflicts: int = 0
    blocks: int = 0
    aborts: int = 0

    @property
    def conflict_fraction(self) -> float:
        return self.conflicts / self.requests if self.requests else 0.0


@dataclass
class _Transaction:
    query_id: int
    timestamp: float                 # wait-die age: smaller = older
    items: List[int]                 # full item list, in acquisition order
    acquired: List[int] = field(default_factory=list)
    waiting_for: Optional[int] = None  # item currently blocked on


class LockManager:
    """Exclusive locks over a hot set of ``num_items`` items.

    The executor drives it: ``register`` when a transaction enters the
    engine, ``try_acquire`` at each acquisition point of a loud
    transaction, ``release_all`` at completion/kill/abort.  The lock
    manager never schedules events itself; it returns who to wake and the
    executor does the waking.
    """

    def __init__(self, num_items: int, rng: np.random.Generator) -> None:
        if num_items < 1:
            raise ValueError("num_items must be >= 1")
        self.num_items = num_items
        self._rng = rng
        self._holders: Dict[int, int] = {}              # item -> query_id
        self._waiters: Dict[int, List[int]] = {}        # item -> FIFO of query_ids
        self._listers: Dict[int, List[int]] = {}        # item -> live txns listing it
        self._txns: Dict[int, _Transaction] = {}
        #: live transactions no other live transaction shares an item with
        self.quiet: Dict[int, _Transaction] = {}
        self._turned_loud: List[int] = []
        # the current block of uniform item draws and the next one to read
        self._block: List[int] = []
        self._cursor = 0
        self.stats = LockConflictStats()

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def register(self, query_id: int, lock_count: int, now: float) -> Sequence[float]:
        """Begin a transaction; returns its lock-acquisition progress points.

        ``lock_count`` items (at most the hot set's size) are sampled
        without replacement from the hot set by :meth:`_draw`; lock ``j`` is acquired when the query's progress reaches
        ``j / (lock_count + 1)``, spreading acquisitions through the run
        (which is what lets blocked transactions hold locks — the
        precondition for contention thrashing).

        The new transaction is :attr:`quiet` unless another live
        transaction lists one of its items; then both are loud, and a
        rival that was quiet is reported once by :meth:`newly_loud`.
        """
        if query_id in self._txns:
            raise SimulationError(f"transaction {query_id} already registered")
        count = min(lock_count, self.num_items)
        items = self._draw(count)
        txn = self._txns[query_id] = _Transaction(
            query_id=query_id, timestamp=now, items=items
        )
        quiet = True
        for item in items:
            if item not in self._listers:
                self._listers[item] = [query_id]
                continue
            quiet = False
            listers = self._listers[item]
            for rival_id in listers:
                if rival_id in self.quiet:
                    del self.quiet[rival_id]
                    self._turned_loud.append(rival_id)
            listers.append(query_id)
        if quiet:
            self.quiet[query_id] = txn
        return [j / (count + 1) for j in range(1, count + 1)]

    def _draw(self, count: int) -> List[int]:
        """``count`` distinct items, each uniform over the ones not yet
        drawn: uniform draws read in order off a block of the lock stream,
        a repeat within the transaction skipped."""
        items: List[int] = []
        seen: Set[int] = set()
        block, cursor = self._block, self._cursor
        while len(items) < count:
            if cursor == len(block):
                block = self._block = self._rng.integers(
                    self.num_items, size=_BLOCK_DRAWS
                ).tolist()
                cursor = 0
            item = block[cursor]
            cursor += 1
            if item not in seen:
                seen.add(item)
                items.append(item)
        self._cursor = cursor
        return items

    def is_registered(self, query_id: int) -> bool:
        return query_id in self._txns

    def newly_loud(self) -> List[int]:
        """Quiet transactions that registrations since the last call
        turned loud, in the order they turned."""
        turned, self._turned_loud = self._turned_loud, []
        return turned

    def try_acquire(self, query_id: int, lock_index: int) -> LockOutcome:
        """Attempt to take lock ``lock_index`` of the transaction's list."""
        txn = self._require(query_id)
        item = txn.items[lock_index]
        self.stats.requests += 1
        holder = self._holders.get(item)
        if holder is None or holder == query_id:
            if holder is None:  # else already held, and so already in ``acquired``
                self._holders[item] = query_id
                txn.acquired.append(item)
            return LockOutcome.GRANTED
        self.stats.conflicts += 1
        holder_txn = self._txns.get(holder)
        holder_ts = holder_txn.timestamp if holder_txn else float("-inf")
        if txn.timestamp < holder_ts:
            # Requester is older: wait (deadlock-free direction).
            self.stats.blocks += 1
            txn.waiting_for = item
            self._waiters.setdefault(item, []).append(query_id)
            return LockOutcome.WAIT
        self.stats.aborts += 1
        return LockOutcome.DIE

    def release_all(self, query_id: int) -> List[int]:
        """End a transaction; returns query ids granted a lock and woken."""
        txn = self._txns.pop(query_id, None)
        if txn is None:
            return []
        if query_id in self.quiet:
            del self.quiet[query_id]
        for item in txn.items:
            listers = self._listers[item]
            if listers == [query_id]:
                del self._listers[item]
            else:
                listers.remove(query_id)
        if txn.waiting_for is not None:
            queue = self._waiters.get(txn.waiting_for, [])
            if query_id in queue:
                queue.remove(query_id)
        woken: List[int] = []
        for item in txn.acquired:
            if self._holders.get(item) != query_id:
                continue
            del self._holders[item]
            queue = self._waiters.get(item, [])
            while queue:
                next_id = queue.pop(0)
                waiter = self._txns.get(next_id)
                if waiter is None or waiter.waiting_for != item:
                    continue
                self._holders[item] = next_id
                waiter.acquired.append(item)
                waiter.waiting_for = None
                woken.append(next_id)
                break
        return woken

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def blocked_ids(self) -> Set[int]:
        """Transactions currently waiting on a lock."""
        return {qid for qid, txn in self._txns.items() if txn.waiting_for is not None}

    def conflict_ratio(self, implicit: int = 0) -> float:
        """Moenkeberg & Weikum's conflict ratio [56]; 1.0 when idle.

        ``implicit`` counts the locks quiet transactions hold by having
        passed their points; a quiet transaction is never blocked, so they
        count in both the numerator and the denominator.
        """
        total = implicit + sum(len(t.acquired) for t in self._txns.values())
        active = implicit + sum(
            len(t.acquired) for t in self._txns.values() if t.waiting_for is None
        )
        if active == 0:
            return float("inf") if total > 0 else 1.0
        return total / active

    def locks_held(self) -> int:
        """Locks held explicitly (a quiet transaction's are implicit)."""
        return len(self._holders)

    def reset(self) -> None:
        """Drop all state (between experiment repetitions)."""
        self._holders.clear()
        self._waiters.clear()
        self._listers.clear()
        self._txns.clear()
        self.quiet.clear()
        self._turned_loud.clear()
        self.stats = LockConflictStats()

    def _require(self, query_id: int) -> _Transaction:
        txn = self._txns.get(query_id)
        if txn is None:
            raise SimulationError(f"transaction {query_id} is not registered")
        return txn
