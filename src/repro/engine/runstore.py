"""Columnar (struct-of-arrays) storage for the engine's running set.

The execution engine's hot loops — fluid advance, milestone selection,
fair-share solving — touch a handful of scalar fields per running query.
Storing those fields as parallel numpy arrays instead of attributes on
per-query Python objects lets the hot loops run as single array
operations (and makes the scalar fallback loops cache-friendly).

Design constraints (see DESIGN.md §7):

* **Insertion order is observable.**  The engine's float accumulation
  order (growth sums in the fair-share fill, usage totals) follows the
  running-set iteration order, and committed digests depend on it.  The
  store therefore preserves insertion order exactly like the dict it
  replaced: new entries append at the tail, removals leave tombstones,
  and compaction gathers live rows without reordering them.  A
  swap-remove free list would be O(1) but would silently reorder float
  sums and break bit-identity.
* **Slots are unstable across compaction.**  Callers must map ids to
  slots through :attr:`index` at use time rather than caching slot
  numbers across membership changes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

#: Minimum number of tombstoned rows before compaction is considered.
_COMPACT_MIN_DEAD = 32


class RunStore:
    """Order-preserving struct-of-arrays table of running queries.

    Columns (all indexed by slot):

    ``qid``          query id (int64; -1 in dead slots)
    ``progress``     fluid progress in [0, 1]
    ``speed``        current fair-share speed
    ``weight``       business fair-share weight
    ``throttle``     throttle factor in [0, 1]
    ``start_time``   when the query entered the engine
    ``cpu_base``     CPU seconds demanded per unit progress (>= 0)
    ``io_base``      raw disk seconds per unit progress (>= 0)
    ``disk_demand``  ``io_base`` inflated by the current buffer-pool epoch
    ``bottleneck``   max(cpu_base, disk_demand) — unloaded duration
    ``solve_weight`` ``weight / bottleneck`` — the solver's weight
    ``speed_cap``    solver speed cap (0 when blocked or paused)
    ``milestone``    progress value of the next lock point or 1.0
    ``blocked``      waiting on a lock
    ``locks_pending``query still has lock points ahead
    ``alive``        slot holds a live entry
    """

    __slots__ = (
        "capacity",
        "size",
        "count",
        "index",
        "qid",
        "progress",
        "speed",
        "weight",
        "throttle",
        "start_time",
        "cpu_base",
        "io_base",
        "disk_demand",
        "bottleneck",
        "solve_weight",
        "speed_cap",
        "milestone",
        "blocked",
        "locks_pending",
        "alive",
        "_live_cache",
    )

    _FLOAT_COLS = (
        "progress",
        "speed",
        "weight",
        "throttle",
        "start_time",
        "cpu_base",
        "io_base",
        "disk_demand",
        "bottleneck",
        "solve_weight",
        "speed_cap",
        "milestone",
    )
    _BOOL_COLS = ("blocked", "locks_pending", "alive")

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = max(int(capacity), 8)
        self.size = 0        # dense prefix length (live + tombstones)
        self.count = 0       # live entries
        self.index: Dict[int, int] = {}
        self.qid = np.full(self.capacity, -1, dtype=np.int64)
        for name in self._FLOAT_COLS:
            setattr(self, name, np.zeros(self.capacity, dtype=np.float64))
        for name in self._BOOL_COLS:
            setattr(self, name, np.zeros(self.capacity, dtype=bool))
        self._live_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    def add(self, query_id: int) -> int:
        """Append a row for ``query_id`` and return its slot.

        The caller fills the columns; the row starts zeroed with
        ``alive`` set.  Appending keeps insertion order; capacity is
        reclaimed from tombstones (order-preserving) before growing.
        """
        if query_id in self.index:
            raise ValueError(f"query {query_id} already stored")
        if self.size == self.capacity:
            if self.size - self.count >= _COMPACT_MIN_DEAD:
                self.compact()
            else:
                self._grow()
        slot = self.size
        self.size = slot + 1
        self.count += 1
        self.qid[slot] = query_id
        for name in self._FLOAT_COLS:
            getattr(self, name)[slot] = 0.0
        self.blocked[slot] = False
        self.locks_pending[slot] = False
        self.alive[slot] = True
        self.index[query_id] = slot
        self._live_cache = None
        return slot

    def remove(self, query_id: int) -> None:
        """Tombstone the row for ``query_id`` (order-preserving)."""
        slot = self.index.pop(query_id)
        self.alive[slot] = False
        self.qid[slot] = -1
        # Dead rows must not poison vectorized passes that operate on
        # the dense prefix rather than gathered live rows.
        self.speed[slot] = 0.0
        self.count -= 1
        self._live_cache = None
        if (
            self.size - self.count >= _COMPACT_MIN_DEAD
            and self.size - self.count > self.count
        ):
            self.compact()

    def live_indices(self) -> np.ndarray:
        """Slots of live rows in insertion order (cached; treat read-only)."""
        cache = self._live_cache
        if cache is None:
            cache = self._live_cache = self.alive[: self.size].nonzero()[0]
        return cache

    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Drop tombstones by gathering live rows, preserving order."""
        if self.size == self.count:
            return
        keep = np.flatnonzero(self.alive[: self.size])
        n = int(keep.size)
        self.qid[:n] = self.qid[keep]
        self.qid[n : self.size] = -1
        for name in self._FLOAT_COLS:
            col = getattr(self, name)
            col[:n] = col[keep]
        for name in self._BOOL_COLS:
            col = getattr(self, name)
            col[:n] = col[keep]
            col[n : self.size] = False
        self.size = n
        self.index = {int(q): i for i, q in enumerate(self.qid[:n])}
        self._live_cache = None

    def _grow(self) -> None:
        new_capacity = self.capacity * 2
        grown_qid = np.full(new_capacity, -1, dtype=np.int64)
        grown_qid[: self.size] = self.qid[: self.size]
        self.qid = grown_qid
        for name in self._FLOAT_COLS:
            col = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=np.float64)
            grown[: self.size] = col[: self.size]
            setattr(self, name, grown)
        for name in self._BOOL_COLS:
            col = getattr(self, name)
            grown = np.zeros(new_capacity, dtype=bool)
            grown[: self.size] = col[: self.size]
            setattr(self, name, grown)
        self.capacity = new_capacity

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def __contains__(self, query_id: int) -> bool:
        return query_id in self.index

    def live_qids(self) -> List[int]:
        """Query ids of live rows in insertion order."""
        return [int(q) for q in self.qid[self.live_indices()]]

    def __repr__(self) -> str:
        return (
            f"RunStore(count={self.count}, size={self.size}, "
            f"capacity={self.capacity})"
        )
