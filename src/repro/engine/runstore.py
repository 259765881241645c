"""Columnar storage for the engine's running set (DESIGN.md §7).

The engine's hot loops — fluid advance, milestone selection, fair-share
solving — touch a handful of fields per running query, one column each.
A column is a Python list, read and written in place by the scalar
loops, while fewer than the engine's vector cutover rows are live, and a
numpy array, read by the vector step, at or above it.  The store
converts in :meth:`add` and :meth:`remove`, so the representation always
matches the step that reads it.

Design constraints:

* **Insertion order is observable.**  The engine's float accumulation
  order (growth sums in the fair-share fill, usage totals) follows the
  running-set iteration order, and committed digests depend on it.  In
  list mode a removal deletes the row, so a slot is its position; in
  array mode a removal leaves a tombstone and compaction gathers live
  rows without reordering them.  A swap-remove free list would be O(1)
  but would silently reorder float sums and break bit-identity.
* **Slots are unstable across membership changes.**  Callers must map
  ids to slots through :attr:`index` at use time rather than caching
  slot numbers across an add or remove.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: Minimum number of tombstoned rows before compaction is considered.
_COMPACT_MIN_DEAD = 32

#: Rows an array-mode store allocates when it converts.
_ARRAY_CAPACITY = 64


class RunStore:
    """Order-preserving columnar table of running queries.

    Columns (all indexed by slot):

    ``qid``          query id (-1 in a tombstone)
    ``progress``     fluid progress in [0, 1]
    ``speed``        current fair-share speed
    ``weight``       business fair-share weight
    ``throttle``     throttle factor in [0, 1]
    ``cpu_base``     CPU seconds demanded per unit progress (>= 0)
    ``io_base``      raw disk seconds per unit progress (>= 0)
    ``disk_demand``  ``io_base`` inflated by the current buffer-pool epoch
    ``bottleneck``   max(cpu_base, disk_demand) — unloaded duration
    ``solve_weight`` ``weight / bottleneck`` — the solver's weight
    ``speed_cap``    solver speed cap (0 when blocked or paused)
    ``milestone``    progress value of the next lock point or 1.0
    ``blocked``      waiting on a lock
    ``locks_pending``query still has lock points ahead
    ``alive``        slot holds a live entry (array mode only)

    ``vector`` is true while the columns are numpy arrays; ``size`` and
    ``capacity`` (the dense prefix of live rows and tombstones, and the
    allocated length) are meaningful only then.
    """

    _FLOAT_COLS = (
        "progress",
        "speed",
        "weight",
        "throttle",
        "cpu_base",
        "io_base",
        "disk_demand",
        "bottleneck",
        "solve_weight",
        "speed_cap",
        "milestone",
    )
    #: every column but ``alive``, with its array dtype
    _COLUMNS = (
        ("qid", np.int64),
        *((name, np.float64) for name in _FLOAT_COLS),
        ("blocked", bool),
        ("locks_pending", bool),
    )

    __slots__ = (
        "cutover",
        "vector",
        "capacity",
        "size",
        "count",
        "index",
        *(name for name, _ in _COLUMNS),
        "alive",
        "_live_cache",
    )

    def __init__(self, cutover: int) -> None:
        self.cutover = cutover
        self.count = 0
        self._use_lists([[] for _ in self._COLUMNS])

    # ------------------------------------------------------------------
    def add(self, query_id: int, row: Sequence[float], locks_pending: bool) -> int:
        """Append ``query_id`` with ``row`` (its ``_FLOAT_COLS`` values in
        order), not blocked, and return its slot."""
        if query_id in self.index:
            raise ValueError(f"query {query_id} already stored")
        if self.vector:
            if self.size == self.capacity:
                self._use_arrays(self._live_columns())
            slot = self.size
            self.size = slot + 1
            self.qid[slot] = query_id
            for name, value in zip(self._FLOAT_COLS, row):
                getattr(self, name)[slot] = value
            self.blocked[slot] = False
            self.locks_pending[slot] = locks_pending
            self.alive[slot] = True
            self._live_cache = None
        else:
            slot = self.count
            self.qid.append(query_id)
            self.progress.append(row[0])
            self.speed.append(row[1])
            self.weight.append(row[2])
            self.throttle.append(row[3])
            self.cpu_base.append(row[4])
            self.io_base.append(row[5])
            self.disk_demand.append(row[6])
            self.bottleneck.append(row[7])
            self.solve_weight.append(row[8])
            self.speed_cap.append(row[9])
            self.milestone.append(row[10])
            self.blocked.append(False)
            self.locks_pending.append(locks_pending)
        self.index[query_id] = slot
        self.count += 1
        if not self.vector and self.count >= self.cutover:
            self._use_arrays([getattr(self, name) for name, _ in self._COLUMNS])
        return slot

    def remove(self, query_id: int) -> None:
        """Drop the row for ``query_id``, keeping the others' order."""
        slot = self.index.pop(query_id)
        self.count -= 1
        if not self.vector:
            del (
                self.qid[slot], self.progress[slot], self.speed[slot],
                self.weight[slot], self.throttle[slot], self.cpu_base[slot],
                self.io_base[slot], self.disk_demand[slot], self.bottleneck[slot],
                self.solve_weight[slot], self.speed_cap[slot], self.milestone[slot],
                self.blocked[slot], self.locks_pending[slot],
            )
            index, qid = self.index, self.qid
            for position in range(slot, self.count):
                index[qid[position]] = position
            return
        self.alive[slot] = False
        self.qid[slot] = -1
        # Dead rows must not poison vectorized passes that operate on
        # the dense prefix rather than gathered live rows.
        self.speed[slot] = 0.0
        self._live_cache = None
        if self.count < self.cutover:
            self._use_lists([column.tolist() for column in self._live_columns()])
        elif (
            self.size - self.count >= _COMPACT_MIN_DEAD
            and self.size - self.count > self.count
        ):
            self._use_arrays(self._live_columns())

    def live_indices(self) -> np.ndarray:
        """Slots of live rows in insertion order (cached; treat read-only)."""
        if not self.vector:
            return np.arange(self.count)
        cache = self._live_cache
        if cache is None:
            cache = self._live_cache = self.alive[: self.size].nonzero()[0]
        return cache

    def position(self, slot: int) -> int:
        """A live slot's position in insertion order."""
        return int(self.live_indices().searchsorted(slot)) if self.vector else slot

    def slot_at(self, position: int) -> int:
        """The slot of the live row at ``position`` in insertion order."""
        return int(self.live_indices()[position]) if self.vector else position

    # ------------------------------------------------------------------
    def _live_columns(self) -> list:
        """Every array column's live rows, in insertion order."""
        live = self.live_indices()
        return [getattr(self, name)[live] for name, _ in self._COLUMNS]

    def _use_lists(self, columns: List[list]) -> None:
        """Hold ``columns``, the live rows in order, as lists."""
        for (name, _), column in zip(self._COLUMNS, columns):
            setattr(self, name, column)
        self.index = {query_id: slot for slot, query_id in enumerate(self.qid)}
        self.vector = False
        self.alive = self._live_cache = None

    def _use_arrays(self, columns: list) -> None:
        """Hold ``columns``, the live rows in order, as arrays with room
        for as many again (compaction and growth in one)."""
        n = self.count
        self.capacity = capacity = max(_ARRAY_CAPACITY, 2 * n)
        for (name, dtype), values in zip(self._COLUMNS, columns):
            column = np.zeros(capacity, dtype=dtype)
            column[:n] = values
            setattr(self, name, column)
        self.alive = np.zeros(capacity, dtype=bool)
        self.alive[:n] = True
        self.index = {query_id: slot for slot, query_id in enumerate(self.qid[:n].tolist())}
        self.size = n
        self.vector = True
        self._live_cache = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def __contains__(self, query_id: int) -> bool:
        return query_id in self.index

    def live_qids(self) -> List[int]:
        """Query ids of live rows in insertion order."""
        if not self.vector:
            return list(self.qid)
        return [int(q) for q in self.qid[self.live_indices()]]

    def __repr__(self) -> str:
        mode = f"size={self.size}, capacity={self.capacity}" if self.vector else "lists"
        return f"RunStore(count={self.count}, {mode})"
