"""The cluster task queue: priority-ordered, per-class shares, tags.

This is the pull half of the dispatch substrate (DIRAC's TaskQueueDB in
miniature).  In *push* dispatch the dispatcher binds every arrival to a
node immediately; in *pull* dispatch arrivals park here — one entry per
request, bucketed by workload class — until a node with a free
execution slot asks the :class:`~repro.cluster.matcher.Matcher` for
work.  Ordering within the queue is the cluster-level analogue of the
paper's §3.3 wait-queue management:

* **per-class shares** — when several workload classes have waiting
  entries, classes are served in deficit order (entries served so far
  divided by the class's share), so a class with share 3 receives ~3x
  the dispatch slots of a share-1 class under contention;
* **priority order** — within a class, higher business priority first,
  FIFO within a priority level;
* **requirement tags** — an entry may carry capability tags
  (``frozenset`` of strings); it only ever matches a node whose
  :attr:`~repro.cluster.node.ClusterNode.capabilities` cover them —
  DIRAC's requirement/capability matching.

Everything here is pure data structure — no clock, no RNG — and every
tie is broken deterministically (class name, then insertion sequence),
so pull dispatch inherits the simulator's bit-determinism.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

from repro.engine.query import Query, workload_key

#: Derives an entry's requirement tags from the query; the default
#: (``None``) requires nothing, so every node is capability-eligible.
RequirementsFn = Callable[[Query], FrozenSet[str]]

#: Derives an entry's share-bucket key from the query; the default
#: (``None``) buckets by workload class.  Multi-tenant scenarios pass a
#: tenant extractor here so shares split dispatch *between tenants*.
KeyFn = Callable[[Query], str]

NO_REQUIREMENTS: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class TaskEntry:
    """One queued request, ready for capability matching.

    ``sort_key`` orders entries within a class: higher priority first,
    then insertion sequence (FIFO) — the deterministic tie-break.
    """

    query: Query
    workload: str
    priority: int
    seq: int
    enqueue_time: float
    requirements: FrozenSet[str] = NO_REQUIREMENTS

    @property
    def sort_key(self) -> tuple:
        return (-self.priority, self.seq)


@dataclass
class _ClassBucket:
    """Per-class heap of entries plus the share bookkeeping."""

    share: float
    served: float = 0.0
    heap: List[tuple] = field(default_factory=list)  # (sort_key, entry)

    @property
    def deficit(self) -> float:
        """Entries served so far, normalized by the class share.

        The matcher serves the class with the smallest deficit first,
        which converges on share-proportional dispatch counts whenever
        several classes have matching work waiting.
        """
        return self.served / max(self.share, 1e-9)


class TaskQueue:
    """Priority-ordered, share-aware, tag-matching wait queue.

    Parameters
    ----------
    class_shares:
        ``{workload: share}`` dispatch shares; classes not listed get
        ``default_share``.  Shares only matter under contention —
        an uncontended class is served whenever it matches.
    default_share:
        Share for classes without an explicit entry.
    requirements_fn:
        Optional ``query -> frozenset`` deriving requirement tags per
        entry (e.g. route ``bi`` queries only to ``"big-memory"``
        nodes).  ``None`` means no entry requires anything.
    key_fn:
        Optional ``query -> str`` deriving the share-bucket key.  The
        default buckets by workload class (``workload_name`` or the
        ``name:`` sql prefix); tenant-isolated clusters pass a tenant
        extractor so ``class_shares`` become per-tenant queue shares.
    """

    def __init__(
        self,
        class_shares: Optional[Dict[str, float]] = None,
        default_share: float = 1.0,
        requirements_fn: Optional[RequirementsFn] = None,
        key_fn: Optional[KeyFn] = None,
    ) -> None:
        if default_share <= 0:
            raise ValueError("default_share must be > 0")
        for name, share in (class_shares or {}).items():
            if share <= 0:
                raise ValueError(f"share for {name!r} must be > 0")
        self.class_shares = dict(class_shares or {})
        self.default_share = default_share
        self.requirements_fn = requirements_fn
        self.key_fn = key_fn
        self._buckets: Dict[str, _ClassBucket] = {}
        self._seq = 0
        self._len = 0

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def _class_key(self, query: Query) -> str:
        if self.key_fn is not None:
            return self.key_fn(query)
        key = workload_key(query)
        return "<unassigned>" if key is None else key

    def _bucket(self, workload: str) -> _ClassBucket:
        bucket = self._buckets.get(workload)
        if bucket is None:
            bucket = self._buckets[workload] = _ClassBucket(
                share=self.class_shares.get(workload, self.default_share)
            )
        return bucket

    def push(self, query: Query, now: float) -> TaskEntry:
        """Queue one request; returns its entry (for introspection)."""
        workload = self._class_key(query)
        requirements = (
            self.requirements_fn(query)
            if self.requirements_fn is not None
            else NO_REQUIREMENTS
        )
        entry = TaskEntry(
            query=query,
            workload=workload,
            priority=query.priority,
            seq=self._seq,
            enqueue_time=now,
            requirements=frozenset(requirements),
        )
        self._seq += 1
        bucket = self._bucket(workload)
        if not bucket.heap:
            self._level_refilled(bucket)
        heapq.heappush(bucket.heap, (entry.sort_key, entry))
        self._len += 1
        return entry

    def _level_refilled(self, bucket: _ClassBucket) -> None:
        """Reset share credit for a bucket going empty → non-empty.

        Deficit must not accumulate while a class/tenant has no eligible
        work: a bucket that sat empty keeps its old ``served`` count, so
        its deficit freezes while the classes actually being served pull
        ahead.  Left alone, the refilled bucket would then monopolize
        dispatch until it "caught up" on share it never had work for —
        starving everyone else.  Instead, a refilled bucket re-enters
        level with the least-served *backlogged* bucket: the fair split
        applies from now on, not retroactively.
        """
        active = [
            other.deficit
            for other in self._buckets.values()
            if other.heap and other is not bucket
        ]
        if not active:
            return
        floor = min(active)
        if bucket.deficit < floor:
            bucket.served = floor * max(bucket.share, 1e-9)

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match(
        self,
        capabilities: FrozenSet[str],
        blocked: Optional[Callable[[Query], bool]] = None,
    ) -> Optional[TaskEntry]:
        """Pop the best entry a node with ``capabilities`` can take.

        Classes are visited in (deficit, -head priority, name) order;
        within a class, entries in priority-FIFO order.  ``blocked``
        filters entries the caller must skip (e.g. queries this node
        already refused).  Returns ``None`` when nothing matches.
        """
        for workload in self._class_order():
            entry = self._match_in(workload, capabilities, blocked)
            if entry is not None:
                return entry
        return None

    def _class_order(self) -> List[str]:
        ranked = []
        for workload, bucket in self._buckets.items():
            if not bucket.heap:
                continue
            head_priority = -bucket.heap[0][0][0]
            ranked.append((bucket.deficit, -head_priority, workload))
        ranked.sort()
        return [workload for _, _, workload in ranked]

    def _match_in(
        self,
        workload: str,
        capabilities: FrozenSet[str],
        blocked: Optional[Callable[[Query], bool]],
    ) -> Optional[TaskEntry]:
        bucket = self._buckets[workload]
        skipped: List[tuple] = []
        found: Optional[TaskEntry] = None
        while bucket.heap:
            item = heapq.heappop(bucket.heap)
            entry = item[1]
            if entry.requirements <= capabilities and not (
                blocked is not None and blocked(entry.query)
            ):
                found = entry
                break
            skipped.append(item)
        for item in skipped:
            heapq.heappush(bucket.heap, item)
        if found is not None:
            bucket.served += 1
            self._len -= 1
        return found

    # ------------------------------------------------------------------
    # maintenance / introspection
    # ------------------------------------------------------------------
    def remove(self, query_id: int) -> Optional[Query]:
        """Withdraw one queued request by id (bound enforcement)."""
        for bucket in self._buckets.values():
            for index, (_, entry) in enumerate(bucket.heap):
                if entry.query.query_id == query_id:
                    bucket.heap[index] = bucket.heap[-1]
                    bucket.heap.pop()
                    heapq.heapify(bucket.heap)
                    self._len -= 1
                    return entry.query
        return None

    def __len__(self) -> int:
        return self._len

    def queued_queries(self) -> List[Query]:
        """Snapshot in deterministic (class, priority, FIFO) order."""
        out: List[Query] = []
        for workload in sorted(self._buckets):
            bucket = self._buckets[workload]
            for _, entry in sorted(bucket.heap):
                out.append(entry.query)
        return out

    def queued_entries(self) -> List[TaskEntry]:
        out: List[TaskEntry] = []
        for workload in sorted(self._buckets):
            for _, entry in sorted(self._buckets[workload].heap):
                out.append(entry)
        return out

    def class_depths(self) -> Dict[str, int]:
        return {
            workload: len(bucket.heap)
            for workload, bucket in sorted(self._buckets.items())
            if bucket.heap
        }

    def served_counts(self) -> Dict[str, int]:
        return {
            workload: bucket.served
            for workload, bucket in sorted(self._buckets.items())
            if bucket.served
        }
