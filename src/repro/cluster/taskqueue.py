"""The cluster task queue: the node tier's partitioned queue under a share rule.

This is the pull half of the dispatch substrate (DIRAC's TaskQueueDB in
miniature).  In *push* dispatch the dispatcher binds every arrival to a
node immediately; in *pull* dispatch arrivals park here until a node
with a free execution slot asks the
:class:`~repro.cluster.matcher.Matcher` for work.  The wait structure is
the one the node tier uses,
:class:`~repro.scheduling.queues.PartitionedQueue`: one bucket per
workload class (or per tenant), higher business priority first and
FIFO within a priority level (:func:`~repro.core.manager.by_priority`).
What this module adds is the cluster's bucket rule:

* **share deficit** — buckets with waiting requests are served in
  ``(served / share, head rank, name)`` order, so a bucket with share 3
  receives ~3x the dispatch slots of a share-1 bucket under contention;
* **the blocked filter** — :meth:`TaskQueue.match` skips the requests
  the pulling node must not take (those it refused before).

Everything here is pure data structure — no clock, no RNG — and every
tie is broken deterministically (bucket name, then arrival), so pull
dispatch inherits the simulator's bit-determinism.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.core.manager import by_priority
from repro.engine.query import Query, workload_key
from repro.scheduling.queues import PartitionedQueue


def _workload_bucket(query: Query) -> str:
    key = workload_key(query)
    return "<unassigned>" if key is None else key


class TaskQueue(PartitionedQueue):
    """Priority-ordered, share-aware wait queue of the pull binding.

    Parameters
    ----------
    shares:
        ``{bucket: share}`` dispatch shares; buckets not listed get 1.
        Shares only matter under contention — an uncontended bucket is
        served whenever it has a request the caller may take.
    key:
        ``query -> bucket name``.  The default buckets by workload class
        (``workload_name`` or the ``name:`` sql prefix); tenant-isolated
        clusters pass a tenant extractor so shares split dispatch
        *between tenants*.
    """

    def __init__(
        self,
        shares: Optional[Dict[str, float]] = None,
        key: Callable[[Query], str] = _workload_bucket,
    ) -> None:
        for name, share in (shares or {}).items():
            if share <= 0:
                raise ValueError(f"share for {name!r} must be > 0")
        super().__init__(key, order=by_priority)
        self.shares = dict(shares or {})
        #: requests served per bucket: the deficit is ``served / share``
        self.served: Dict[str, float] = {}
        self._weight: Dict[str, float] = {}  # the deficit's divisor, max(share, 1e-9)

    # the ledger's seam table cuts ``TaskQueue.push`` in this class's body
    push = PartitionedQueue.push

    def _refill(self, name: str) -> List[tuple]:
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
        served, weight = self.served, self._weight
        heap = self.buckets.get(name)
        if heap is None:
            heap = self.buckets[name] = []
            served[name] = 0.0
            weight[name] = max(self.shares.get(name, 1.0), 1e-9)
        active = [
            served[other] / weight[other] for other, waiting in self.buckets.items() if waiting
        ]
        if active:
            floor = min(active)
            if served[name] / weight[name] < floor:
                served[name] = floor * weight[name]
        return heap

    def match(self, blocked: Optional[Callable[[Query], bool]] = None) -> Optional[Query]:
        """Pop the best request the caller may take; ``None`` if there is none.

        Buckets are visited in (deficit, head rank, name) order, each in
        pop order.  ``blocked`` filters the requests the caller must
        skip; they keep their places.
        """
        buckets, served, weight = self.buckets, self.served, self._weight
        ranked = sorted(
            [(served[name] / weight[name], heap[0][0], name) for name, heap in buckets.items() if heap]
        )
        for _, _, name in ranked:
            heap = buckets[name]
            skipped = []
            found = None
            while heap:
                entry = heappop(heap)
                if blocked is None or not blocked(entry[2]):
                    found = entry[2]
                    break
                skipped.append(entry)
            for entry in skipped:
                heappush(heap, entry)
            if found is not None:
                served[name] += 1
                self._len -= 1
                return found
        return None

    def queued_queries(self) -> List[Query]:
        """Snapshot in (bucket name, pop) order."""
        return [entry[2] for name in sorted(self.buckets) for entry in sorted(self.buckets[name])]
