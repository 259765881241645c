"""Partitioned wait queues (paper §3.3, queue management).

"After passing through an admission control (if any), requests are
placed in a wait queue or classified into multiple wait queues
according to their performance objectives and/or business priorities.
A scheduler then orders requests from the wait queue(s)."

The single wait queue (arrival, priority, shortest-job and WSPT order)
is :class:`repro.core.manager.WaitQueue`; this module holds the
schedulers that partition it:

* :class:`MultiQueueScheduler` — one queue per workload with
  per-workload MPLs plus a global MPL (Teradata-style object throttles);
* :class:`TenantShareScheduler` — the same sweep keyed by tenant, with
  caps apportioned from share weights.

The global MPL is an int (static threshold) or an
:class:`~repro.core.interfaces.MplController` (dynamic determination).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.interfaces import ManagerContext, MplController, MplLike, Scheduler
from repro.engine.query import Query, tenant_key, workload_key


class MultiQueueScheduler(Scheduler):
    """One wait queue per workload, per-workload MPLs, global MPL.

    Dispatch sweeps workloads by descending priority; within a workload
    FIFO.  This is the structure of Teradata's workload-definition
    concurrency throttles and DB2's concurrent-activities thresholds.
    """

    def __init__(
        self,
        global_mpl: MplLike = None,
        per_workload_mpl: Optional[Dict[str, int]] = None,
        default_workload_mpl: Optional[int] = None,
    ) -> None:
        self.global_mpl = MplController.of(global_mpl)
        self.per_workload_mpl = dict(per_workload_mpl or {})
        self.default_workload_mpl = default_workload_mpl
        self._queues: Dict[str, List[Query]] = {}

    def attach(self, context: ManagerContext) -> None:
        self.global_mpl.attach(context)

    def notify_exit(self, query: Query, context: ManagerContext) -> None:
        self.global_mpl.notify_completion()

    def _workload_key(self, query: Query) -> str:
        return query.workload_name or "<unassigned>"

    def enqueue(self, query: Query, context: ManagerContext) -> None:
        self._queues.setdefault(self._workload_key(query), []).append(query)

    def _workload_limit(self, workload: str) -> Optional[int]:
        if workload in self.per_workload_mpl:
            return self.per_workload_mpl[workload]
        return self.default_workload_mpl

    def next_batch(self, context: ManagerContext) -> List[Query]:
        limit = self.global_mpl.current_limit(context)
        running_by_workload: Dict[str, int] = {}
        for query in context.engine.running_queries():
            key = self._workload_key(query)
            running_by_workload[key] = running_by_workload.get(key, 0) + 1
        running_total = context.engine.running_count

        batch: List[Query] = []
        # workloads by priority of their queue heads, descending
        def head_priority(workload: str) -> int:
            queue = self._queues[workload]
            return queue[0].priority if queue else -1

        progressed = True
        at_global_limit = False
        while progressed and not at_global_limit:
            progressed = False
            for workload in sorted(
                self._queues, key=head_priority, reverse=True
            ):
                queue = self._queues[workload]
                if not queue:
                    continue
                if limit is not None and running_total + len(batch) >= limit:
                    at_global_limit = True
                    break
                workload_limit = self._workload_limit(workload)
                in_flight = running_by_workload.get(workload, 0)
                if workload_limit is not None and in_flight >= workload_limit:
                    continue
                query = queue.pop(0)
                batch.append(query)
                running_by_workload[workload] = in_flight + 1
                progressed = True
        return batch

    def queued_count(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def queued_queries(self) -> List[Query]:
        return [q for queue in self._queues.values() for q in queue]

    def remove(self, query_id: int) -> Optional[Query]:
        for queue in self._queues.values():
            for index, query in enumerate(queue):
                if query.query_id == query_id:
                    return queue.pop(index)
        return None

    def queue_length(self, workload: str) -> int:
        return len(self._queues.get(workload, []))


def tenant_mpl_caps(mpl: int, shares: Dict[str, float]) -> Dict[str, int]:
    """Apportion ``mpl`` execution slots to tenants by share weight.

    Largest-remainder apportionment with a floor of one slot per tenant
    (a tenant with any share may always run *something*), deterministic
    tie-break by tenant name.  The caps are the per-tenant MPL limits a
    :class:`TenantShareScheduler` enforces — strict reservations, so a
    noisy tenant's backlog cannot consume a quiet tenant's slots.
    """
    if mpl < 1:
        raise ValueError(f"mpl must be >= 1, got {mpl}")
    if not shares:
        return {}
    for tenant, share in shares.items():
        if share <= 0:
            raise ValueError(f"share for {tenant!r} must be > 0")
    total = sum(shares.values())
    caps: Dict[str, int] = {}
    remainders: List[tuple] = []
    assigned = 0
    for tenant in sorted(shares):
        raw = mpl * shares[tenant] / total
        caps[tenant] = max(1, int(raw))
        assigned += caps[tenant]
        remainders.append((-(raw - int(raw)), tenant))
    remainders.sort()
    index = 0
    while assigned < mpl and remainders:
        _, tenant = remainders[index % len(remainders)]
        caps[tenant] += 1
        assigned += 1
        index += 1
    return caps


class TenantShareScheduler(MultiQueueScheduler):
    """Per-tenant MPL reservations on one node (multi-tenant isolation).

    One wait queue per *tenant* — the part of ``workload_name`` before
    the first ``/`` — with per-tenant MPL caps apportioned from share
    weights (:func:`tenant_mpl_caps`) under the node's global MPL.
    Dispatch sweeps tenants by queue-head priority exactly like
    :class:`MultiQueueScheduler` sweeps workloads, so a flash-crowding
    tenant saturates its own reservation and then *waits*, leaving the
    other tenants' slots untouched — the node-tier half of the scenario
    suite's isolation story (the cluster-tier half is tenant admission
    quotas + task-queue tenant shares).
    """

    def __init__(
        self,
        mpl: int,
        shares: Dict[str, float],
        untenanted_mpl: Optional[int] = None,
    ) -> None:
        super().__init__(
            global_mpl=mpl,
            per_workload_mpl=tenant_mpl_caps(mpl, shares),
            default_workload_mpl=untenanted_mpl,
        )
        self.shares = dict(shares)

    def _workload_key(self, query: Query) -> str:
        tenant = tenant_key(query)
        return tenant if tenant is not None else workload_key(query) or "<unassigned>"
