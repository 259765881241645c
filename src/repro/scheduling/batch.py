"""Batch-order optimization (paper §3.3, [2][24]).

For report-generation batch workloads the scheduler sees all requests
at once and picks an execution order.  Two surveyed flavours:

* **rank functions** [24] — order by a scalar rank; we provide weighted
  shortest processing time (WSPT: rank = estimated work / weight),
  which is the optimal order for weighted total completion time on a
  single resource and is the canonical "fair, effective, efficient and
  differentiated" rank — as a wait-queue discipline it is
  ``WaitQueue(key=wspt)``;
* **interaction-aware ordering** [2] — queries interact through shared
  memory: co-scheduling several memory-heavy queries causes spill.
  The greedy variant interleaves memory-heavy and memory-light queries
  so no dispatch window oversubscribes the pool.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.scheduling.queues import wspt
from repro.engine.query import Query


def wspt_order(queries: Sequence[Query]) -> List[Query]:
    """Weighted-shortest-processing-time order (rank = work / priority).

    Minimizes sum of priority-weighted completion times for serial
    execution; a strong heuristic under processor sharing too.
    """
    return sorted(queries, key=lambda q: (wspt(q), q.query_id))


def optimal_order_exhaustive(queries: Sequence[Query]) -> List[Query]:
    """Exact minimum-weighted-completion-time order by enumeration.

    Serial-execution model: completing in order ``q1..qn`` costs
    ``sum_i priority_i * (work_1 + ... + work_i)``.  Exponential in the
    batch size (guarded at 9), so this exists to *validate* the WSPT
    rank function, not to schedule production batches — Smith's rule
    says :func:`wspt_order` attains the same objective value.
    """
    queries = list(queries)
    if len(queries) > 9:
        raise ValueError("exhaustive search is limited to 9 queries")
    import itertools

    best = min(itertools.permutations(queries), key=weighted_completion_time)
    return list(best)


def weighted_completion_time(order: Sequence[Query]) -> float:
    """Objective value of a serial execution order (see above)."""
    elapsed = 0.0
    total = 0.0
    for query in order:
        elapsed += query.estimated_cost.total_work
        total += max(query.priority, 1) * elapsed
    return total


def interaction_aware_order(
    queries: Sequence[Query],
    memory_capacity_mb: float,
    window: int = 4,
) -> List[Query]:
    """Greedy interaction-aware ordering over memory footprints [2].

    Builds the sequence window by window: each window of size ``window``
    (≈ expected co-runners) is filled starting from the WSPT order while
    keeping the window's total memory within ``memory_capacity_mb`` when
    possible — memory-heavy queries get spread across windows instead of
    clustering and causing spill.
    """
    remaining = wspt_order(queries)
    ordered: List[Query] = []
    while remaining:
        window_queries: List[Query] = []
        window_memory = 0.0
        index = 0
        while index < len(remaining) and len(window_queries) < window:
            query = remaining[index]
            memory = query.estimated_cost.memory_mb
            if (
                window_memory + memory <= memory_capacity_mb
                or not window_queries
            ):
                window_queries.append(query)
                window_memory += memory
                remaining.pop(index)
            else:
                index += 1
        ordered.extend(window_queries)
    return ordered
