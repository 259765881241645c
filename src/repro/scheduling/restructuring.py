"""Query restructuring: slice large queries, schedule slices (paper §3.3).

"Query restructuring techniques decompose a query into a set of small
queries... no short queries will be stuck behind large queries and no
large queries will be required to wait in the queue for long periods of
time.  By restructuring the original query, the work is executed, but
with a lesser impact on the performance of the other requests running
concurrently" [6][36][54].

:class:`RestructuringScheduler` wraps any inner scheduler.  Queries
whose estimated work exceeds ``slice_threshold`` are decomposed into
slices of ≈``slice_work`` device-seconds.  Slices of one query execute
*serially* (they are sub-plans with a required order [54]); the wrapper
releases the next slice when the previous completes and records the
original query's end-to-end response time when the last slice finishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List

from repro.core.classify import Feature
from repro.core.interfaces import Scheduler
from repro.core.manager import WorkloadManager
from repro.engine.query import Query, QueryState, split_query


@dataclass
class _SliceGroup:
    original: Query
    pending: List[Query] = field(default_factory=list)  # not yet released
    outstanding: int = 0                                # released, unfinished

    @property
    def finished(self) -> bool:
        return not self.pending and self.outstanding == 0


class RestructuringScheduler(Scheduler):
    """Slice-large-queries wrapper around an inner scheduler."""

    TECHNIQUE_FEATURES = frozenset(
        {Feature.ACTS_BEFORE_EXECUTION, Feature.DECOMPOSES_QUERIES}
    )

    def __init__(
        self,
        inner: Scheduler,
        slice_threshold: float = 20.0,
        slice_work: float = 5.0,
        max_slices: int = 50,
    ) -> None:
        if slice_threshold <= 0 or slice_work <= 0:
            raise ValueError("slice_threshold and slice_work must be positive")
        self.inner = inner
        self.queue = inner.queue  # slices wait where the inner scheduler keeps its requests
        self.slice_threshold = slice_threshold
        self.slice_work = slice_work
        self.max_slices = max_slices
        self._groups: Dict[int, _SliceGroup] = {}      # slice id -> group
        self.restructured_count = 0
        #: response times of restructured originals (end-to-end)
        self.original_response_times: List[float] = []

    def attach(self, context: WorkloadManager) -> None:
        self.inner.attach(context)
        context.add_completion_listener(
            partial(self._on_done, context=context)
        )

    def enqueue(self, query: Query, context: WorkloadManager) -> None:
        work = query.estimated_cost.total_work
        if work <= self.slice_threshold or query.true_cost.lock_count > 0:
            self.inner.enqueue(query, context)
            return
        pieces = min(self.max_slices, max(2, math.ceil(work / self.slice_work)))
        slices = split_query(query, pieces)
        group = _SliceGroup(original=query, pending=slices)
        self.restructured_count += 1
        self._release_next(group, context)

    def _release_next(self, group: _SliceGroup, context: WorkloadManager) -> None:
        if not group.pending:
            return
        piece = group.pending.pop(0)
        self._groups[piece.query_id] = group
        group.outstanding += 1
        piece.workload_name = group.original.workload_name
        piece.priority = group.original.priority
        piece.transition(QueryState.SUBMITTED)
        piece.submit_time = (
            group.original.submit_time
            if group.original.submit_time is not None
            else context.now
        )
        piece.transition(QueryState.QUEUED)
        self.inner.enqueue(piece, context)

    def _on_done(self, query: Query, context: WorkloadManager) -> None:
        group = self._groups.pop(query.query_id, None)
        if group is None:
            return
        group.outstanding -= 1
        if query.state is not QueryState.COMPLETED:
            # a slice was killed/rejected: abandon the rest of the query
            group.pending.clear()
            return
        if group.pending:
            self._release_next(group, context)
            context.pump()
        elif group.finished:
            group.original.end_time = context.now
            if group.original.submit_time is not None:
                self.original_response_times.append(
                    context.now - group.original.submit_time
                )

    # ------------------------------------------------------------------
    # delegation
    # ------------------------------------------------------------------
    def next_batch(self, context: WorkloadManager) -> List[Query]:
        return self.inner.next_batch(context)

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        self.inner.notify_exit(query, context)
