"""The matcher: late binding of queued work to node capacity.

This is the pull counterpart of the placement policies (DIRAC's
MatcherHandler): instead of the dispatcher choosing a node when a
request *arrives*, a node asks for work at the moment it has a free
execution slot — when a running query exits, when the node is
(re)activated, and on every dispatcher tick (the pilot's poll cadence).
Work therefore binds to capacity as late as possible: a request waiting
in the :class:`~repro.cluster.taskqueue.TaskQueue` is never committed
to a node that is busy, degraded away from it, or about to crash.

A node may pull when it is

* **healthy** — only UP nodes pull (``NodeHealth.accepts_placements``);
* **under its slot headroom** — it has a free execution slot
  (``running < mpl``) *and* is under its ``max_outstanding`` ceiling.

A node that may pull takes the task queue's next request; its own
admission controller then decides that request's fate, and a
rejection is final.

When several idle nodes compete for the head of the queue the fastest
one wins (``speed_factor`` descending, then fewest outstanding, then
name) — deterministic, so pull dispatch digests are seed-stable.  The
order is kept, not recomputed per binding: nodes with a slot sit in one
:class:`~repro.cluster.ranked.RankedNodes` index fed by
:meth:`ClusterNode.on_change <repro.cluster.node.ClusterNode.on_change>`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cluster.node import ClusterNode
from repro.cluster.ranked import RankedNodes
from repro.cluster.taskqueue import TaskQueue
from repro.engine.query import Query

#: Callback the dispatcher provides to commit one match (records the
#: placement and submits to the node's manager).
PlaceFn = Callable[[Query, ClusterNode], None]


class Matcher:
    """Serves :class:`TaskQueue` requests to nodes with free slots."""

    def __init__(
        self, nodes: Sequence[ClusterNode], queue: TaskQueue, place: PlaceFn
    ) -> None:
        self.nodes = list(nodes)
        self.queue = queue
        self._place = place
        self._hungry = RankedNodes(self.nodes, self._rank)
        self.matches = 0
        self._serving = False  # re-entrancy guard: place() can call back into pull()

    # ------------------------------------------------------------------
    # capacity predicates
    # ------------------------------------------------------------------
    @staticmethod
    def has_slot(node: ClusterNode) -> bool:
        """A free execution slot: the node could *start* work right now."""
        return Matcher._rank(node) is not None

    @staticmethod
    def _rank(node: ClusterNode) -> Optional[tuple]:
        """Serving order among nodes with a free slot, ``None`` for a node
        without one; reads ``outstanding_work`` once for both."""
        if not node.health.accepts_placements or node.running >= node.mpl:
            return None
        outstanding = node.outstanding_work
        if outstanding >= node.max_outstanding:
            return None
        return (-node.speed_factor, outstanding, node.name)

    # ------------------------------------------------------------------
    # pull cycles
    # ------------------------------------------------------------------
    def pull(self, node: ClusterNode) -> int:
        """One node pulls work until its slots or the queue run dry.

        Called the moment the node frees a slot (engine exit) or comes
        (back) up.  Returns the number of entries bound.
        """
        if self._serving:
            return 0
        self._serving = True
        placed = 0
        try:
            while len(self.queue) and self.has_slot(node):
                self._serve_one(node)
                placed += 1
        finally:
            self._serving = False
        return placed

    def offer(self) -> int:
        """Serve every node that currently has a free slot.

        Called on arrival (an idle pilot's match request is already
        pending, so new work binds immediately) and on the periodic
        tick (the poll cadence that catches anything missed).  The
        ranked index is re-read after every binding, so the fastest,
        least-loaded node always takes the next entry.
        """
        if self._serving:
            return 0
        self._serving = True
        placed = 0
        try:
            while len(self.queue):
                hungry = self._hungry.read()
                if not hungry:
                    break  # no node has a free slot
                self._serve_one(hungry[0])
                placed += 1
        finally:
            self._serving = False
        return placed

    def _serve_one(self, node: ClusterNode) -> None:
        """Bind the queue's next request to ``node``; the caller saw a
        slot on ``node`` and a nonempty queue."""
        self.matches += 1
        self._place(self.queue.match(), node)

    def hungry_nodes(self) -> List[ClusterNode]:
        """Nodes with a free slot, in serving order (introspection)."""
        return list(self._hungry.read())
