"""The matcher: late binding of queued work to node capacity.

This is the pull counterpart of the placement policies (DIRAC's
MatcherHandler): instead of the dispatcher choosing a node when a
request *arrives*, a node asks for work at the moment it has a free
execution slot — when a running query exits, when the node is
(re)activated, and on every dispatcher tick (the pilot's poll cadence).
Work therefore binds to capacity as late as possible: a request waiting
in the :class:`~repro.cluster.taskqueue.TaskQueue` is never committed
to a node that is busy, degraded away from it, or about to crash.

Matching checks, per (node, entry) pair:

* **health** — only UP nodes pull (``NodeHealth.accepts_placements``);
* **slot headroom** — the node must have a free execution slot
  (``running < mpl``) *and* be under its ``max_outstanding`` ceiling;
* **capabilities** — the entry's requirement tags must be covered by
  the node's capability set (which includes its static tags plus the
  derived ``speed:full`` tag, so degraded nodes stop matching entries
  that demand full speed);
* **exclusions** — a node that locally refused a request never pulls
  that same request again (the dispatcher's per-query exclusion set).

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
from repro.cluster.taskqueue import TaskEntry, TaskQueue
from repro.engine.query import Query

#: Callback the dispatcher provides to commit one match (records the
#: placement and submits to the node's manager).
PlaceFn = Callable[[Query, ClusterNode], None]
#: Per-(query, node) exclusion test — True means "this node refused it".
ExclusionFn = Callable[[Query, ClusterNode], bool]


class Matcher:
    """Serves :class:`TaskQueue` entries to nodes with free slots."""

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        queue: TaskQueue,
        place: PlaceFn,
        excluded: Optional[ExclusionFn] = None,
    ) -> None:
        self.nodes = list(nodes)
        self.queue = queue
        self._place = place
        excluded = excluded or (lambda query, node: False)
        # per node: the ``blocked(query)`` filter TaskQueue.match takes
        self._blocked = {
            node: (lambda query, n=node: excluded(query, n))
            for node in self.nodes
        }
        self._hungry = RankedNodes(self.nodes, self.has_slot, self._rank)
        self.matches = 0
        self._serving = False  # re-entrancy guard: place() can re-route

    # ------------------------------------------------------------------
    # capacity predicates
    # ------------------------------------------------------------------
    @staticmethod
    def has_slot(node: ClusterNode) -> bool:
        """A free execution slot: the node could *start* work right now."""
        return (
            node.health.accepts_placements
            and node.running < node.mpl
            and node.outstanding_work < node.max_outstanding
        )

    @staticmethod
    def _rank(node: ClusterNode) -> tuple:
        return (-node.speed_factor, node.outstanding_work, node.name)

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
            while self.has_slot(node) and self._serve_one(node):
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
                for node in self._hungry:
                    if self._serve_one(node):
                        placed += 1
                        break
                else:
                    break  # no hungry node can take anything queued
        finally:
            self._serving = False
        return placed

    def _serve_one(self, node: ClusterNode) -> bool:
        """Bind one entry to ``node``, which the caller saw has a slot."""
        entry: Optional[TaskEntry] = self.queue.match(
            node.capabilities, blocked=self._blocked[node]
        )
        if entry is None:
            return False
        self.matches += 1
        self._place(entry.query, node)
        return True

    def hungry_nodes(self) -> List[ClusterNode]:
        """Nodes with a free slot, in serving order (introspection)."""
        return list(self._hungry)
