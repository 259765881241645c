"""An incrementally ranked node index: both views of node state the
cluster reads, the push dispatcher's eligible set (ranked by its
placement policy) and the pull matcher's nodes with a free slot.

``RankedNodes(nodes, rank)`` reads as the nodes whose ``rank(node)`` is
not ``None``, sorted by it (ties in ``nodes`` order), but re-ranks only
the nodes touched since the previous read, one ``rank`` call each
(``bisect``: O(changed · log n) per read).  A node's ``on_change`` ping
touches it before anything can read the index again
(:class:`~repro.cluster.node.ClusterNode`): a ping marks, the read computes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class RankedNodes:
    """The nodes of ``nodes`` with a ``rank``, in ``rank`` order."""

    def __init__(self, nodes: Sequence, rank: Callable[..., Optional[tuple]]) -> None:
        self._rank = rank
        self._position = {node: i for i, node in enumerate(nodes)}
        # an entry is (rank, position in nodes): the position is the stable
        # sort's tie-break and keeps nodes out of the comparison
        self._order: List[Tuple[tuple, int]] = []
        self._members: List = []  # parallel to _order
        self._entry: Dict[object, Tuple[tuple, int]] = {}  # members
        self._dirty = set(nodes)  # the first read ranks everyone
        for node in nodes:
            node.on_change(self.touch)

    def touch(self, node) -> None:
        """``node``'s rank may have changed."""
        self._dirty.add(node)

    def read(self) -> List:
        """The members in rank order: the index's own list, read-only and
        valid until the next read (placing work while walking it dirties
        nodes, it moves none)."""
        dirty = self._dirty
        if dirty:
            rank, position = self._rank, self._position
            order, members, entry = self._order, self._members, self._entry
            for node in dirty:
                key = rank(node)
                new = None if key is None else (key, position[node])
                old = entry.get(node)
                if new == old:
                    continue
                if old is not None:
                    del entry[node]
                    i = bisect_left(order, old)
                    del order[i], members[i]
                if new is not None:
                    entry[node] = new
                    i = bisect_left(order, new)
                    order.insert(i, new)
                    members.insert(i, node)
            dirty.clear()
        return self._members
