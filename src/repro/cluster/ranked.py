"""An incrementally ranked node index: the ready-set both bindings read.

``RankedNodes(nodes, member, key)`` always reads as
``sorted(filter(member, nodes), key=key)`` but re-keys only the nodes
touched since the previous read (``bisect``): O(changed · log n) per
binding, not O(n log n).  It is exact because whoever mutates what
``member``/``key`` read touches the node before anything reads the
index (it subscribes to each node's ``on_change``, see
:class:`~repro.cluster.node.ClusterNode`), and a refresh happens only
at the *start* of a read, so a placement made while walking the order
can only dirty nodes, never move them under the walk.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, Iterator, List, Sequence, Tuple


class RankedNodes:
    """The ``member`` nodes of ``nodes`` in ``key`` order, kept sorted."""

    def __init__(self, nodes: Sequence, member: Callable, key: Callable) -> None:
        self._member = member
        self._key = key
        # an entry is (key, position in nodes, node): the position is the
        # stable sort's tie-break and keeps nodes out of the comparison
        self._position = {node: i for i, node in enumerate(nodes)}
        self._order: List[Tuple[tuple, int, object]] = []
        self._entry: Dict[object, Tuple[tuple, int, object]] = {}  # members
        self._dirty = set(nodes)  # the first read ranks everyone
        for node in nodes:
            node.on_change(self.touch)

    def touch(self, node) -> None:
        """``node``'s membership or key may have changed."""
        self._dirty.add(node)

    def _refresh(self) -> None:
        order, entry = self._order, self._entry
        for node in self._dirty:
            old = entry.pop(node, None)
            new = None
            if self._member(node):
                new = entry[node] = (self._key(node), self._position[node], node)
            if new != old:
                if old is not None:
                    del order[bisect_left(order, old)]
                if new is not None:
                    insort(order, new)
        self._dirty.clear()

    def __iter__(self) -> Iterator:
        self._refresh()
        return (node for _, _, node in self._order)

    def __len__(self) -> int:
        self._refresh()
        return len(self._order)
