"""Buffer pool / working-memory model.

Queries reserve working memory (sort heaps, hash tables) for their whole
run.  While total reservations fit in the pool, I/O demand is the cost
vector's nominal value.  Once the pool is oversubscribed, operators spill
to disk: effective I/O demand inflates with the oversubscription ratio.

This single mechanism produces the *thrashing knee* of Denning [16] and
Carey et al. [7] that motivates MPL-based admission control (paper
§3.2): throughput rises with concurrency until memory oversubscription
makes every query's I/O superlinear, after which throughput falls
"dramatically".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable

#: The spill check's slack per reservation, as a share of capacity: more
#: than twice the ``5·u`` (``u = 2**-53``) per reservation that the running
#: sum can drift from the exact one (:meth:`BufferPool.io_inflation`).
_SLACK = 2.0 ** -49


@dataclass
class BufferPool:
    """Working-memory pool with spill-based I/O inflation.

    Parameters
    ----------
    capacity_mb:
        Total working memory available to concurrently running queries.
    spill_penalty:
        How steeply I/O inflates with oversubscription.  With pressure
        ``p = committed/capacity`` and ``p > 1``, every running query's
        I/O demand is multiplied by ``1 + spill_penalty * (p - 1)``.

    The exact total is the insertion-order sum of the reservations; a
    running sum beside it lets :meth:`io_inflation` answer "the pool
    fits" without summing.  It is re-anchored to the exact sum (O(n),
    O(1) amortized) once the updates since the last one outnumber the
    reservations (the engine's rule (c), :mod:`repro.engine.runstore`),
    and before it builds on a sum that is not below capacity.
    """

    capacity_mb: float
    spill_penalty: float = 3.0
    _committed: Dict[Hashable, float] = field(default_factory=dict, init=False)
    # the running sum, exact (insertion order) while ``_updates`` is 0
    _sum: float = field(default=0.0, init=False, repr=False, compare=False)
    _updates: int = field(default=0, init=False, repr=False, compare=False)

    def reserve(self, key: Hashable, memory_mb: float) -> None:
        """Reserve working memory for a query entering the engine."""
        memory = max(0.0, memory_mb)
        old = self._committed.get(key)
        self._committed[key] = memory
        self._moved(self._sum + memory if old is None else self._sum - old + memory)

    def release(self, key: Hashable) -> None:
        """Release a query's reservation (idempotent)."""
        memory = self._committed.pop(key, None)
        if memory is not None:
            self._moved(self._sum - memory)

    def _moved(self, total: float) -> None:
        """One reservation changed; ``total`` is the running sum after it.

        Re-anchors once this update would outnumber the reservations, and
        when the running sum it would build on is not below capacity.
        """
        if self._sum >= self.capacity_mb or self._updates >= len(self._committed):
            self._anchor()
        else:
            self._sum = total
            self._updates += 1

    def _anchor(self) -> None:
        self._sum = sum(self._committed.values())
        self._updates = 0

    @property
    def committed_mb(self) -> float:
        """Total memory currently reserved: the insertion-order sum,
        bit-identical to summing on every read."""
        if self._updates:
            self._anchor()
        return self._sum

    @property
    def pressure(self) -> float:
        """Committed-to-capacity ratio; > 1 means oversubscribed."""
        if self.capacity_mb <= 0:
            return float("inf") if self._committed else 0.0
        return self.committed_mb / self.capacity_mb

    def io_inflation(self) -> float:
        """Multiplier applied to every running query's I/O demand.

        The formula over the exact sum, which is 1.0 while that sum is at
        most capacity.  That holds, without summing, while the running
        sum sits below capacity by the slack: since the last exact sum
        (of ``<= 2n`` reservations, below capacity) at most ``n`` updates
        of two roundings each were made below capacity, and the exact
        sum of the ``n`` held now rounds ``n`` times: ``<= 5n`` roundings.
        """
        if self._updates:
            capacity = self.capacity_mb
            slack = capacity * _SLACK * (len(self._committed) + 1)
            if self._sum < capacity - slack:
                return 1.0
        overflow = max(0.0, self.pressure - 1.0)
        return 1.0 + self.spill_penalty * overflow

    def reset(self) -> None:
        """Drop all reservations (between experiment repetitions)."""
        self._committed.clear()
        self._sum = 0.0
        self._updates = 0
