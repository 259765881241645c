"""Plug-in interfaces between the WorkloadManager and its controllers.

The manager implements the three-stage process of §2 (identify →
control → execute); every technique package plugs into one of four
sockets defined here:

* :class:`Characterizer` — workload identification (§2.2, §3.1);
* :class:`AdmissionController` — the admission decision (§3.2);
* :class:`Scheduler` — dispatch from a :class:`PartitionedQueue`, the
  wait queue(s) every admitted request of either tier waits in (§3.3);
* :class:`ExecutionController` — run-time control actions (§3.4).

A control is handed its tier's own object as ``context``: at a node,
the :class:`~repro.core.manager.WorkloadManager` it is plugged into —
its engine, metrics, SLAs, sessions, clock (``now``) and decision record
(``record``), the same information a commercial facility's components
share; at the cluster's front door, the cluster's ``ClusterMetrics``
(``now`` and ``record`` only).  A query log is not among it: a caller
that wants a DBQL trace attaches one as a completion listener.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING, Union

from repro.engine.query import Query, workload_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.manager import WorkloadManager


class AdmissionOutcome(enum.Enum):
    """The possible fates of an arriving request (§2.3)."""

    ACCEPT = "accept"      # pass to the scheduler's wait queue(s)
    REJECT = "reject"      # deny with a returned message
    DELAY = "delay"        # hold back; retried at exits/ticks (see .wait)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome plus the reason used in logs/experiments.  A DELAY's
    ``wait`` is what it waits for: while one hold is delayed under it,
    every hold under it would be too.  ``None`` promises nothing."""

    outcome: AdmissionOutcome
    reason: str = ""
    wait: Any = None

    @staticmethod
    def accept(reason: str = "") -> "AdmissionDecision":
        return AdmissionDecision(AdmissionOutcome.ACCEPT, reason)

    @staticmethod
    def reject(reason: str = "") -> "AdmissionDecision":
        return AdmissionDecision(AdmissionOutcome.REJECT, reason)

    @staticmethod
    def delay(reason: str = "", wait: Any = None) -> "AdmissionDecision":
        return AdmissionDecision(AdmissionOutcome.DELAY, reason, wait)


@dataclass(frozen=True, slots=True)
class ControlEvent:
    """One control action: the record every controller's decisions share.

    ``controller`` is the emitting class's name, ``action`` a short verb
    the emitter documents (``reject``, ``kill``, ``set_mpl``, ...),
    ``query_id`` / ``workload`` the request acted on (if any) and
    ``detail`` whatever explains the action: a rejection's reason, the
    new throttle level, a share map.
    """

    time: float
    controller: str
    action: str
    query_id: Optional[int] = None
    workload: Optional[str] = None
    detail: Any = None

    @staticmethod
    def of(
        time: float, emitter: object, action: str, query: Optional[Query], detail: Any
    ) -> "ControlEvent":
        """The event of ``emitter`` (a controller object) acting on ``query``."""
        qid, workload = (None, None) if query is None else (query.query_id, workload_key(query))
        return ControlEvent(time, type(emitter).__name__, action, qid, workload, detail)


def decisions_by(
    decisions: List[ControlEvent], controller: Optional[str] = None, action: Optional[str] = None
) -> List[ControlEvent]:
    """The events of a decision list emitted by ``controller`` (a class
    name) and/or carrying ``action``, in recorded order."""
    return [
        e for e in decisions if controller in (None, e.controller) and action in (None, e.action)
    ]


class Characterizer(abc.ABC):
    """Maps an arriving request to a workload (identification stage)."""

    @abc.abstractmethod
    def identify(self, query: Query, context: WorkloadManager) -> Optional[str]:
        """Return the workload name for ``query`` (None = unclassified).

        Implementations may also set ``query.priority`` and
        ``query.service_class`` as commercial facilities do.
        """

    def attach(self, context: WorkloadManager) -> None:
        """Called once when plugged into a manager (optional override)."""


class AdmissionController(abc.ABC):
    """Decides whether an identified request may enter the system."""

    @abc.abstractmethod
    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        """Evaluate an arriving request."""

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        """Observe a request leaving the engine (for feedback schemes)."""

    def attach(self, context: WorkloadManager) -> None:
        """Called once when plugged into a manager (optional override)."""


class MplController(abc.ABC):
    """Supplies the current concurrency limit to a scheduler."""

    @abc.abstractmethod
    def current_limit(self, context: WorkloadManager) -> Optional[int]:
        """Max concurrently running requests (None = unlimited)."""

    def attach(self, context: WorkloadManager) -> None:
        """Optional hook for periodic measurement."""

    def notify_completion(self) -> None:
        """Optional hook: a request left the engine (feedback controllers)."""

    @staticmethod
    def of(mpl: "MplLike") -> "MplController":
        """``mpl`` itself when it is a controller, else a :class:`StaticMpl`."""
        return mpl if isinstance(mpl, MplController) else StaticMpl(mpl)


class StaticMpl(MplController):
    """A fixed MPL — the manual threshold the paper calls "static"."""

    def __init__(self, limit: Optional[int]) -> None:
        if limit is not None and limit < 1:
            raise ValueError("limit must be >= 1 or None")
        self.limit = limit

    def current_limit(self, context: WorkloadManager) -> Optional[int]:
        return self.limit


#: How every scheduler takes its MPL: unlimited, a static threshold, or a
#: controller determining it dynamically (§3.3's criticism of static
#: thresholds is exactly that they cannot adapt).
MplLike = Union[None, int, MplController]


#: A function of a request at enqueue: its bucket's name, or its rank (smallest first).
QueueKey = Callable[[Query], Any]


class PartitionedQueue:
    """Requests waiting in one wait queue or classified into several.

    ``key(query)`` names a request's bucket (``None``: one bucket, ``""``).
    Each bucket is a heap of ``(rank, arrival, query)``: by ``order(query)``
    (``None``: arrival order), arrival order within equal ranks.
    :attr:`buckets` keeps the order buckets were first seen in, drained
    ones included.  Which bucket's head leaves next is the owner's rule.
    """

    def __init__(self, key: Optional[QueueKey] = None, order: Optional[QueueKey] = None) -> None:
        self.key = key
        self.order = order
        self.buckets: Dict[str, List[tuple]] = {}
        self._arrivals = 0
        self._len = 0

    def push(self, query: Query) -> None:
        name = "" if self.key is None else self.key(query)
        heap = self.buckets.get(name)
        if not heap:
            heap = self._refill(name)
        self._arrivals += 1
        rank = 0 if self.order is None else self.order(query)
        heappush(heap, (rank, self._arrivals, query))
        self._len += 1

    def _refill(self, name: str) -> List[tuple]:
        """The heap of bucket ``name``, empty or new, about to take a request."""
        return self.buckets.setdefault(name, [])

    def pop(self, name: str = "") -> Query:
        """Take the head of bucket ``name`` (non-empty; ``""``: the one bucket)."""
        self._len -= 1
        return heappop(self.buckets[name])[2]

    def pop_all(self) -> List[Query]:
        """Empty every bucket; its requests in :meth:`queued_queries` order."""
        queries = self.queued_queries()
        for heap in self.buckets.values():
            heap.clear()
        self._len = 0
        return queries

    def __len__(self) -> int:
        return self._len

    def queued_queries(self) -> List[Query]:
        """The waiting requests, bucket by bucket, each in pop order."""
        return [entry[2] for heap in self.buckets.values() for entry in sorted(heap)]

    def remove(self, query_id: int) -> Optional[Query]:
        """Withdraw one waiting request; ``None`` if it is not here."""
        for heap in self.buckets.values():
            for index, entry in enumerate(heap):
                if entry[2].query_id == query_id:
                    del heap[index]
                    heapify(heap)
                    self._len -= 1
                    return entry[2]
        return None


class Scheduler(abc.ABC):
    """Decides what runs when (§3.3): its requests wait in :attr:`queue`."""

    queue: PartitionedQueue

    @abc.abstractmethod
    def enqueue(self, query: Query, context: WorkloadManager) -> None:
        """Accept a request into the wait queue(s)."""

    @abc.abstractmethod
    def next_batch(self, context: WorkloadManager) -> List[Query]:
        """Queries to dispatch *now*, in order; [] when none should run.

        A call returns *everything* dispatchable now: the manager asks
        again in the same pump only after a re-entrant pump was
        suppressed while the batch started.  Called after every
        admission, completion and control tick; the scheduler enforces
        its MPLs by returning an empty list.  So it
        must not scan the running set: a per-bucket cap is read against
        a tally the scheduler keeps of what it dispatched, as
        :class:`~repro.scheduling.queues.MultiQueueScheduler` does,
        recounting only when the tally cannot account for the engine's
        whole running set.
        """

    def queued_count(self) -> int:
        """Requests currently waiting."""
        return len(self.queue)

    def queued_queries(self) -> List[Query]:
        """Snapshot of the waiting requests (monitors, MPL models)."""
        return self.queue.queued_queries()

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        """Observe a request leaving the engine, whatever the outcome (dynamic MPLs)."""

    def attach(self, context: WorkloadManager) -> None:
        """Called once when plugged into a manager (optional override)."""


class ExecutionController(abc.ABC):
    """Applies run-time control actions to running requests (§3.4)."""

    @abc.abstractmethod
    def control(self, context: WorkloadManager) -> None:
        """Inspect running work and act; called every control interval."""

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        """Observe a request leaving the engine (optional override)."""

    def attach(self, context: WorkloadManager) -> None:
        """Called once when plugged into a manager (optional override)."""
