"""Deterministic fault injection: crashes, slow nodes, recovery.

A :class:`FaultPlan` is a declarative schedule of node faults at
simulated times; :class:`FaultInjector` arms it on the shared clock.
Because the events are ordinary simulator events, a faulted run is as
bit-deterministic as a clean one — the digest-determinism gate covers
chaos scenarios unchanged.

Crash semantics (DIRAC-style): in-flight queries on the crashed node
are *lost* and resubmitted through the dispatcher's normal intake (the
same KILLED → SUBMITTED record/resubmit lifecycle kill-and-resubmit
policies use); queued work on the node never started, so it is
evacuated and re-placed without a restart penalty.

Each fault kind moves one node variable.  CRASH and RECOVER move its
health and nothing else; DEGRADE moves its speed, as a factor of the
node's base speed, in any health state, and ``DEGRADE factor=1.0`` ends
a degradation.  So a node that crashes and recovers inside a degrade
window comes back still degraded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from repro.cluster.dispatcher import ClusterDispatcher
from repro.errors import ConfigurationError


class FaultKind(enum.Enum):
    """What happens to the node at the fault time."""

    CRASH = "crash"          # node dies; in-flight work lost and resubmitted
    DEGRADE = "degrade"      # node runs at `factor` of its base speed
    RECOVER = "recover"      # back to UP


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    time: float
    node: str
    kind: FaultKind
    factor: float = 1.0      # DEGRADE only: speed multiplier in (0, 1]; 1.0 ends one

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"fault time must be >= 0, got {self.time}")
        if self.kind is FaultKind.DEGRADE and not 0.0 < self.factor <= 1.0:
            raise ConfigurationError(
                f"degrade factor must be in (0,1], got {self.factor}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one run."""

    events: Sequence[FaultEvent] = ()

    @staticmethod
    def node_kill(
        node: str, at: float, recover_at: Optional[float] = None
    ) -> "FaultPlan":
        """The EXP18 chaos shape: kill one node, optionally revive it."""
        events: List[FaultEvent] = [FaultEvent(at, node, FaultKind.CRASH)]
        if recover_at is not None:
            events.append(FaultEvent(recover_at, node, FaultKind.RECOVER))
        return FaultPlan(tuple(events))


class FaultInjector:
    """Arms a :class:`FaultPlan` against a dispatcher's cluster."""

    def __init__(self, dispatcher: ClusterDispatcher) -> None:
        self.dispatcher = dispatcher
        self.lost_and_resubmitted = 0

    def arm(self, plan: FaultPlan) -> None:
        """Schedule every fault in ``plan`` on the shared clock."""
        names = [node.name for node in self.dispatcher.nodes]
        for event in plan.events:
            if event.node not in names:  # bad input: one clear error, up front
                raise ConfigurationError(
                    f"fault plan names unknown node {event.node!r}; nodes are {names}"
                )
            self.dispatcher.sim.schedule_at(
                event.time,
                partial(self._fire, event),
                label=f"fault:{event.kind.value}:{event.node}",
            )

    def _fire(self, event: FaultEvent) -> None:
        dispatcher = self.dispatcher
        node = dispatcher.node(event.node)
        dispatcher.metrics.record(dispatcher.sim.now, self, event.kind.value, detail=event)
        if event.kind is FaultKind.CRASH:
            self.lost_and_resubmitted += dispatcher.crash_node(node)
        elif event.kind is FaultKind.DEGRADE:
            dispatcher.degrade_node(node, event.factor)
        elif event.kind is FaultKind.RECOVER:
            dispatcher.activate_node(node)
