"""The reference fair-share allocator, the engine's shares on its
requests, and the clock-versus-exact-fill oracle.

``allocate_fair_shares_reference`` is the dict-based weighted max-min
allocator the engine's shares are held against; it lives here because
no engine calls it.  The engine never builds ``ShareRequest`` objects
either: it settles the trivial queries itself (nothing demanded, paused,
zero weight) and shares the machine among the active ones, by a closed
form when one holds and by the exact fill otherwise.  The adapters below
do the same split, so one list of requests can be put to the reference
allocator, to the exact fill and to the engine's virtual clock; each
returns ``{key: speed}``.  Below them is the oracle of the clock
(``test_virtual_clock.py``): the engine with every change resynced
through the exact fill.
"""

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Hashable, Iterable, List, Mapping

from repro.engine.resources import ResourceKind, fill_two_resource
from repro.engine.runstore import EXACT, IDLE, Row, RunStore

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK


@dataclass
class ShareRequest:
    """One query's claim in a fair-share allocation round.

    ``demands`` maps a rate resource to the server-seconds of service per
    unit of query progress (i.e. the cost-vector seconds, possibly
    inflated by buffer-pool spill).  ``speed_cap`` bounds the achievable
    speed (1.0 = unloaded speed; a throttle of 50% halves it; a paused
    query has cap 0).
    """

    key: Hashable
    weight: float
    demands: Mapping[ResourceKind, float]
    speed_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")
        if self.speed_cap < 0:
            raise ValueError(f"speed_cap must be >= 0, got {self.speed_cap}")

    @property
    def bottleneck_demand(self) -> float:
        """The largest per-progress demand (determines unloaded duration)."""
        return max(self.demands.values(), default=0.0)


@dataclass(frozen=True)
class Allocation:
    """Result of a fair-share round for one request."""

    speed: float
    usage: Mapping[ResourceKind, float]


def allocate_fair_shares_reference(
    requests: Iterable[ShareRequest],
    capacities: Mapping[ResourceKind, float],
) -> Dict[Hashable, Allocation]:
    """Reference weighted max-min fair allocation by progressive filling.

    The obviously-correct implementation: one constraint binds per
    round, so it runs O(active) rounds of O(active) work each.  No
    engine calls it; it is the oracle ``test_fair_share_equivalence.py``
    holds the two fills the engine does run against.

    Returns, for every request, the progress speed it receives and its
    per-resource usage (server-units).  Guarantees:

    * no resource is used beyond its capacity (within float tolerance);
    * no request exceeds its ``speed_cap``;
    * the allocation is weighted max-min fair: a request's speed can only
      be below ``cap`` if some resource it uses is saturated, and at that
      saturation speeds are proportional to weights.

    Resources whose binding times tie within ``1e-15`` bind in the
    iteration order of ``capacities``.
    """
    requests = list(requests)
    speeds: Dict[Hashable, float] = {}
    # Requests that demand nothing run at their cap (completed instantly
    # by the executor); zero-weight or zero-cap requests get speed 0.
    active: List[ShareRequest] = []
    for req in requests:
        positive = {k: v for k, v in req.demands.items() if v > 0}
        if not positive or req.weight == 0 or req.speed_cap == 0:
            speeds[req.key] = req.speed_cap if not positive and req.weight > 0 else 0.0
            continue
        active.append(ShareRequest(req.key, req.weight, positive, req.speed_cap))
        speeds[req.key] = 0.0

    headroom = {kind: float(cap) for kind, cap in capacities.items()}
    remaining = list(active)

    # Progressive filling: in each round grow all remaining speeds by
    # dt * weight, where dt is chosen so exactly one constraint binds.
    for _round in range(2 * len(active) + 2):
        if not remaining:
            break
        # Usage growth per unit dt on each resource.
        growth: Dict[ResourceKind, float] = dict.fromkeys(capacities, 0.0)
        for req in remaining:
            for kind, demand in req.demands.items():
                growth[kind] = growth.get(kind, 0.0) + req.weight * demand

        dt_best = float("inf")
        binding_resource = None
        binding_request = None
        for kind, rate in growth.items():
            if rate <= 0:
                continue
            dt = headroom.get(kind, 0.0) / rate
            if dt < dt_best - 1e-15:
                dt_best, binding_resource, binding_request = dt, kind, None
        for req in remaining:
            dt = (req.speed_cap - speeds[req.key]) / req.weight
            if dt < dt_best - 1e-15:
                dt_best, binding_resource, binding_request = dt, None, req

        dt_best = max(dt_best, 0.0)
        for req in remaining:
            grow = dt_best * req.weight
            speeds[req.key] += grow
            for kind, demand in req.demands.items():
                headroom[kind] = headroom.get(kind, 0.0) - grow * demand

        if binding_request is not None:
            remaining = [r for r in remaining if r.key != binding_request.key]
        elif binding_resource is not None:
            remaining = [r for r in remaining if binding_resource not in r.demands]
        else:  # all caps reached simultaneously
            break

    allocations: Dict[Hashable, Allocation] = {}
    for req in requests:
        speed = speeds.get(req.key, 0.0)
        usage = {kind: speed * demand for kind, demand in req.demands.items() if demand > 0}
        allocations[req.key] = Allocation(speed=speed, usage=usage)
    return allocations


def _split(requests):
    """Speeds of the trivial requests, and the active ones as fill rows."""
    speeds, rows = {}, []
    for req in requests:
        cpu = req.demands.get(CPU, 0.0)
        disk = req.demands.get(DISK, 0.0)
        if cpu <= 0 and disk <= 0:
            speeds[req.key] = req.speed_cap if req.weight > 0 else 0.0
            continue
        speeds[req.key] = 0.0
        if req.weight > 0 and req.speed_cap > 0:
            rows.append([req.key, req.weight, cpu, disk, req.speed_cap])
    return speeds, rows


def reference_speeds(requests, capacities):
    allocations = allocate_fair_shares_reference(requests, capacities)
    return {key: alloc.speed for key, alloc in allocations.items()}


def exact_speeds(requests, capacities):
    speeds, rows = _split(requests)
    fill_two_resource(rows, speeds, capacities[CPU], capacities[DISK])
    return speeds


def clock_speeds(requests, capacities):
    """The speeds a :class:`RunStore` settles the active requests to: a
    closed form (one round, fits) when one holds, the exact fill else."""
    speeds, rows = _split(requests)
    store = RunStore(capacities[CPU], capacities[DISK])
    settled = []
    for qid, (key, weight, cpu, disk, cap) in enumerate(rows):
        row = Row(SimpleNamespace(query_id=qid, progress=0.0), (), weight)
        row.cpu, row.disk, row.share, row.cap = cpu, disk, weight, cap
        store.add(row)
        settled.append((key, row))
    store.settle(0.0)
    speeds.update((key, store.speed(row)) for key, row in settled)
    return speeds


#: the fill the engine resyncs with, and the clock's shares
LIVE_FILLS = (exact_speeds, clock_speeds)
ALL_FILLS = (reference_speeds,) + LIVE_FILLS


def usage(requests, speeds, kind):
    """Server-units of ``kind`` in use at the given speeds."""
    return sum(speeds[req.key] * req.demands.get(kind, 0.0) for req in requests)




# ----------------------------------------------------------------------
# The clock-versus-exact-fill oracle (DESIGN.md §7)
# ----------------------------------------------------------------------
# The engine shares the machine in virtual time: a closed form (one round,
# fits) between changes, the exact fill only at a resync.  Below is the
# engine with the closed forms switched off: every instant that changes a
# row resyncs, materializing every row's progress and running the exact
# scalar fill — the exact fill integrated event by event, as the engine
# ran before the clock.  ``test_virtual_clock.py`` holds the live engine
# against it within ``PROGRESS_TOL`` at every milestone.

#: the oracle's bound on any row's progress at any milestone
PROGRESS_TOL = 1e-9


def exact_classify(store: RunStore):
    """``RunStore._classify`` with no closed form: every settle that
    follows a change resyncs through the exact fill."""
    return (EXACT if store.active else IDLE), 1.0


#: ``RunStore`` attributes to patch for the exact-fill engine
EXACT_STEP = {"_classify": exact_classify}
