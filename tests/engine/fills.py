"""The reference fair-share allocator, and the fills run on its requests.

``allocate_fair_shares_reference`` is the dict-based weighted max-min
allocator the engine's two fills are held against; it lives here because
no engine calls it.  The engine never builds ``ShareRequest`` objects
either: its solve settles the trivial queries itself (nothing demanded,
paused, zero weight) and hands the fills parallel columns of the active
ones.  The adapters below do the same split, so one list of requests can
be put to the reference allocator and to both live fills; each returns
``{key: speed}``.  Below them are two oracles of the engine's step: the
vector step with every mask built (``test_vector_step.py``), and the
scalar step reading numpy columns through ``idx`` (``test_scalar_step.py``).
"""

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping

import numpy as np

from repro.engine import executor
from repro.engine.executor import ExecutionEngine
from repro.engine.resources import (
    ResourceKind,
    fair_share_fill_vectorized,
    fill_two_resource,
)

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


def vectorized_speeds(requests, capacities):
    speeds, rows = _split(requests)
    columns = [
        np.array([row[i] for row in rows], dtype=np.float64) for i in (1, 2, 3, 4)
    ]
    filled = fair_share_fill_vectorized(
        *columns, capacities[CPU], capacities[DISK]
    )
    speeds.update(zip((row[0] for row in rows), filled.tolist()))
    return speeds


#: the two fills an engine runs, below and at-or-above its vector cutover
LIVE_FILLS = (exact_speeds, vectorized_speeds)
ALL_FILLS = (reference_speeds,) + LIVE_FILLS


def usage(requests, speeds, kind):
    """Server-units of ``kind`` in use at the given speeds."""
    return sum(speeds[req.key] * req.demands.get(kind, 0.0) for req in requests)


# ----------------------------------------------------------------------
# The vector step with every mask built (DESIGN.md §7)
# ----------------------------------------------------------------------
# The engine's vector side builds a mask only when a reduction says some
# row needs one, and hands the solve's columns to the pick by return
# value.  Below is the same step with every mask built and every column
# gathered through it, as it ran before that rule: its only copy, the
# oracle ``test_vector_step.py`` holds the live step against bit for bit.
# ``masked_solve_vectorized`` and ``masked_pick_vectorized`` keep their
# old signatures; ``MASKED_STEP`` adapts them to the live ``_solve``.


def masked_fill_vectorized(weights, cpu_demand, disk_demand, caps, cpu_cap, disk_cap):
    """``fair_share_fill_vectorized`` gathering every round's columns
    through an index that starts as ``arange(n)``."""
    n = int(weights.shape[0])
    speeds = np.zeros(n, dtype=np.float64)
    if n == 0:
        return speeds
    idx = np.arange(n)
    headroom_cpu, headroom_disk = float(cpu_cap), float(disk_cap)
    for _round in range(2 * n + 2):
        if idx.size == 0:
            break
        w = weights[idx]
        dc = cpu_demand[idx]
        dd = disk_demand[idx]
        cap = caps[idx]
        gap = cap - speeds[idx]
        gap_pos = np.maximum(gap, 0.0)
        need_cpu = float(np.dot(gap_pos, dc))
        need_disk = float(np.dot(gap_pos, dd))
        if (need_cpu == 0.0 or need_cpu <= headroom_cpu) and (
            need_disk == 0.0 or need_disk <= headroom_disk
        ):
            np.maximum.at(speeds, idx, cap)
            break

        growth_cpu = float(np.dot(w, dc))
        growth_disk = float(np.dot(w, dd))
        dt_best = float("inf")
        binding = None  # "cpu" | "disk" | "cap"
        if growth_cpu > 0:
            dt = headroom_cpu / growth_cpu
            if dt < dt_best - 1e-15:
                dt_best, binding = dt, "cpu"
        if growth_disk > 0:
            dt = headroom_disk / growth_disk
            if dt < dt_best - 1e-15:
                dt_best, binding = dt, "disk"
        cap_dts = gap / w
        cap_min = float(cap_dts.min())
        if cap_min < dt_best - 1e-15:
            dt_best, binding = cap_min, "cap"

        if dt_best < 0.0:
            dt_best = 0.0
        grow = dt_best * w
        speeds[idx] += grow
        headroom_cpu -= float(np.dot(grow, dc))
        headroom_disk -= float(np.dot(grow, dd))

        if binding == "cpu":
            idx = idx[dc == 0.0]
        elif binding == "disk":
            idx = idx[dd == 0.0]
        elif binding == "cap":
            rem_gap = caps[idx] - speeds[idx]
            keep = rem_gap > 1e-12 * np.maximum(1.0, np.abs(caps[idx]))
            if bool(keep.all()):
                keep[int(np.argmin(rem_gap / weights[idx]))] = False
            idx = idx[keep]
        else:  # all caps reached simultaneously
            break
    return speeds


#: the live step, as the oracles below patch over it
_LIVE_SYNC_ALL = ExecutionEngine._sync_all
_LIVE_SOLVE_VECTORIZED = ExecutionEngine._solve_vectorized
_LIVE_PICK_VECTORIZED = ExecutionEngine._pick_vectorized


def masked_sync_all(engine) -> None:
    """``ExecutionEngine._sync_all`` with the ``moving`` mask always built
    on the vector side; a list-mode store takes the live loop."""
    if not engine.store.vector:
        return _LIVE_SYNC_ALL(engine)
    now = engine.sim.now
    previous = engine._last_sync_time
    if now == previous:
        return
    engine._last_sync_time = now
    store = engine.store
    idx = store.live_indices()
    dt = now - previous
    speed = store.speed[idx]
    moving = speed > 0.0
    if not moving.any():
        return
    midx = idx[moving]
    old_progress = store.progress[midx]
    new_progress = old_progress + speed[moving] * dt
    if bool(((new_progress >= 1.0) & (old_progress < 1.0)).any()):
        engine._alloc_version += 1
    store.progress[midx] = np.minimum(new_progress, 1.0)


def masked_solve_vectorized(engine, idx):
    """``_solve_vectorized`` with the trivial, active and positive masks
    always built; returns the two usages only."""
    store = engine.store
    bottleneck = store.bottleneck[idx]
    progress = store.progress[idx]
    trivial = bottleneck <= 1e-9
    if bool(trivial.any()):
        store.progress[idx[trivial]] = 1.0
    caps = store.speed_cap[idx]
    active_mask = ~trivial & (progress < 1.0) & (caps > 0.0)
    store.speed[idx] = 0.0
    if not bool(active_mask.any()):
        return 0.0, 0.0
    act = idx[active_mask]
    cpu_demand = store.cpu_base[act]
    disk_demand = store.disk_demand[act]
    speeds = masked_fill_vectorized(
        store.solve_weight[act],
        cpu_demand,
        disk_demand,
        caps[active_mask],
        engine._cpu_cap,
        engine._disk_cap,
    )
    store.speed[act] = speeds
    positive = speeds > 0.0
    usage_cpu = float(np.dot(speeds[positive], cpu_demand[positive]))
    usage_disk = float(np.dot(speeds[positive], disk_demand[positive]))
    return usage_cpu, usage_disk


def masked_pick_vectorized(engine, idx):
    """``_pick_vectorized`` re-gathering progress and speed from the store."""
    store = engine.store
    now = engine.sim.now
    progress = store.progress[idx]
    done = (progress >= 1.0 - 1e-12) & ~store.locks_pending[idx]
    if bool(done.any()):
        return now, int(store.qid[idx[int(np.argmax(done))]])
    speed = store.speed[idx]
    moving = speed > 0.0
    if not bool(moving.any()):
        return None
    eta = np.full(idx.size, np.inf)
    gap = store.milestone[idx] - progress
    np.maximum(gap, 0.0, out=gap)
    eta[moving] = now + gap[moving] / speed[moving]
    engine._etas = eta
    pos = int(np.argmin(eta))
    return float(eta[pos]), int(store.qid[idx[pos]])


#: ``ExecutionEngine`` attributes to patch for the masked step
MASKED_STEP = {
    "_sync_all": masked_sync_all,
    "_solve_vectorized": lambda engine, idx: (
        *masked_solve_vectorized(engine, idx), None, None
    ),
    "_pick_vectorized": lambda engine, idx, progress, speeds: (
        masked_pick_vectorized(engine, idx)
    ),
}


# ----------------------------------------------------------------------
# The scalar step reading numpy columns through ``idx`` (DESIGN.md §7)
# ----------------------------------------------------------------------
# Below the cutover the engine's store holds Python lists and the scalar
# advance, solve and pick read and write them in place.  Below is the
# same step as it ran when every column was a numpy array: the scalar
# loops gather their columns through ``idx`` (``col[idx].tolist()``) and
# scatter the speeds back.  ``GATHER_STEP`` runs it on an engine built
# with the cutover patched to 1, so its store is numpy at every size:
# below the real cutover the patched methods take the gather loops, at or
# above it the live vector step.  ``test_scalar_step.py`` holds the live
# list-mode engine against it bit for bit.

#: the real cutover, read before any test patches it
CUTOVER = executor._VECTOR_MIN_RUNNING


def gather_sync_all(engine) -> None:
    """The scalar advance over numpy columns gathered through ``idx``."""
    store = engine.store
    if not store.vector or store.count >= CUTOVER:
        return _LIVE_SYNC_ALL(engine)
    now = engine.sim.now
    previous = engine._last_sync_time
    if now == previous:
        return
    engine._last_sync_time = now
    idx = store.live_indices()
    dt = now - previous
    slots = idx.tolist()
    speeds = store.speed[idx].tolist()
    progresses = store.progress[idx].tolist()
    progress_col = store.progress
    for i in range(idx.size):
        speed = speeds[i]
        if speed > 0.0:
            progress = progresses[i] + speed * dt
            if progress >= 1.0:
                if progresses[i] < 1.0:
                    engine._alloc_version += 1
                progress = 1.0
            progress_col[slots[i]] = progress


def gather_solve_scalar(engine, idx):
    """The exact scalar fill fed from numpy columns gathered through
    ``idx``, its speeds scattered back; returns the two usages and the
    progress and speed lists aligned with ``idx``."""
    store = engine.store
    n = int(idx.size)
    speeds = [0.0] * n
    if n == 0:
        return 0.0, 0.0, speeds, speeds
    bottlenecks = store.bottleneck[idx].tolist()
    progresses = store.progress[idx].tolist()
    weights = store.solve_weight[idx].tolist()
    cpu_demands = store.cpu_base[idx].tolist()
    disk_demands = store.disk_demand[idx].tolist()
    caps = store.speed_cap[idx].tolist()
    active = []
    for i in range(n):
        if bottlenecks[i] <= 1e-9:
            store.progress[idx[i]] = progresses[i] = 1.0
            continue
        if progresses[i] >= 1.0:
            continue
        cap = caps[i]
        if cap == 0.0:
            continue
        active.append([i, weights[i], cpu_demands[i], disk_demands[i], cap])
    usage_cpu = usage_disk = 0.0
    if active:
        fill_two_resource(active, speeds, engine._cpu_cap, engine._disk_cap)
        for item in active:
            speed = speeds[item[0]]
            if speed <= 0:
                continue
            usage_cpu += speed * item[2]
            usage_disk += speed * item[3]
    store.speed[idx] = speeds
    return usage_cpu, usage_disk, progresses, speeds


def gather_pick_scalar(engine, idx, progresses, speeds):
    """The scalar pick over the lists :func:`gather_solve_scalar` returned
    and the milestone and lock columns gathered through ``idx``."""
    if not progresses:
        return None
    store = engine.store
    now = engine.sim.now
    milestones = store.milestone[idx].tolist()
    locks_pending = store.locks_pending[idx].tolist()
    etas = [np.inf] * len(progresses) if True in locks_pending else None
    best_time, best = None, -1
    for i in range(len(progresses)):
        progress = progresses[i]
        if progress >= 1.0 - 1e-12 and not locks_pending[i]:
            return now, int(store.qid[idx[i]])
        speed = speeds[i]
        if speed <= 0:
            continue
        gap = milestones[i] - progress
        eta = now + (gap if gap > 0.0 else 0.0) / speed
        if etas is not None:
            etas[i] = eta
        if best < 0 or eta < best_time:
            best_time, best = eta, i
    if best < 0:
        return None
    engine._etas = etas
    return best_time, int(store.qid[idx[best]])


def _gather_solve(engine, idx):
    if idx.size >= CUTOVER:
        return _LIVE_SOLVE_VECTORIZED(engine, idx)
    return gather_solve_scalar(engine, idx)


def _gather_pick(engine, idx, progresses, speeds):
    if idx.size >= CUTOVER:
        return _LIVE_PICK_VECTORIZED(engine, idx, progresses, speeds)
    return gather_pick_scalar(engine, idx, progresses, speeds)


#: ``ExecutionEngine`` attributes to patch for the gather-based step
GATHER_STEP = {
    "_sync_all": gather_sync_all,
    "_solve_vectorized": _gather_solve,
    "_pick_vectorized": _gather_pick,
}
