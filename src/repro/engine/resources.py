"""Shared-resource model: weighted max-min fair processor sharing.

The simulated database machine exposes two rate resources (CPU and disk
I/O) and one space resource (memory).  Running queries share the rate
resources by *weighted max-min fairness with progressive filling*: every
query's speed grows in proportion to its weight until either a resource
saturates (freezing everything that uses it) or the query hits its own
speed cap (it cannot run faster than its unloaded speed, scaled by any
throttle applied to it).

This is the allocation discipline that makes the surveyed controls
meaningful: reprioritization changes a query's *weight*, throttling
changes its *speed cap*, admission/MPL changes *who participates*, and
memory oversubscription inflates I/O demand (see
:mod:`repro.engine.bufferpool`), producing the classic thrashing knee.

Speed normalization
-------------------
A query with cost vector ``(cpu=c, io=d)`` alone on the machine overlaps
CPU and I/O, finishing in ``max(c, d)`` seconds — speed ``1.0``.  Speed
``s`` consumes ``s·c`` CPU server-units and ``s·d`` disk server-units
per second and finishes in ``max(c, d)/s`` seconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, List, MutableMapping

import numpy as np

from repro.errors import CapacityError


class ResourceKind(enum.Enum):
    """The shared resources of the simulated database server."""

    CPU = "cpu"
    DISK = "disk"
    MEMORY = "memory"


@dataclass(frozen=True)
class MachineSpec:
    """Capacity of the simulated database server.

    ``cpu_capacity`` is in cores, ``disk_capacity`` in parallel device
    units (each unit serves one second of I/O demand per second), and
    ``memory_mb`` is working memory available to queries before the
    buffer pool starts spilling.
    """

    cpu_capacity: float = 8.0
    disk_capacity: float = 4.0
    memory_mb: float = 16_384.0

    def __post_init__(self) -> None:
        if min(self.cpu_capacity, self.disk_capacity, self.memory_mb) <= 0:
            raise CapacityError("machine capacities must be positive")


def fill_two_resource(
    active: List[List],
    speeds: MutableMapping[Hashable, float] | List[float],
    cpu_cap: float,
    disk_cap: float,
) -> None:
    """Scalar two-resource progressive filling: the engine's exact fill.

    ``active`` items are ``[key, weight, cpu_demand, disk_demand, cap]``
    with positive weight, positive cap, at least one positive demand and
    absent demands exactly ``0.0``; ``speeds`` must be pre-seeded with
    ``0.0`` per key (the engine keys by position into a list).  One
    constraint binds per round, growth sums accumulate in request order
    and ties within ``1e-15`` bind CPU before disk: the rounds of the
    dict-based reference allocator in ``tests/engine/fills.py``, to which
    the results are bit-identical.
    """
    cpu, disk = ResourceKind.CPU, ResourceKind.DISK
    headroom_cpu, headroom_disk = float(cpu_cap), float(disk_cap)
    remaining = active
    for _round in range(2 * len(active) + 2):
        if not remaining:
            break
        growth_cpu = growth_disk = 0.0
        for item in remaining:
            weight = item[1]
            growth_cpu += weight * item[2]
            growth_disk += weight * item[3]

        dt_best = float("inf")
        binding_resource = None
        binding_item = None
        if growth_cpu > 0:
            dt = headroom_cpu / growth_cpu
            if dt < dt_best - 1e-15:
                dt_best, binding_resource, binding_item = dt, cpu, None
        if growth_disk > 0:
            dt = headroom_disk / growth_disk
            if dt < dt_best - 1e-15:
                dt_best, binding_resource, binding_item = dt, disk, None
        for item in remaining:
            dt = (item[4] - speeds[item[0]]) / item[1]
            if dt < dt_best - 1e-15:
                dt_best, binding_resource, binding_item = dt, None, item

        if dt_best < 0.0:
            dt_best = 0.0
        for item in remaining:
            grow = dt_best * item[1]
            speeds[item[0]] += grow
            headroom_cpu -= grow * item[2]
            headroom_disk -= grow * item[3]

        if binding_resource is cpu:
            remaining = [it for it in remaining if it[2] == 0.0]
        elif binding_resource is disk:
            remaining = [it for it in remaining if it[3] == 0.0]
        elif binding_item is not None:
            key = binding_item[0]
            remaining = [it for it in remaining if it[0] != key]
        else:  # all caps reached simultaneously
            break


def fair_share_fill_vectorized(
    weights: np.ndarray,
    cpu_demand: np.ndarray,
    disk_demand: np.ndarray,
    caps: np.ndarray,
    cpu_cap: float,
    disk_cap: float,
) -> np.ndarray:
    """Vectorized two-resource progressive filling over numpy arrays.

    Inputs are parallel contiguous float64 arrays of the *active*
    requests only (positive weight, positive cap, at least one positive
    demand, absent demands exactly ``0.0``).  Returns a new speeds array
    in input order.

    The engine's fill for running sets at or above its vector cutover.
    Where the exact rounds retire one constraint per round, this one
    finishes early when every remaining request fits at its cap inside
    the headroom and retires every request within relative ``1e-12`` of
    its cap at once (with a forced-progress fallback), and it
    accumulates growth and usage sums with ``ndarray.dot``, which on
    contiguous 1-D float64 is the BLAS ``ddot`` kernel (OpenBLAS
    accumulates in SIMD lanes, not left to right and not numpy's
    pairwise sum) — so results agree with the reference allocator to
    within ``1e-9`` per speed rather than bit-for-bit.  ``np.dot`` and
    ``@`` call the same kernel; ``sum``, ``np.add.reduce`` and
    ``math.fsum`` do not, and would move every vector-path digest.

    Round one reads the inputs as given: every speed starts at ``0.0``,
    so each request's gap to its cap is its (positive) cap, and no
    column is gathered.  Headroom is charged only when a round follows.
    """
    n = int(weights.shape[0])
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    headroom_cpu, headroom_disk = float(cpu_cap), float(disk_cap)
    if _fits(caps, cpu_demand, disk_demand, headroom_cpu, headroom_disk):
        return caps.copy()
    dt_best, binding = _step(
        headroom_cpu,
        headroom_disk,
        float(weights.dot(cpu_demand)),
        float(weights.dot(disk_demand)),
        float((caps / weights).min()),
    )
    speeds = dt_best * weights
    if binding == "cpu":
        idx = (cpu_demand == 0.0).nonzero()[0]
    elif binding == "disk":
        idx = (disk_demand == 0.0).nonzero()[0]
    elif binding == "cap":
        idx = _below_cap(caps - speeds, caps, weights).nonzero()[0]
    else:  # all caps reached simultaneously
        return speeds
    if idx.size == 0:
        return speeds
    headroom_cpu -= float(speeds.dot(cpu_demand))
    headroom_disk -= float(speeds.dot(disk_demand))

    for _round in range(2 * n + 1):
        if idx.size == 0:
            break
        w = weights[idx]
        dc = cpu_demand[idx]
        dd = disk_demand[idx]
        cap = caps[idx]
        gap = cap - speeds[idx]
        if _fits(np.maximum(gap, 0.0), dc, dd, headroom_cpu, headroom_disk):
            np.maximum.at(speeds, idx, cap)
            break
        dt_best, binding = _step(
            headroom_cpu,
            headroom_disk,
            float(w.dot(dc)),
            float(w.dot(dd)),
            float((gap / w).min()),
        )
        grow = dt_best * w
        speeds[idx] += grow
        headroom_cpu -= float(grow.dot(dc))
        headroom_disk -= float(grow.dot(dd))

        if binding == "cpu":
            idx = idx[dc == 0.0]
        elif binding == "disk":
            idx = idx[dd == 0.0]
        elif binding == "cap":
            idx = idx[_below_cap(caps[idx] - speeds[idx], caps[idx], weights[idx])]
        else:  # all caps reached simultaneously
            break
    return speeds


def _fits(gap, cpu_demand, disk_demand, headroom_cpu, headroom_disk) -> bool:
    """Whether every request can close ``gap`` inside the headroom."""
    need_cpu = float(gap.dot(cpu_demand))
    need_disk = float(gap.dot(disk_demand))
    return (need_cpu == 0.0 or need_cpu <= headroom_cpu) and (
        need_disk == 0.0 or need_disk <= headroom_disk
    )


def _step(headroom_cpu, headroom_disk, growth_cpu, growth_disk, cap_min):
    """One round's growth step and what binds (``"cpu"``, ``"disk"``,
    ``"cap"`` or ``None``); ties within ``1e-15`` bind in that order."""
    dt_best = float("inf")
    binding = None
    if growth_cpu > 0:
        dt = headroom_cpu / growth_cpu
        if dt < dt_best - 1e-15:
            dt_best, binding = dt, "cpu"
    if growth_disk > 0:
        dt = headroom_disk / growth_disk
        if dt < dt_best - 1e-15:
            dt_best, binding = dt, "disk"
    if cap_min < dt_best - 1e-15:
        dt_best, binding = cap_min, "cap"
    if dt_best < 0.0:
        dt_best = 0.0
    return dt_best, binding


def _below_cap(rem_gap, caps, weights):
    """The requests a cap-bound round leaves in play, as a mask."""
    keep = rem_gap > 1e-12 * np.maximum(1.0, np.abs(caps))
    if keep.all():
        # float tolerance missed the binder: drop the request closest to
        # its cap so the loop always makes progress
        keep[(rem_gap / weights).argmin()] = False
    return keep
