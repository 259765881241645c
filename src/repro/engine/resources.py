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
    """Scalar two-resource progressive filling: the engine's exact fill,
    run at a resync of its virtual clock when no closed form holds
    (:mod:`repro.engine.runstore`).

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
