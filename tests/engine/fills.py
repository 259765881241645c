"""Run the fair-share fills on ``ShareRequest`` lists, as the executor does.

The engine never builds ``ShareRequest`` objects: its solve settles the
trivial queries itself (nothing demanded, paused, zero weight) and hands
the fills parallel columns of the active ones.  These adapters do the
same split, so one list of requests can be put to the reference
allocator and to both live fills; each returns ``{key: speed}``.
"""

import numpy as np

from repro.engine.resources import (
    ResourceKind,
    allocate_fair_shares_reference,
    fair_share_fill_vectorized,
    fill_two_resource,
)

CPU = ResourceKind.CPU
DISK = ResourceKind.DISK


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
