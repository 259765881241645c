"""Outcome digests: the determinism contract made checkable.

Every sweep task returns (among other fields) a SHA-256 ``digest`` over
its full-precision outcome streams.  Two runs are behaviourally
identical iff their digests match, so ``combine`` of the per-task
digests in task-key order is a digest of the whole sweep — and parallel
execution is *verified* (not assumed) to be bit-identical to serial
execution by comparing these.

The helpers here are also what the perf harness commits into
``BENCH_core.json``: :func:`outcome_digest` hashes a single
:class:`~repro.core.manager.WorkloadManager`'s streams,
:func:`dispatcher_digest` a whole cluster run.
"""

from __future__ import annotations

import struct
from hashlib import sha256
from typing import Iterable


def outcome_digest(manager) -> str:
    """SHA-256 over a manager's full-precision outcome streams.

    Covers, in deterministic order: final simulated time, counters, and
    every per-workload outcome list (response times, queue delays,
    velocities, completion times) at full float precision.  Two runs are
    behaviourally identical iff their digests match.
    """
    h = sha256()
    h.update(struct.pack("<d", manager.sim.now))
    h.update(
        struct.pack("<qq", manager.submitted_count, manager.rejected_count)
    )
    for name in sorted(manager.metrics.workloads()):
        stats = manager.metrics.stats_for(name)
        h.update(name.encode("utf-8"))
        h.update(
            struct.pack(
                "<qqqqq",
                stats.completions,
                stats.rejections,
                stats.kills,
                stats.aborts,
                stats.suspensions,
            )
        )
        for series in (
            stats.response_times,
            stats.queue_delays,
            stats.velocities,
            stats.completion_times,
        ):
            h.update(struct.pack("<q", len(series)))
            if series:
                h.update(struct.pack(f"<{len(series)}d", *series))
    return h.hexdigest()


def dispatcher_digest(dispatcher) -> str:
    """SHA-256 over a whole cluster run: every node's outcome streams
    plus the dispatcher's conservation counters and each node's
    placement count."""
    h = sha256()
    for node in dispatcher.nodes:
        h.update(outcome_digest(node.manager).encode("ascii"))
    h.update(
        struct.pack(
            "<qqqqq",
            dispatcher.arrivals,
            dispatcher.completions,
            dispatcher.rejections,
            dispatcher.resubmissions,
            0,  # retired slot: node rejections were once re-placed; kept so digests hold
        )
    )
    for node in dispatcher.nodes:
        h.update(struct.pack("<q", node.placed_count))
    return h.hexdigest()


def combine(digests: Iterable[str]) -> str:
    """Digest-of-digests, order-sensitive.

    This is the sweep-level reduction: feeding per-task digests in
    task-key order makes the combined digest independent of worker
    count and completion order iff every task is bit-deterministic.
    """
    return sha256("".join(digests).encode("ascii")).hexdigest()
