"""Trace replay: drive a recorded query stream through another policy.

The cleanest way to compare two workload-management configurations is
on an *identical* request sequence — same costs, same arrival times,
same optimizer estimates.  A :class:`~repro.workloads.traces.QueryLog`
recorded under one configuration can be replayed into a fresh manager
with :func:`schedule_replay`, and :func:`ab_compare` packages the whole
A/B experiment: record under a baseline, replay under a candidate,
return both managers for metric comparison.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.manager import WorkloadManager
from repro.engine.query import Query
from repro.engine.simulator import Simulator
from repro.workloads.traces import QueryLog

ManagerFactory = Callable[[Simulator], WorkloadManager]


def schedule_replay(
    sim: Simulator, manager: WorkloadManager, log: QueryLog
) -> List[Query]:
    """Schedule every logged request for submission at its recorded time.

    Returns the fresh query objects in submission order so the caller
    can inspect individual outcomes afterwards.
    """
    queries = log.replay_queries()
    for query, submit_time in zip(queries, log.arrival_schedule()):
        sim.schedule_at(
            submit_time,
            lambda q=query: manager.submit(q),
            label="replay:submit",
        )
    return queries


def record_run(
    factory: ManagerFactory,
    scenario,
    seed: int = 0,
    drain: Optional[float] = None,
) -> WorkloadManager:
    """Run ``scenario`` under ``factory``'s manager, recording the log."""
    sim = Simulator(seed=seed)
    manager = factory(sim)
    generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    manager.run(
        scenario.horizon,
        drain=scenario.horizon if drain is None else drain,
    )
    return manager


def ab_compare(
    baseline_factory: ManagerFactory,
    candidate_factory: ManagerFactory,
    scenario,
    seed: int = 0,
    drain: Optional[float] = None,
) -> Tuple[WorkloadManager, WorkloadManager]:
    """Record under the baseline, replay the exact stream under the
    candidate; returns ``(baseline_manager, candidate_manager)``.

    The candidate sees the identical request sequence — including
    requests the baseline rejected or killed (they are replayed as
    fresh submissions, which is the point: a better policy may admit
    them) — from the same sessions: its registry resolves the
    baseline's session ids.
    """
    baseline = record_run(baseline_factory, scenario, seed=seed, drain=drain)
    replay_sim = Simulator(seed=seed + 1)  # candidate's own control RNG
    candidate = candidate_factory(replay_sim)
    candidate.sessions.update(baseline.sessions)
    schedule_replay(replay_sim, candidate, baseline.query_log)
    horizon = scenario.horizon
    candidate.run(horizon, drain=horizon if drain is None else drain)
    return baseline, candidate
