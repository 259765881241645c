"""A lock point nobody else lists is not an event (DESIGN.md §7).

A transaction whose items no other live transaction lists can never
conflict, so the engine lets it pass its lock points without events: its
row's milestone is its completion, and it holds each item implicitly once
its progress passes that item's point.  A registration that lists one of
its items turns it loud: the engine takes the items it has passed, in
point order, and arms the next point.

``EagerLocks`` below marks every transaction loud at registration, so
every lock point is a milestone event.  That is the engine's behaviour
before quiet transactions, and this is its only copy.  The property
drives the real engine and this oracle through the same populations and
requires the same exits at the same instants bit for bit, the same
conflict ratio whenever it is sampled, the same ``LockConflictStats`` once
the population drains, and never more events than the oracle fires.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import (
    CompletionOutcome,
    EngineConfig,
    ExecutionEngine,
)
from repro.engine.locks import LockManager
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from tests.conftest import submitted_query

_MACHINE = MachineSpec(cpu_capacity=2.0, disk_capacity=1.0, memory_mb=65536.0)
_ROOMY = MachineSpec(cpu_capacity=64.0, disk_capacity=64.0, memory_mb=65536.0)


class EagerLocks(LockManager):
    """Every transaction loud from its registration on."""

    def register(self, query_id, lock_count, now):
        points = super().register(query_id, lock_count, now)
        self.quiet.pop(query_id, None)
        return points


def eager(engine: ExecutionEngine) -> ExecutionEngine:
    """Give ``engine``, before its first start, the eager lock manager
    over the same ``locks`` stream."""
    locks = engine.lock_manager
    engine.lock_manager = EagerLocks(locks.num_items, locks._rng)
    return engine


def small_and_large(element):
    """Lists of 1–40: short ones and crowds."""
    return st.one_of(
        st.lists(element, min_size=1, max_size=16),
        st.lists(element, min_size=17, max_size=40),
    )


# ----------------------------------------------------------------------
# the engine against the eager oracle
# ----------------------------------------------------------------------
# (start step, cpu seconds, io seconds, weight, lock count, fate, fate delay)
job_strategy = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=0, max_value=8),
    st.sampled_from(["run", "run", "kill", "suspend", "pause", "throttle", "weight"]),
    st.floats(min_value=0.01, max_value=1.5),
)
#: 4 items make WAIT and DIE common, 1000 make nearly every transaction quiet
hot_set_strategy = st.sampled_from([4, 16, 1000])

_SAMPLE_EVERY = 0.0731  # off every grid a start, fate or restart lies on
_SAMPLES = 300
_RESTARTS = 3


def _run(jobs, hot_set: int, oracle: bool):
    """Start ``jobs`` on a 50 ms grid, apply each job's fate some time
    after its start, restart wait-die victims and suspended queries, sample
    the conflict ratio on a grid of its own, and run until nothing moves.

    Job ``i``'s costs are scaled by a factor of its own, so no two rows
    are due at exactly the same instant.
    """
    sim = Simulator(seed=5)
    engine = ExecutionEngine(sim, _MACHINE, EngineConfig(hot_set_size=hot_set))
    if oracle:
        eager(engine)
    exits, ratios = [], []
    index_of, weight_of, restarts = {}, {}, {}

    def start(query):
        if query.state is QueryState.ABORTED:
            query.transition(QueryState.SUBMITTED)
        engine.start(query, weight=weight_of[query.query_id])

    def on_exit(query, outcome):
        job_index = index_of[query.query_id]
        exits.append((job_index, outcome, sim.now))
        if outcome is CompletionOutcome.SUSPENDED or (
            outcome is CompletionOutcome.ABORTED and restarts[job_index] < _RESTARTS
        ):
            restarts[job_index] += 1
            sim.schedule(0.25, lambda: start(query))

    def fate(query, kind):
        query_id = query.query_id
        if not engine.is_running(query_id):
            return
        if kind == "kill":
            engine.kill(query_id)
        elif kind == "suspend":
            engine.remove_suspended(query_id)
        elif kind == "pause":
            engine.set_throttle(query_id, 0.0)
            sim.schedule(
                0.25,
                lambda: engine.is_running(query_id) and engine.set_throttle(query_id, 1.0),
            )
        elif kind == "throttle":
            engine.set_throttle(query_id, 0.3)
        elif kind == "weight":
            engine.set_weight(query_id, 4.0)

    engine.on_exit(on_exit)
    for job_index, (step, cpu, io, weight, locks, kind, delay) in enumerate(jobs):
        skew = 1.0 + (job_index + 1) * 1.37e-4
        query = submitted_query(sim, cpu=cpu * skew, io=io * skew, mem=1.0, locks=locks)
        index_of[query.query_id], weight_of[query.query_id] = job_index, weight
        restarts[job_index] = 0
        sim.schedule(step * 0.05, lambda q=query: start(q))
        if kind != "run":
            sim.schedule(step * 0.05 + delay, lambda q=query, k=kind: fate(q, k))
    for k in range(1, _SAMPLES + 1):
        sim.schedule_at(k * _SAMPLE_EVERY, lambda: ratios.append(engine.conflict_ratio()))
    sim.run_until(10_000.0)
    # Whoever is left waits for a lock: the FIFO hand-off can deadlock
    # wait-die (ROADMAP item 9), and then both engines are left alike.
    assert all(query.state is QueryState.BLOCKED for query in engine.running_queries())
    left = sorted(index_of[query.query_id] for query in engine.running_queries())
    return exits, ratios, engine.lock_manager.stats, left, sim.events_fired


@given(jobs=small_and_large(job_strategy), hot_set=hot_set_strategy)
@settings(max_examples=120, deadline=None)
def test_quiet_transactions_run_exactly_as_the_eager_oracle(jobs, hot_set):
    exits, ratios, stats, left, events = _run(jobs, hot_set, oracle=False)
    eager_exits, eager_ratios, eager_stats, eager_left, eager_events = _run(
        jobs, hot_set, oracle=True
    )
    assert exits == eager_exits  # order, outcome and instant, bit for bit
    assert ratios == eager_ratios
    assert stats == eager_stats
    assert left == eager_left
    assert events <= eager_events


# ----------------------------------------------------------------------
# one quiet transaction, and the registration that makes it loud
# ----------------------------------------------------------------------
def _engine(hot_set: int = 1000):
    sim = Simulator(seed=5)
    return sim, ExecutionEngine(sim, _ROOMY, EngineConfig(hot_set_size=hot_set))


def test_a_quiet_transaction_fires_only_its_completion():
    sim, engine = _engine()
    txn = submitted_query(sim, cpu=1.0, io=0.0, locks=8)
    engine.start(txn)
    sim.run_until(sim.now)  # the start's solve arms the completion
    assert engine._milestone_handle.time == 1.0
    sim.run_until(0.5)
    assert sim.events_fired == 0
    assert engine.lock_manager.locks_held() == 0  # held implicitly
    assert engine.lock_manager.stats.requests == 0  # counted when it leaves
    sim.run()
    assert sim.events_fired == 1 and txn.end_time == 1.0
    assert engine.lock_manager.stats.requests == 8


def test_a_rival_turns_a_quiet_row_loud_at_its_synced_progress():
    sim, engine = _engine(hot_set=4)
    txn = submitted_query(sim, cpu=1.0, io=0.0, locks=4)  # every item, at .2 .4 .6 .8
    engine.start(txn)
    sim.run_until(0.5)
    rival = submitted_query(sim, cpu=10.0, io=0.0, locks=1)  # its point is at t = 5.5
    engine.start(rival)
    sim.run_until(sim.now)  # the start's solve arms the third point
    locks = engine.lock_manager
    assert locks.quiet == {}
    # the two points passed are taken now, in order, and the third is armed
    assert locks.stats.requests == 2 and locks.locks_held() == 2
    assert locks._txns[txn.query_id].acquired == locks._txns[txn.query_id].items[:2]
    assert engine._milestone_row.query is txn
    assert engine._milestone_handle.time == pytest.approx(0.6, rel=1e-12)
    sim.run_until(0.9)  # both grants move one milestone: no row re-anchored
    assert locks.stats.requests == 4
    assert (engine.store.t0, engine.store.updates) == (0.0, 2)  # the two starts
    sim.run()
    assert txn.end_time == 1.0 and rival.state is QueryState.COMPLETED
    assert locks.stats.requests == 5 and locks.stats.conflicts == 0


def test_a_killed_quiet_row_counts_the_points_it_passed():
    sim, engine = _engine()
    txn = submitted_query(sim, cpu=1.0, io=0.0, locks=4)
    engine.start(txn)
    sim.run_until(0.7)
    engine.kill(txn.query_id)
    assert engine.lock_manager.stats.requests == 3
