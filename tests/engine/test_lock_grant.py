"""A lock grant moves one row (DESIGN.md §7).

Between two changes to the running set every row moves at a fixed rate
in virtual time, so a lock point is a fixed virtual instant.  When the
armed milestone fires for a row at a lock point and the lock is granted,
only that row's milestone and its one heap entry move, and the next
milestone is the heap's minimum: no row is re-anchored, nothing is
resynced.  These tests hold that step:

(a) a run through grants equals the same run on the exact-fill engine
    (``EXACT_STEP`` in ``fills.py``) in exit order (rows due within
    rounding of one instant in either order), outcomes and lock
    statistics exactly and in exit times to 1e-9;
(b) progress and speed read between two grants are the analytic values;
(c) ``WAIT`` stops the row at its lock point, ``DIE`` aborts, control
    operations between grants re-arm at the analytic instant;
(d) a transaction's grants beside lock-free queries cost no resync.

Every transaction here is loud from its registration (``EagerLocks``,
the oracle of ``test_quiet_locks.py``), so each lock point is a
milestone event whether or not another transaction lists its item.
"""

from __future__ import annotations

import math
from typing import List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import CompletionOutcome, EngineConfig, ExecutionEngine
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.runstore import RunStore
from repro.engine.simulator import Simulator
from tests.conftest import next_instant, submitted_query
from tests.engine.fills import EXACT_STEP
from tests.engine.test_quiet_locks import eager, small_and_large
from tests.engine.test_virtual_clock import in_instant_order

_MACHINE = MachineSpec(cpu_capacity=2.0, disk_capacity=1.0, memory_mb=65536.0)
#: nobody waits for anybody: every speed is its cap
_ROOMY = MachineSpec(cpu_capacity=64.0, disk_capacity=64.0, memory_mb=65536.0)

#: a 4-item hot set makes WAIT and DIE common, 1000 items make them rare
hot_set_strategy = st.sampled_from([4, 1000])


def _engine(hot_set: int = 1000, machine: MachineSpec = _MACHINE):
    sim = Simulator(seed=5)
    return sim, eager(ExecutionEngine(sim, machine, EngineConfig(hot_set_size=hot_set)))


def _resyncs():
    """Count ``RunStore.resync`` calls inside the returned context."""
    counts = []
    resync = RunStore.resync

    def counted(store):
        counts.append(len(store))
        resync(store)

    return counts, mock.patch.object(RunStore, "resync", counted)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# ----------------------------------------------------------------------
# (a) whole runs through grants
# ----------------------------------------------------------------------
def _run_to_the_end(jobs, hot_set: int):
    """Start ``jobs`` on a 50 ms grid (a few wait-die ages) and run until
    nothing moves.  Returns the exits in order, the lock statistics, the
    engine's counters and the jobs still in the engine.

    Job ``i``'s costs are scaled by a factor of its own, so no two rows
    are due at exactly the same instant: which of two tied rows goes
    first is the one thing the last bits of an ETA may decide.
    """
    sim, engine = _engine(hot_set)
    exits: List[Tuple[int, CompletionOutcome, float]] = []
    index_of = {}
    engine.on_exit(
        lambda query, outcome: exits.append((index_of[query.query_id], outcome, sim.now))
    )

    def start(job_index, cpu, io, weight, locks):
        skew = 1.0 + (job_index + 1) * 1.37e-4
        query = submitted_query(sim, cpu=cpu * skew, io=io * skew, mem=1.0, locks=locks)
        index_of[query.query_id] = job_index
        engine.start(query, weight=weight)

    for job_index, (step, cpu, io, weight, locks) in enumerate(jobs):
        sim.schedule(
            step * 0.05, lambda args=(job_index, cpu, io, weight, locks): start(*args)
        )
    sim.run_until(10_000.0)
    # Whoever is left waits for a lock: a lock handed to the first waiter
    # can leave a younger waiter queued behind an older holder, and
    # wait-die no longer rules the cycle out (CHANGES.md, PR 24).
    left = {index_of[query.query_id] for query in engine.running_queries()}
    assert all(query.state is QueryState.BLOCKED for query in engine.running_queries())
    assert len(exits) + len(left) == len(jobs)
    counters = (engine.completed_count, engine.aborted_count, engine.killed_count)
    return exits, engine.lock_manager.stats, counters, left


job_strategy = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=0, max_value=8),
)


@given(jobs=small_and_large(job_strategy), hot_set=hot_set_strategy)
@settings(max_examples=80, deadline=None)
def test_a_run_through_grants_equals_the_exact_fill_run(jobs, hot_set):
    clock, *clock_rest = _run_to_the_end(jobs, hot_set)
    with mock.patch.multiple(RunStore, **EXACT_STEP):
        exact, *exact_rest = _run_to_the_end(jobs, hot_set)
    clock = in_instant_order([(t, i, o) for i, o, t in clock])
    exact = in_instant_order([(t, i, o) for i, o, t in exact])
    assert [(i, outcome) for _, i, outcome in clock] == [(i, outcome) for _, i, outcome in exact]
    assert clock_rest == exact_rest  # LockConflictStats, outcome counts, who is left
    for (clock_end, _, _), (exact_end, _, _) in zip(clock, exact):
        assert _close(clock_end, exact_end)


# ----------------------------------------------------------------------
# (b) nothing between two grants is observable
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bystanders", [1, 24])
def test_progress_and_speed_between_two_grants_are_analytic(bystanders):
    sim, engine = _engine(machine=_ROOMY)
    txn = submitted_query(sim, cpu=1.0, io=0.0, locks=4)  # points at .2 .4 .6 .8
    others = [submitted_query(sim, cpu=4.0 + i, io=0.0) for i in range(bystanders)]
    for query in [txn, *others]:
        engine.start(query)
    sim.run_until(sim.now)  # the starts' one settle
    counts, patch = _resyncs()
    with patch:
        sim.run_until(0.5)  # two grants: one heap entry each
        assert counts == [] and engine.lock_manager.stats.requests == 2
        assert engine.speed_of(txn.query_id) == 1.0
        assert engine.progress_of(txn.query_id) == pytest.approx(0.5, rel=1e-12)
        for i, other in enumerate(others):
            assert engine.progress_of(other.query_id) == pytest.approx(0.5 / (4.0 + i), rel=1e-12)
        sim.run_until(0.9)
        assert counts == [] and engine.lock_manager.stats.requests == 4
        sim.run_until(1.5)
    assert txn.state is QueryState.COMPLETED and txn.end_time == pytest.approx(1.0, rel=1e-12)


# ----------------------------------------------------------------------
# (c) every other outcome
# ----------------------------------------------------------------------
def test_wait_stops_the_row_at_its_lock_point():
    sim, engine = _engine(hot_set=1, machine=_ROOMY)  # one item: everybody wants it
    older = submitted_query(sim, cpu=2.0, io=0.0, locks=1)  # lock point at t = 1.0
    bystander = submitted_query(sim, cpu=10.0, io=0.0)
    engine.start(older)
    engine.start(bystander)
    sim.run_until(0.1)
    younger = submitted_query(sim, cpu=1.0, io=0.0, locks=1)  # takes it at t = 0.6
    engine.start(younger)
    sim.run_until(1.05)
    assert older.state is QueryState.BLOCKED
    assert engine.lock_manager.stats.blocks == 1
    assert engine.speed_of(older.query_id) == 0.0
    assert engine.progress_of(older.query_id) == pytest.approx(0.5, rel=1e-12)
    assert engine.progress_of(bystander.query_id) == pytest.approx(0.105)
    sim.run_until(5.0)  # the holder exits at 1.1 and wakes it
    assert older.state is QueryState.COMPLETED
    assert older.end_time == pytest.approx(2.1)


def test_die_aborts_the_younger_requester():
    sim, engine = _engine(hot_set=1, machine=_ROOMY)
    holder = submitted_query(sim, cpu=4.0, io=0.0, locks=1)  # takes it at t = 2.0
    engine.start(holder)
    sim.run_until(1.8)
    victim = submitted_query(sim, cpu=1.0, io=0.0, locks=1)  # asks at t = 2.3
    engine.start(victim)
    outcomes = []
    engine.on_exit(lambda query, outcome: outcomes.append((query.query_id, outcome, sim.now)))
    sim.run_until(3.0)
    assert outcomes == [(victim.query_id, CompletionOutcome.ABORTED, pytest.approx(2.3))]
    assert victim.progress == 0.0 and engine.lock_manager.stats.aborts == 1


@pytest.mark.parametrize("operation", ["set_weight", "set_throttle", "kill"])
def test_control_operations_between_grants_rearm_at_the_analytic_instant(operation):
    sim, engine = _engine()  # 2 cpus for three queries: weights matter
    txn = submitted_query(sim, cpu=1.0, io=0.0, locks=4)
    rivals = [submitted_query(sim, cpu=3.0, io=0.0) for _ in range(2)]
    for query in [txn, *rivals]:
        engine.start(query)
    sim.run_until(sim.now)  # the starts' one settle arms the first lock point
    while engine.lock_manager.stats.requests < 2:
        assert next_instant(sim)
    sim.run_until(sim.now + 0.01)
    if operation == "set_weight":
        engine.set_weight(rivals[0].query_id, 5.0)
    elif operation == "set_throttle":
        engine.set_throttle(rivals[0].query_id, 0.25)
    else:
        engine.kill(rivals[0].query_id)
    sim.run_until(sim.now)  # the operation's settle
    gap = 0.6 - engine.progress_of(txn.query_id)
    assert engine._milestone_row.query is txn
    assert engine._milestone_handle.time == pytest.approx(
        sim.now + gap / engine.speed_of(txn.query_id), rel=1e-12
    )
    counts, patch = _resyncs()
    with patch:
        assert next_instant(sim) and engine.lock_manager.stats.requests == 3
    assert counts == []  # a grant again, at the new speeds


# ----------------------------------------------------------------------
# (d) what the grants of one transaction cost
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bystanders", [3, 30])
def test_eight_grants_cost_no_resync(bystanders):
    sim, engine = _engine(machine=_ROOMY)
    counts, patch = _resyncs()
    with patch:
        queries = [submitted_query(sim, cpu=0.9, io=0.0, locks=8)]
        queries += [submitted_query(sim, cpu=50.0 + i, io=0.0) for i in range(bystanders)]
        for query in queries:
            engine.start(query)
        sim.run_until(sim.now)
        # the starts of one instant into an idle engine fit: no resync
        assert counts == []
        for _ in range(8):
            assert next_instant(sim)
        assert engine.lock_manager.stats.requests == 8
        assert counts == []
        sim.run()
    assert engine.completed_count == len(queries)
