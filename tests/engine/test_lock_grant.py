"""A lock grant moves one row (DESIGN.md §7).

Between two real solves every speed is constant, so the engine keeps
the ETA vector its last pick computed.  When the armed milestone fires
for a row at a lock point and the lock is granted, only that row's
milestone and ETA move and the next milestone is the vector's minimum:
no row is advanced, nothing is solved, nothing is picked again.  These
tests hold that step against the full path (``_sync_all``, real solve,
real pick), which every other outcome still takes:

(a) what an in-place grant arms is what a full sync and a real pick
    would arm at that instant;
(b) a run through in-place grants equals the same run with them forced
    off (a patch here; the engine has no switch);
(c) progress and speed read between two grants are the analytic values;
(d) ``WAIT`` stops the row at its lock point, ``DIE`` aborts, a
    reallocation pending at the instant takes the full path, control
    operations between grants replace the kept vector;
(e) a transaction's grants beside lock-free queries cost no sweep and
    no solve.

Running sets of 1–40 put both sides of ``_VECTOR_MIN_RUNNING`` under
every property.  Every transaction here is loud from its registration
(``EagerLocks``, the oracle of ``test_quiet_locks.py``), so each lock
point is a milestone event whether or not another transaction lists its
item.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import CompletionOutcome, EngineConfig, ExecutionEngine
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from tests.conftest import next_instant, submitted_query
from tests.engine.test_quiet_locks import eager, either_side_of_the_cutover

_MACHINE = MachineSpec(cpu_capacity=2.0, disk_capacity=1.0, memory_mb=65536.0)
#: nobody waits for anybody: every speed is its cap
_ROOMY = MachineSpec(cpu_capacity=64.0, disk_capacity=64.0, memory_mb=65536.0)

# (cpu seconds, io seconds, weight, lock count, fate)
entry_strategy = st.tuples(
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=0, max_value=8),
    st.sampled_from(
        ["run", "run", "run", "kill", "pause", "throttle", "block", "zero-work", "done"]
    ),
)
#: a 4-item hot set makes WAIT and DIE common, 1000 items make them rare
hot_set_strategy = st.sampled_from([4, 1000])


def _engine(hot_set: int = 1000, machine: MachineSpec = _MACHINE):
    sim = Simulator(seed=5)
    return sim, eager(ExecutionEngine(sim, machine, EngineConfig(hot_set_size=hot_set)))


def _sweeps_and_solves(engine: ExecutionEngine) -> Dict[str, int]:
    """Count the sweeps (``_sync_all`` calls that advance the clock) and
    the real solves ``engine`` performs from here on."""
    counts = {"sweeps": 0, "solves": 0}
    sync_all = engine._sync_all

    def counted_sync():
        counts["sweeps"] += engine._last_sync_time != engine.sim.now
        sync_all()

    def counted(solve):
        def run(idx):
            counts["solves"] += 1
            return solve(idx)

        return run

    engine._sync_all = counted_sync
    engine._solve_scalar = counted(engine._solve_scalar)
    engine._solve_vectorized = counted(engine._solve_vectorized)
    return counts


def _analytic_etas(engine: ExecutionEngine) -> Dict[int, float]:
    """Every moving row's ETA from the store, which must be synced."""
    assert engine._last_sync_time == engine.sim.now
    store = engine.store
    etas = {}
    for slot in store.live_indices().tolist():
        speed = float(store.speed[slot])
        if speed > 0.0:
            gap = max(float(store.milestone[slot]) - float(store.progress[slot]), 0.0)
            etas[int(store.qid[slot])] = engine.sim.now + gap / speed
    return etas


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


# ----------------------------------------------------------------------
# (a) the armed milestone after an in-place grant
# ----------------------------------------------------------------------
@given(
    entries=either_side_of_the_cutover(entry_strategy),
    hot_set=hot_set_strategy,
    warmup=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=120, deadline=None)
def test_in_place_grant_arms_what_a_full_sync_and_real_pick_would(entries, hot_set, warmup):
    sim, engine = _engine(hot_set)
    fates = {}
    for cpu, io, weight, locks, fate in entries:
        query = submitted_query(sim, cpu=cpu, io=io, mem=1.0, locks=locks)
        fates[query.query_id] = fate
        engine.start(query, weight=weight)
    sim.run_until(warmup)  # some lock points pass, some queries finish

    store = engine.store
    for query_id, fate in fates.items():
        if not engine.is_running(query_id):
            continue
        if fate == "kill":
            engine.kill(query_id)  # leaves a tombstone between live rows
        elif fate == "pause":
            engine.set_throttle(query_id, 0.0)
        elif fate == "throttle":
            engine.set_throttle(query_id, 0.3)
        elif fate == "block":  # what a lock WAIT does to the row
            store.blocked[store.index[query_id]] = True
            store.speed_cap[store.index[query_id]] = 0.0
        elif fate == "zero-work":
            store.bottleneck[store.index[query_id]] = 0.0
        elif fate == "done":
            store.progress[store.index[query_id]] = 1.0
    engine._sync_all()
    engine._alloc_version += 1  # whatever was poked: force a real solve
    engine._solve()

    counts = _sweeps_and_solves(engine)
    for _ in range(60):
        requests = engine.lock_manager.stats.requests
        before = dict(counts)
        if engine._milestone_handle is None or not next_instant(sim):
            break
        if engine.lock_manager.stats.requests == requests or counts != before:
            continue  # not a lock point, or not granted in place
        armed = (engine._milestone_handle.time, engine._milestone_qid)
        assert armed[0] >= sim.now and engine.is_running(armed[1])
        engine._sync_all()
        etas = _analytic_etas(engine)
        engine._alloc_version += 1
        engine._solve()
        fresh = (engine._milestone_handle.time, engine._milestone_qid)
        assert _close(armed[0], fresh[0])
        # the same row, unless two rows are due at the same instant (a
        # row the real pick reaps is due now)
        assert armed[1] == fresh[1] or _close(etas[armed[1]], etas.get(fresh[1], sim.now))


# ----------------------------------------------------------------------
# (b) a whole run, with and without in-place grants
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


@given(jobs=either_side_of_the_cutover(job_strategy), hot_set=hot_set_strategy)
@settings(max_examples=80, deadline=None)
def test_run_through_in_place_grants_equals_the_run_without_them(jobs, hot_set):
    fast, *fast_rest = _run_to_the_end(jobs, hot_set)

    on_milestone = ExecutionEngine._on_milestone

    def full_path_only(engine):
        engine._etas = None  # nothing kept: every grant syncs and solves
        on_milestone(engine)

    with mock.patch.object(ExecutionEngine, "_on_milestone", full_path_only):
        slow, *slow_rest = _run_to_the_end(jobs, hot_set)

    assert [(i, outcome) for i, outcome, _ in fast] == [(i, outcome) for i, outcome, _ in slow]
    assert fast_rest == slow_rest  # LockConflictStats, outcome counts, who is left
    for (_, _, fast_end), (_, _, slow_end) in zip(fast, slow):
        assert _close(fast_end, slow_end)


# ----------------------------------------------------------------------
# (c) lazy rows are not observable
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bystanders", [1, 24])
def test_progress_and_speed_between_two_grants_are_analytic(bystanders):
    sim, engine = _engine(machine=_ROOMY)
    txn = submitted_query(sim, cpu=1.0, io=0.0, locks=4)  # points at .2 .4 .6 .8
    others = [submitted_query(sim, cpu=4.0 + i, io=0.0) for i in range(bystanders)]
    for query in [txn, *others]:
        engine.start(query)
    sim.run_until(sim.now)  # the starts' one solve
    counts = _sweeps_and_solves(engine)
    sim.run_until(0.5)  # two grants in place: the columns still read t = 0
    assert counts == {"sweeps": 0, "solves": 0}
    assert engine.lock_manager.stats.requests == 2
    assert engine.speed_of(txn.query_id) == 1.0
    assert engine.progress_of(txn.query_id) == pytest.approx(0.5, rel=1e-12)
    for i, other in enumerate(others):
        assert engine.progress_of(other.query_id) == pytest.approx(0.5 / (4.0 + i), rel=1e-12)
    # the read synced the columns; the remaining grants are still in place
    before = dict(counts)
    sim.run_until(0.9)
    assert counts == before and engine.lock_manager.stats.requests == 4
    sim.run_until(1.5)
    assert txn.state is QueryState.COMPLETED and txn.end_time == pytest.approx(1.0, rel=1e-12)


# ----------------------------------------------------------------------
# (d) every other outcome takes the full path
# ----------------------------------------------------------------------
def test_wait_stops_the_row_at_its_lock_point_and_syncs_the_others():
    sim, engine = _engine(hot_set=1, machine=_ROOMY)  # one item: everybody wants it
    older = submitted_query(sim, cpu=2.0, io=0.0, locks=1)  # lock point at t = 1.0
    bystander = submitted_query(sim, cpu=10.0, io=0.0)
    engine.start(older)
    engine.start(bystander)
    sim.run_until(0.1)
    younger = submitted_query(sim, cpu=1.0, io=0.0, locks=1)  # takes it at t = 0.6
    engine.start(younger)
    sim.run_until(1.05)
    store = engine.store
    assert older.state is QueryState.BLOCKED
    assert engine.lock_manager.stats.blocks == 1
    assert float(store.progress[store.index[older.query_id]]) == 0.5  # exactly
    assert engine._last_sync_time == pytest.approx(1.0)
    assert float(store.progress[store.index[bystander.query_id]]) == pytest.approx(0.1)
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


def test_grant_in_a_batch_with_a_pending_reallocation_takes_the_full_path():
    sim, engine = _engine(machine=_ROOMY)
    txn = submitted_query(sim, cpu=1.0, io=0.0, locks=1)  # lock point at t = 0.5
    bystander = submitted_query(sim, cpu=10.0, io=0.0)
    # Scheduled first, so it fires first at the instant t = 0.5: a
    # control operation that changes nothing still asks for a reallocation.
    sim.schedule_at(0.5, lambda: engine.set_throttle(bystander.query_id, 1.0))
    engine.start(txn)
    engine.start(bystander)
    sim.run_until(sim.now)  # the starts' one solve
    counts = _sweeps_and_solves(engine)
    version = engine._alloc_version
    sim.run_until(0.5)
    assert engine.lock_manager.stats.requests == 1
    assert engine._alloc_version == version  # nothing fed the allocator...
    assert counts == {"sweeps": 1, "solves": 1}  # ...and the grant still solved
    assert engine._last_sync_time == 0.5
    sim.run_until(2.0)
    assert txn.end_time == pytest.approx(1.0)


@pytest.mark.parametrize("operation", ["set_weight", "set_throttle", "kill"])
def test_control_operations_between_grants_replace_the_kept_vector(operation):
    sim, engine = _engine()  # 2 cpus for three queries: weights matter
    txn = submitted_query(sim, cpu=1.0, io=0.0, locks=4)
    rivals = [submitted_query(sim, cpu=3.0, io=0.0) for _ in range(2)]
    for query in [txn, *rivals]:
        engine.start(query)
    sim.run_until(sim.now)  # the starts' one solve arms the first lock point
    while engine.lock_manager.stats.requests < 2:
        assert next_instant(sim)
    kept = engine._etas
    assert kept is not None and engine._last_sync_time == 0.0
    sim.run_until(sim.now + 0.01)
    if operation == "set_weight":
        engine.set_weight(rivals[0].query_id, 5.0)
    elif operation == "set_throttle":
        engine.set_throttle(rivals[0].query_id, 0.25)
    else:
        engine.kill(rivals[0].query_id)
    sim.run_until(sim.now)  # the operation's solve
    assert engine._etas is not kept and engine._last_sync_time == sim.now
    etas = _analytic_etas(engine)
    assert engine._milestone_qid == txn.query_id
    assert engine._milestone_handle.time == pytest.approx(etas[txn.query_id], rel=1e-12)
    counts = _sweeps_and_solves(engine)
    assert next_instant(sim) and engine.lock_manager.stats.requests == 3
    assert counts == {"sweeps": 0, "solves": 0}  # in place again, at the new speeds


# ----------------------------------------------------------------------
# (e) what the grants of one transaction cost
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bystanders", [3, 30])
def test_eight_grants_cost_no_sweep_and_no_solve(bystanders):
    sim, engine = _engine(machine=_ROOMY)
    counts = _sweeps_and_solves(engine)
    queries = [submitted_query(sim, cpu=0.9, io=0.0, locks=8)]
    queries += [submitted_query(sim, cpu=50.0 + i, io=0.0) for i in range(bystanders)]
    for query in queries:
        engine.start(query)
    sim.run_until(sim.now)
    starts = len(queries)
    # the sweep is the clock leaving -1; the starts of one instant solve once
    assert counts == {"sweeps": 1, "solves": 1}
    for _ in range(8):
        assert next_instant(sim)
    assert engine.lock_manager.stats.requests == 8
    assert counts == {"sweeps": 1, "solves": 1}
    sim.run()
    assert engine.completed_count == starts
    assert counts == {"sweeps": 1 + starts, "solves": 1 + starts}  # one per finish
