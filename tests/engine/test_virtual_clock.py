"""The virtual clock against the exact fill (DESIGN.md §7).

The engine shares the machine in virtual time: between two changes a
closed form (one round, fits) moves every row, and only a resync runs
the exact fill.  ``tests/engine/fills.py`` keeps the oracle: the engine
with the closed forms switched off (``EXACT_STEP``), so every instant
that changes a row materializes every row's progress and runs the exact
scalar fill — the exact fill integrated event by event.

The property drives both through random populations with starts,
finishes, kills, aborts, pauses and throttles, weight changes, machine
slowdowns, memory-pressure inflation, lock waits and wakes, wait-die
restarts and quiet transactions turning loud, and requires at every
milestone event the same row due at the same instant (to 1e-9) and every
row's progress within ``PROGRESS_TOL`` of the oracle's, and every query
the same outcome.  Below it the exact-recompute rule is pinned: when the
sums are re-summed and when ``V`` is rebased.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import EngineConfig, ExecutionEngine
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.runstore import EXACT, FITS, ONE_ROUND, RunStore
from repro.engine.simulator import Simulator
from tests.conftest import submitted_query
from tests.engine.fills import EXACT_STEP, PROGRESS_TOL

_CONTENDED = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=65536.0)
#: 64 MB for jobs of 1–16 MB: memory pressure moves the I/O inflation
_TIGHT = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=64.0)
_ROOMY = MachineSpec(cpu_capacity=64.0, disk_capacity=64.0, memory_mb=65536.0)
_GRID = 0.05

FATES = ["run", "run", "run", "kill", "abort", "pause", "throttle", "weight", "slow", "poke"]

#: (start step, cpu seconds, io seconds, memory MB, weight, lock count,
#: fate, fate delay in steps)
job_strategy = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=1e-3, max_value=2.0),
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0)),
    st.floats(min_value=1.0, max_value=16.0),
    st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=10.0)),
    st.integers(min_value=0, max_value=6),
    st.sampled_from(FATES),
    st.integers(min_value=1, max_value=30),
)


def _run(jobs, machine: MachineSpec, hot_set: int):
    """Start ``jobs`` on a 50 ms grid, apply each job's fate some steps
    after its start and run until nothing moves.

    Returns the exits ``(job, outcome, instant)`` in order, one record
    ``(instant, job, {job: progress})`` per milestone event, and the
    regimes the store settled in.  Job ``i``'s costs are scaled by a
    factor of its own, so no two rows are due at exactly the same
    instant: which of two tied rows goes first is the one thing the last
    bits of a milestone may decide.
    """
    sim = Simulator(seed=3)
    engine = ExecutionEngine(sim, machine, EngineConfig(hot_set_size=hot_set))
    exits, milestones, regimes, index_of = [], [], set(), {}
    engine.on_exit(
        lambda query, outcome: exits.append((index_of[query.query_id], outcome, sim.now))
    )
    store = engine.store
    on_milestone, settle = ExecutionEngine._on_milestone, RunStore.settle

    def recorded_milestone(engine):
        store.advance(sim.now)
        rows = {index_of[qid]: store.progress(row) for qid, row in store.rows.items()}
        due = index_of.get(engine._milestone_row.query.query_id)
        milestones.append((sim.now, due, rows))
        on_milestone(engine)

    def recorded_settle(store, now):
        pick = settle(store, now)
        regimes.add(store.regime)
        return pick

    def restart(query):
        query.transition(QueryState.SUBMITTED)
        engine.start(query)

    def fate(query_id, kind):
        if kind == "slow":  # the whole machine slows down, then recovers
            engine.set_speed(0.5)
            sim.schedule(5 * _GRID, lambda: engine.set_speed(1.0))
            return
        if not engine.is_running(query_id):
            return
        if kind == "kill":
            engine.kill(query_id)
        elif kind == "abort":  # lost, and back two steps later from zero
            query = engine.abort(query_id)
            sim.schedule(2 * _GRID, lambda: restart(query))
        elif kind == "pause":
            engine.set_throttle(query_id, 0.0)
            sim.schedule(
                5 * _GRID,
                lambda: engine.is_running(query_id) and engine.set_throttle(query_id, 1.0),
            )
        elif kind == "throttle":
            engine.set_throttle(query_id, 0.3)
        elif kind == "weight":
            engine.set_weight(query_id, 4.0)
        elif kind == "poke":  # a control operation that changes nothing, and a read
            engine.set_weight(query_id, engine.weight_of(query_id))
            engine.speed_of(query_id)

    for job_index, (step, cpu, io, mem, weight, locks, kind, delay) in enumerate(jobs):
        skew = 1.0 + (job_index + 1) * 1.37e-4
        query = submitted_query(sim, cpu=cpu * skew, io=io * skew, mem=mem, locks=locks)
        index_of[query.query_id] = job_index
        sim.schedule(step * _GRID, lambda q=query, w=weight: engine.start(q, weight=w))
        if kind != "run":
            sim.schedule(
                (step + delay) * _GRID,
                lambda qid=query.query_id, k=kind: fate(qid, k),
            )
    with mock.patch.multiple(
        ExecutionEngine, _on_milestone=recorded_milestone
    ), mock.patch.object(RunStore, "settle", recorded_settle):
        sim.run_until(10_000.0)
    return exits, milestones, regimes


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def in_instant_order(records):
    """``records`` (each starting ``(instant, who, ...)``) with instants
    within 1e-12 of their predecessor's made equal, sorted by instant and
    then by who: two rows due within rounding of one instant may go in
    either order, and that order is the one thing the last bits decide."""
    snapped, previous = [], None
    for record in records:
        instant = record[0]
        if previous is not None and math.isclose(instant, previous, rel_tol=1e-12, abs_tol=1e-15):
            instant = previous
        snapped.append((instant, *record[1:]))
        previous = instant
    return sorted(snapped, key=lambda record: record[:2])


def assert_clock_matches_exact(jobs, machine, hot_set):
    """Run ``jobs`` on the live engine and on the exact-fill engine and
    hold every milestone and exit to the bound.  Returns the live run."""
    live = _run(jobs, machine, hot_set)
    with mock.patch.multiple(RunStore, **EXACT_STEP):
        exact = _run(jobs, machine, hot_set)
    exits = in_instant_order([(t, i, o) for i, o, t in live[0]])
    their_exits = in_instant_order([(t, i, o) for i, o, t in exact[0]])
    assert [(i, o) for _, i, o in exits] == [(i, o) for _, i, o in their_exits]
    for (mine, _, _), (theirs, _, _) in zip(exits, their_exits):
        assert _close(mine, theirs)
    # a row that exits at the instant a record is taken may be gone from
    # one side's record and not yet from the other's
    exiting = {}
    for instant, job, _ in exits:
        exiting.setdefault(instant, set()).add(job)
    milestones, theirs_all = in_instant_order(live[1]), in_instant_order(exact[1])
    assert len(milestones) == len(theirs_all)
    for (instant, due, rows), (their_instant, their_due, their_rows) in zip(milestones, theirs_all):
        assert due == their_due and _close(instant, their_instant)
        assert rows.keys() ^ their_rows.keys() <= exiting.get(instant, set())
        for job in rows.keys() & their_rows.keys():
            assert abs(rows[job] - their_rows[job]) <= PROGRESS_TOL, (instant, job)
    return live


@given(
    jobs=st.one_of(
        st.lists(job_strategy, min_size=1, max_size=16),
        st.lists(job_strategy, min_size=17, max_size=40),
    ),
    machine=st.sampled_from([_CONTENDED, _TIGHT, _ROOMY]),
    hot_set=st.sampled_from([4, 1000]),
)
@settings(max_examples=150, deadline=None)
def test_every_milestone_is_within_the_bound_of_the_exact_fill(jobs, machine, hot_set):
    assert_clock_matches_exact(jobs, machine, hot_set)


def test_a_crowd_crosses_every_regime_switch():
    """Thirty jobs started a step apart on a tight pool with lock points,
    throttles, weights and a machine slowdown: the store settles in all
    three regimes and still holds the bound."""
    jobs = [
        (i, 0.4 + 0.01 * i, 0.2 * (i % 4 != 1), 4.0 + i % 5, 1.0 + 0.1 * i, i % 3, "run", 1)
        for i in range(30)
    ]
    jobs[3] = jobs[3][:6] + ("throttle", 2)
    jobs[7] = jobs[7][:6] + ("weight", 3)
    jobs[12] = jobs[12][:6] + ("slow", 4)
    jobs[20] = jobs[20][:6] + ("abort", 1)
    exits, milestones, regimes = assert_clock_matches_exact(jobs, _TIGHT, 16)
    assert {ONE_ROUND, FITS, EXACT} <= regimes
    assert {i for i, _, _ in exits} == set(range(len(jobs))) and len(milestones) >= len(jobs)


# ----------------------------------------------------------------------
# the exact-recompute rule
# ----------------------------------------------------------------------
def _engine(machine: MachineSpec = _CONTENDED):
    sim = Simulator(seed=1)
    return sim, ExecutionEngine(sim, machine)


def _resummed(store: RunStore):
    """The growth and cap sums re-summed over the active rows in
    insertion order, as a resync sums them."""
    sums = [0.0, 0.0, 0.0, 0.0]
    for row in store.rows.values():
        if row.cap > 0.0:
            sums[0] += row.share * row.cpu
            sums[1] += row.share * row.disk
            sums[2] += row.cap * row.cpu
            sums[3] += row.cap * row.disk
    return sums


def _sums(store: RunStore):
    return [store.g_cpu, store.g_disk, store.u_cpu, store.u_disk]


def test_a_resync_re_sums_in_insertion_order_and_rebases_v():
    sim, engine = _engine()
    queries = [submitted_query(sim, cpu=0.5 + 0.1 * i, io=0.3 + 0.07 * i) for i in range(12)]
    for query in queries[:6]:
        engine.start(query)
    sim.run_until(0.3)
    for query in queries[6:]:
        engine.start(query)
    store = engine.store
    store.advance(sim.now)
    before = {qid: store.progress(row) for qid, row in store.rows.items()}
    store.resync()
    assert store.vtime == store.v0 == 0.0 and store.t0 == sim.now
    assert _sums(store) == _resummed(store)  # bit for bit
    assert store.updates == 0
    for qid, row in store.rows.items():
        assert row.since == 0.0 and row.base == before[qid]


def test_the_set_emptying_zeroes_every_sum_and_v():
    sim, engine = _engine()
    queries = [submitted_query(sim, cpu=0.2 + 0.05 * i, io=0.1) for i in range(5)]
    for query in queries:
        engine.start(query)
    sim.run_until(0.1)
    for query in queries[:4]:
        engine.kill(query.query_id)
    assert engine.store.vtime != 0.0
    engine.kill(queries[4].query_id)
    store = engine.store
    assert _sums(store) == [0.0, 0.0, 0.0, 0.0]
    assert (store.vtime, store.v0, store.active, store.updates, store.heap) == (0.0, 0.0, 0, 0, [])


def test_updates_outnumbering_the_rows_force_a_resync():
    sim, engine = _engine()
    queries = [submitted_query(sim, cpu=5.0, io=0.0) for _ in range(8)]
    for query in queries:
        engine.start(query)
    sim.run_until(0.1)
    store = engine.store
    assert store.regime == ONE_ROUND and store.updates == 0
    resyncs = []
    resync = RunStore.resync
    with mock.patch.object(RunStore, "resync", lambda s: resyncs.append(s.updates) or resync(s)):
        # each weight change is two updates (out of the sums and back in)
        for step, query in enumerate(queries[:4]):
            engine.set_weight(query.query_id, 1.5)
            sim.run_until(0.2 + 0.1 * step)
        assert resyncs == [] and store.updates == 8 and store.regime == ONE_ROUND
        assert store.vtime != 0.0
        engine.set_weight(queries[4].query_id, 1.5)
        sim.run_until(1.0)
    assert resyncs == [10] and store.updates == 0 and store.t0 == 0.5


def test_a_regime_change_resyncs_and_one_round_changes_do_not():
    sim, engine = _engine(MachineSpec(cpu_capacity=2.0, disk_capacity=2.0, memory_mb=1e6))
    first = submitted_query(sim, cpu=10.0, io=0.0)
    engine.start(first)
    sim.run_until(1.0)
    assert engine.store.regime == FITS
    resyncs = []
    resync = RunStore.resync
    with mock.patch.object(RunStore, "resync", lambda s: resyncs.append(len(s)) or resync(s)):
        crowd = [submitted_query(sim, cpu=10.0, io=0.0) for _ in range(3)]
        for query in crowd:
            engine.start(query)
        sim.run_until(2.0)  # 4 rows on 2 cores: one round
        assert engine.store.regime == ONE_ROUND and resyncs == [4]
        engine.kill(crowd[0].query_id)
        sim.run_until(3.0)  # 3 rows on 2 cores: still one round, λ moves
        assert engine.store.regime == ONE_ROUND and resyncs == [4]
    assert engine.speed_of(first.query_id) == pytest.approx(2.0 / 3.0 / 10.0)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["start", "kill", "weight", "throttle"]), st.integers(0, 50)),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_incremental_sums_stay_within_the_bound_of_a_re_sum(ops):
    sim, engine = _engine()
    rng = sim.rng("test")
    for step, (op, pick) in enumerate(ops):
        running = engine.running_queries()
        if op == "start" or not running:
            query = submitted_query(sim, cpu=float(rng.uniform(1, 9)), io=float(rng.uniform(0, 5)))
            engine.start(query, weight=float(rng.uniform(0.5, 3.0)))
        else:
            qid = running[pick % len(running)].query_id
            if op == "kill":
                engine.kill(qid)
            elif op == "weight":
                engine.set_weight(qid, float(rng.uniform(0.5, 3.0)))
            else:
                engine.set_throttle(qid, float(rng.uniform(0.1, 1.0)))
        sim.run_until(sim.now + 1e-3)
        store = engine.store
        for mine, exact in zip(_sums(store), _resummed(store)):
            assert mine == pytest.approx(exact, rel=1e-12, abs=1e-12)
