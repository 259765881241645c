"""The vector step builds a mask only when a row needs one (DESIGN.md §7).

At or above ``_VECTOR_MIN_RUNNING`` the engine's advance, solve, fill and
pick run as numpy steps.  They build the ``moving``, ``trivial``,
``active``, ``positive`` and ``done`` masks only when a reduction (a
``min`` or ``max``) says some row differs, gather each column once, and
hand the solve's progress and speeds to the pick by return value.
``tests/engine/fills.py`` keeps the step with every mask built and every
column gathered through it (``masked_*``); these properties hold the live
step against it bit for bit:

* the fill, over random active sets of 17–200 rows, by ``tobytes()``;
* whole runs with the cutover patched to 1, so every solve takes the
  vector side, over trivial, paused, throttled and blocked rows, rows
  reaped after someone else's sync, lock points and tombstones: exits in
  order, outcome and instant, and at every armed milestone the pick, the
  kept ETA vector and the two recorded usages.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import executor
from repro.engine.executor import EngineConfig, ExecutionEngine
from repro.engine.resources import MachineSpec, fair_share_fill_vectorized
from repro.engine.simulator import Simulator
from tests.conftest import submitted_query
from tests.engine.fills import MASKED_STEP, masked_fill_vectorized

# ----------------------------------------------------------------------
# the fill
# ----------------------------------------------------------------------
# (weight, cpu demand, disk demand, cap): a few sampled values make tied
# cap/weight ratios and tied binding times common
fill_row = st.tuples(
    st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(min_value=0.1, max_value=10.0)),
    st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0]), st.floats(min_value=1e-3, max_value=2.0)),
    st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0]), st.floats(min_value=1e-3, max_value=2.0)),
    st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(min_value=1e-2, max_value=4.0)),
).map(lambda row: row if row[1] or row[2] else (row[0], 1.0, 0.0, row[3]))

#: contended, one tight resource, and room for every row at its cap
capacities = st.one_of(
    st.sampled_from([(8.0, 4.0), (1.0, 1.0), (64.0, 0.5), (1e6, 1e6)]),
    st.tuples(
        st.floats(min_value=0.1, max_value=50.0), st.floats(min_value=0.1, max_value=50.0)
    ),
)


def _both_fills(rows, cpu_cap, disk_cap):
    columns = [np.array(column, dtype=np.float64) for column in zip(*rows)]
    live = fair_share_fill_vectorized(*columns, cpu_cap, disk_cap)
    masked = masked_fill_vectorized(*columns, cpu_cap, disk_cap)
    return live, masked


@given(rows=st.lists(fill_row, min_size=17, max_size=200), caps=capacities)
@settings(max_examples=300, deadline=None)
def test_fill_is_bit_identical_to_the_masked_fill(rows, caps):
    live, masked = _both_fills(rows, *caps)
    assert live.tobytes() == masked.tobytes()


@pytest.mark.parametrize(
    "case",
    [
        "every row fits at its cap",
        "disk binds every row in round one",
        "cpu binds, disk-only rows fill on",
        "caps bind before a resource",
        "tied cap ratios",
    ],
)
def test_fill_branches_are_bit_identical(case):
    rng = np.random.default_rng(7)
    n = 96
    weights = rng.uniform(0.5, 2.0, n)
    cpu = rng.uniform(0.01, 0.2, n)
    disk = rng.uniform(0.05, 0.5, n)
    caps = 1.0 / np.maximum(cpu, disk)
    cpu_cap, disk_cap = 8.0, 4.0
    if case == "every row fits at its cap":
        cpu_cap = disk_cap = 1e6
    elif case == "cpu binds, disk-only rows fill on":
        cpu[::3] = 0.0
        cpu_cap, disk_cap = 0.5, 1e3
    elif case == "caps bind before a resource":
        caps[::2] *= 1e-3
    elif case == "tied cap ratios":
        weights[:] = 1.0
        caps[:] = 0.01
        cpu_cap, disk_cap = 1e6, 1.0
    rows = list(zip(weights, cpu, disk, caps))
    live, masked = _both_fills(rows, cpu_cap, disk_cap)
    assert live.tobytes() == masked.tobytes()


# ----------------------------------------------------------------------
# whole runs on the vector side
# ----------------------------------------------------------------------
_CONTENDED = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=65536.0)
_ROOMY = MachineSpec(cpu_capacity=64.0, disk_capacity=64.0, memory_mb=65536.0)
_GRID = 0.05

# (start step, cpu seconds, io seconds, weight, lock count, fate, fate
# delay in steps); grid costs on the roomy machine make rows due together,
# so one row's milestone syncs another across the finish line
job_strategy = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.one_of(st.sampled_from([0.05, 0.1, 0.5]), st.floats(min_value=1e-3, max_value=2.0)),
    st.one_of(
        st.just(0.0), st.sampled_from([0.05, 0.1]), st.floats(min_value=1e-3, max_value=2.0)
    ),
    st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=10.0)),
    st.integers(min_value=0, max_value=6),
    st.sampled_from(
        ["run", "run", "run", "kill", "pause", "throttle", "trivial", "poke", "weight"]
    ),
    st.integers(min_value=1, max_value=30),
)


def _run(jobs, machine: MachineSpec, hot_set: int):
    """Start ``jobs`` on a 50 ms grid, apply each job's fate some steps
    after its start and run until nothing moves.

    Returns the exits ``(job, outcome, instant)`` in order, one record
    per armed milestone ``(now, pick, kept ETAs, cpu usage, disk usage)``
    and the jobs left blocked.
    """
    sim = Simulator(seed=3)
    engine = ExecutionEngine(sim, machine, EngineConfig(hot_set_size=hot_set))
    exits, armed, index_of = [], [], {}
    engine.on_exit(
        lambda query, outcome: exits.append((index_of[query.query_id], outcome, sim.now))
    )
    arm = engine._arm_milestone

    def recording_arm(pick):
        etas = engine._etas
        kept = None if etas is None else np.asarray(etas, dtype=np.float64).tobytes()
        usages = (engine._cpu_usage, engine._disk_usage)
        job = None if pick is None else (pick[0], index_of[pick[1]])
        armed.append((sim.now, job, kept, usages))
        arm(pick)

    engine._arm_milestone = recording_arm

    def fate(query_id, kind):
        if not engine.is_running(query_id):
            return
        store = engine.store
        if kind == "kill":
            engine.kill(query_id)  # a tombstone between live rows
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
        elif kind == "trivial":  # nothing left to demand: the solve marks it done
            engine._sync_all()
            store.bottleneck[store.index[query_id]] = 0.0
            engine._alloc_version += 1
            engine.set_weight(query_id, engine.weight_of(query_id))
        elif kind == "poke":  # a control operation that changes nothing, and a read
            engine.set_weight(query_id, engine.weight_of(query_id))
            engine.speed_of(query_id)  # solves now, before the instant ends

    for job_index, (step, cpu, io, weight, locks, kind, delay) in enumerate(jobs):
        query = submitted_query(sim, cpu=cpu, io=io, mem=1.0, locks=locks)
        index_of[query.query_id] = job_index
        sim.schedule(step * _GRID, lambda q=query, w=weight: engine.start(q, weight=w))
        if kind != "run":
            sim.schedule(
                (step + delay) * _GRID,
                lambda qid=query.query_id, k=kind: fate(qid, k),
            )
    sim.run_until(10_000.0)
    left = sorted(index_of[query.query_id] for query in engine.running_queries())
    return exits, armed, left


def _live_and_masked(jobs, machine, hot_set):
    with mock.patch.object(executor, "_VECTOR_MIN_RUNNING", 1):
        live = _run(jobs, machine, hot_set)
        with mock.patch.multiple(ExecutionEngine, **MASKED_STEP):
            masked = _run(jobs, machine, hot_set)
    return live, masked


@given(
    jobs=st.lists(job_strategy, min_size=1, max_size=40),
    machine=st.sampled_from([_CONTENDED, _ROOMY]),
    hot_set=st.sampled_from([4, 1000]),
)
@settings(max_examples=120, deadline=None)
def test_runs_are_bit_identical_to_the_masked_step(jobs, machine, hot_set):
    (exits, armed, left), (masked_exits, masked_armed, masked_left) = _live_and_masked(
        jobs, machine, hot_set
    )
    assert exits == masked_exits  # order, outcome and instant, bit for bit
    assert armed == masked_armed  # every pick, kept ETA vector and usage
    assert left == masked_left


def test_a_no_op_control_at_the_finish_instant_sees_the_crossing():
    """Twenty rows due at t = 0.5 and a control operation and a speed
    read scheduled ahead of their milestone: the operation's sync moves
    every row across the finish line, which must make the read's solve a
    real one (it re-arms the milestone as a reap)."""
    jobs = [(0, 0.5, 0.0, 1.0, 0, "run", 1) for _ in range(19)]
    jobs.append((0, 0.5, 0.0, 1.0, 0, "poke", 10))
    (exits, armed, _), (masked_exits, masked_armed, _) = _live_and_masked(
        jobs, _ROOMY, 1000
    )
    assert exits == masked_exits and armed == masked_armed
    assert [instant for _, _, instant in exits] == [0.5] * 20


def test_an_all_active_solve_hands_its_speeds_to_the_pick():
    sim = Simulator(seed=1)
    engine = ExecutionEngine(sim, _CONTENDED)
    queries = [submitted_query(sim, cpu=1.0, io=0.5 + 0.01 * i) for i in range(20)]
    for query in queries:
        engine.start(query)
    idx = engine.store.live_indices()
    *_, progress, speeds = engine._solve_vectorized(idx)
    assert speeds is not None and speeds.tobytes() == engine.store.speed[idx].tobytes()
    assert progress.tobytes() == engine.store.progress[idx].tobytes()
    engine.pause(queries[3].query_id)  # one row at cap 0: the masks are built
    *_, progress, speeds = engine._solve_vectorized(idx)
    assert speeds is None
