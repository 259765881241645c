"""Below the cutover the scalar step reads and writes lists in place
(DESIGN.md §7).

While fewer than ``_VECTOR_MIN_RUNNING`` rows are live the engine's
``RunStore`` holds Python lists, and the scalar advance, solve, pick and
``_refresh_demands`` read and write them in place: no gather through
``idx``, no scatter of the solved speeds.  ``tests/engine/fills.py`` keeps
the same step over numpy columns gathered through ``idx`` (``gather_*``,
patched in with ``GATHER_STEP`` on an engine whose store is numpy at
every size).  These properties hold the live engine against it bit for
bit over running sets that cross the cutover both ways, with lock points,
throttles and pauses, weight changes, machine speed changes and
buffer-pool inflation: exits in order, outcome and instant, the run
digest, and at every armed milestone the pick, the kept ETAs, the two
recorded usages and every live row's speed and progress.
"""

from __future__ import annotations

import hashlib
import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import executor
from repro.engine.executor import EngineConfig, ExecutionEngine
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from tests.conftest import submitted_query
from tests.engine.fills import CUTOVER, GATHER_STEP

_CONTENDED = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=65536.0)
#: 64 MB for jobs of 1–16 MB: memory pressure moves the I/O inflation
_TIGHT = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=64.0)
_ROOMY = MachineSpec(cpu_capacity=64.0, disk_capacity=64.0, memory_mb=65536.0)
_GRID = 0.05

def jobs_of(max_step: int):
    """(start step, cpu seconds, io seconds, memory MB, weight, lock count,
    fate, fate delay in steps)"""
    return st.tuples(
        st.integers(min_value=0, max_value=max_step),
        st.one_of(st.sampled_from([0.05, 0.1, 0.5]), st.floats(min_value=1e-3, max_value=2.0)),
        st.one_of(
            st.just(0.0), st.sampled_from([0.05, 0.1]), st.floats(min_value=1e-3, max_value=2.0)
        ),
        st.floats(min_value=1.0, max_value=16.0),
        st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=10.0)),
        st.integers(min_value=0, max_value=6),
        st.sampled_from(
            ["run", "run", "run", "kill", "pause", "throttle", "weight", "slow", "trivial", "poke"]
        ),
        st.integers(min_value=1, max_value=30),
    )


#: sets that stay below the cutover, and crowds that start within 0.15 s
#: and so mostly climb past it before they drain back below
either_side = st.one_of(
    st.lists(jobs_of(12), min_size=1, max_size=CUTOVER - 1),
    st.lists(jobs_of(3), min_size=CUTOVER + 1, max_size=40),
)


def _rows(store, name):
    """A column's live rows in insertion order, as bytes."""
    column = np.asarray(getattr(store, name), dtype=np.float64)
    return column[store.live_indices()].tobytes()


def _run(jobs, machine: MachineSpec, hot_set: int):
    """Start ``jobs`` on a 50 ms grid, apply each job's fate some steps
    after its start and run until nothing moves.

    Returns the exits ``(job, outcome, instant)`` in order, their digest,
    one record per armed milestone and the largest running set seen.
    """
    sim = Simulator(seed=3)
    engine = ExecutionEngine(sim, machine, EngineConfig(hot_set_size=hot_set))
    exits, armed, index_of = [], [], {}
    engine.on_exit(
        lambda query, outcome: exits.append((index_of[query.query_id], outcome, sim.now))
    )
    arm = engine._arm_milestone
    peak = [0]

    def recording_arm(pick):
        store = engine.store
        etas = engine._etas
        kept = None if etas is None else np.asarray(etas, dtype=np.float64).tobytes()
        usages = (engine._cpu_usage, engine._disk_usage)
        job = None if pick is None else (pick[0], index_of[pick[1]])
        rows = [index_of[qid] for qid in store.live_qids()]
        armed.append(
            (sim.now, job, kept, usages, rows, _rows(store, "speed"), _rows(store, "progress"))
        )
        peak[0] = max(peak[0], store.count)
        arm(pick)

    engine._arm_milestone = recording_arm

    def fate(query_id, kind):
        if kind == "slow":  # the whole machine slows down, then recovers
            engine.set_speed(0.5)
            sim.schedule(5 * _GRID, lambda: engine.set_speed(1.0))
            return
        if not engine.is_running(query_id):
            return
        if kind == "kill":
            engine.kill(query_id)
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
            store = engine.store
            store.bottleneck[store.index[query_id]] = 0.0
            engine._alloc_version += 1
            engine.speed_of(query_id)
        elif kind == "poke":  # a control operation that changes nothing, and a read
            engine.set_weight(query_id, engine.weight_of(query_id))
            engine.speed_of(query_id)  # solves now, before the instant ends

    for job_index, (step, cpu, io, mem, weight, locks, kind, delay) in enumerate(jobs):
        query = submitted_query(sim, cpu=cpu, io=io, mem=mem, locks=locks)
        index_of[query.query_id] = job_index
        sim.schedule(step * _GRID, lambda q=query, w=weight: engine.start(q, weight=w))
        if kind != "run":
            sim.schedule(
                (step + delay) * _GRID,
                lambda qid=query.query_id, k=kind: fate(qid, k),
            )
    sim.run_until(10_000.0)
    hasher = hashlib.sha256()
    for job_index, outcome, instant in exits:
        hasher.update(struct.pack("<qd", job_index, instant) + outcome.value.encode())
    return exits, hasher.hexdigest(), armed, peak[0]


def _live_and_gathered(jobs, machine, hot_set):
    live = _run(jobs, machine, hot_set)
    with mock.patch.object(executor, "_VECTOR_MIN_RUNNING", 1), mock.patch.multiple(
        ExecutionEngine, **GATHER_STEP
    ):
        gathered = _run(jobs, machine, hot_set)
    return live, gathered


@given(
    jobs=either_side,
    machine=st.sampled_from([_CONTENDED, _TIGHT, _ROOMY]),
    hot_set=st.sampled_from([4, 1000]),
)
@settings(max_examples=120, deadline=None)
def test_runs_are_bit_identical_to_the_gathered_step(jobs, machine, hot_set):
    live, gathered = _live_and_gathered(jobs, machine, hot_set)
    exits, digest, armed, _ = live
    assert exits == gathered[0]  # order, outcome and instant, bit for bit
    assert digest == gathered[1]
    assert armed == gathered[2]  # picks, kept ETAs, usages, speeds, progress


def test_a_crowd_crosses_the_cutover_both_ways():
    """Thirty jobs on a tight pool, started a step apart, some with lock
    points: the running set climbs past the cutover and drains back below
    it, and the list-mode steps match the gathered ones throughout."""
    jobs = [
        (i, 0.4 + 0.01 * i, 0.2, 4.0 + i % 5, 1.0 + 0.1 * i, i % 3, "run", 1)
        for i in range(30)
    ]
    jobs[7] = jobs[7][:6] + ("throttle", 3)
    jobs[12] = jobs[12][:6] + ("slow", 4)
    live, gathered = _live_and_gathered(jobs, _TIGHT, 1000)
    assert live[3] >= CUTOVER  # the live run really did convert
    assert live[2][-1][4] == []  # and drained
    assert live[:3] == gathered[:3]


def test_a_no_op_control_at_the_finish_instant_sees_the_crossing():
    """Eight rows due at t = 0.5 and a control operation and a speed read
    scheduled ahead of their milestone: the operation's sync moves every
    row across the finish line, which must make the read's solve a real
    one (it re-arms the milestone as a reap)."""
    jobs = [(0, 0.5, 0.0, 1.0, 1.0, 0, "run", 1) for _ in range(7)]
    jobs.append((0, 0.5, 0.0, 1.0, 1.0, 0, "poke", 10))
    live, gathered = _live_and_gathered(jobs, _ROOMY, 1000)
    assert live[:3] == gathered[:3]
    assert [instant for _, _, instant in live[0]] == [0.5] * 8
