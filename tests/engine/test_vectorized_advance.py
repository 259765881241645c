"""Property: the vectorized processor-sharing advance matches the scalar
path on randomized small workloads.

The engine picks its hot-path loops from the running-set size alone
(``executor._VECTOR_MIN_RUNNING``); no argument selects them.  The
constant is the one cutover: the engine hands it to its ``RunStore``,
which holds Python lists below it and numpy columns at or above it, and
the engine takes the step the representation calls for.  These tests
force each side by patching that constant before an engine is built
(``test_a_patched_cutover_moves_the_store_and_the_step_together``):

* the **advance** (``_sync_all``) and **milestone selection**
  (``_pick_scalar`` / ``_pick_vectorized``) are required to be
  **bit-identical** on either side, so with the fill held fixed (the
  vector solve patched to the gather-based scalar solve of
  ``tests/engine/fills.py``, whose progress and speeds the vector pick
  reads as arrays) completion-time streams and digests must be exactly
  equal between a forced-scalar and a forced-vector run;
* the **fair-share fill** switches at the same cutover — the vectorized
  fill reorders float sums, so it is pinned to solver tolerance instead
  (see ``test_fair_share_equivalence``), and here end-to-end completion
  times must agree to tolerance with exactly equal outcome counts.

Workloads include same-timestamp submission collisions (draws land on a
coarse time grid), zero-work queries (finish instantly inside start)
and heavily skewed demands.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import executor
from repro.engine.executor import ExecutionEngine
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from tests.conftest import make_query
from tests.engine.fills import gather_solve_scalar

_MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=65536.0)

#: cutover values that put every running set on one side
ALL_SCALAR = 10**9
ALL_VECTOR = 1

# (submit-grid step, cpu seconds, io seconds, weight); the coarse grid
# forces same-timestamp submission collisions, and 0.0 demands make
# zero-work queries that complete instantly inside start().
job_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=2.0)),
    st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=2.0)),
    st.floats(min_value=0.1, max_value=10.0),
)


def _run(
    jobs, min_running: int, exact_fill: bool = False
) -> Tuple[List[Tuple[int, float]], str]:
    """Run ``jobs`` with the cutover patched to ``min_running``.

    ``exact_fill`` holds the fill fixed: solves of sets at or above the
    cutover go to the scalar solve as well.  Completions are ``(job
    index, end time)`` in completion order; the digest hashes the
    full-precision stream the way the perf scenarios do, so "digests
    equal" means bit-identical trajectories.
    """
    solve = ExecutionEngine._solve_vectorized
    if exact_fill:
        # the scalar fill over the numpy store; the vector pick takes its
        # progress and speeds as arrays
        def solve(engine, idx):
            usage_cpu, usage_disk, progresses, speeds = gather_solve_scalar(engine, idx)
            return usage_cpu, usage_disk, np.array(progresses), np.array(speeds)

    with mock.patch.object(
        executor, "_VECTOR_MIN_RUNNING", min_running
    ), mock.patch.object(ExecutionEngine, "_solve_vectorized", solve):
        return _run_jobs(jobs)


def _run_jobs(jobs) -> Tuple[List[Tuple[int, float]], str]:
    sim = Simulator(seed=11)
    engine = ExecutionEngine(sim, _MACHINE)
    completions: List[Tuple[int, float]] = []
    index_of = {}
    engine.on_exit(
        lambda query, outcome: completions.append(
            (index_of[query.query_id], sim.now)
        )
    )

    def start(job_index: int, cpu: float, io: float, weight: float) -> None:
        query = make_query(cpu=cpu, io=io, mem=1.0)
        query.transition(QueryState.SUBMITTED)
        query.submit_time = sim.now
        index_of[query.query_id] = job_index
        engine.start(query, weight=weight)

    for job_index, (step, cpu, io, weight) in enumerate(jobs):
        sim.schedule(
            step * 0.25,
            lambda i=job_index, c=cpu, d=io, w=weight: start(i, c, d, w),
            label=f"submit:{job_index}",
        )
    sim.run_until(10_000.0)
    assert len(completions) == len(jobs), "every query must complete"

    hasher = hashlib.sha256()
    for job_index, end in completions:
        hasher.update(struct.pack("<qd", job_index, end))
    return completions, hasher.hexdigest()


@given(jobs=st.lists(job_strategy, max_size=14))
@settings(max_examples=80, deadline=None)
def test_vectorized_advance_is_bit_identical_to_scalar(jobs):
    """Vector sync/milestone paths: same bits as the scalar loops —
    completion order, completion times and digest."""
    scalar, scalar_digest = _run(jobs, ALL_SCALAR)
    vector, vector_digest = _run(jobs, ALL_VECTOR, exact_fill=True)
    assert vector == scalar  # exact float equality, in completion order
    assert vector_digest == scalar_digest


@given(jobs=st.lists(job_strategy, min_size=1, max_size=24))
@settings(max_examples=40, deadline=None)
def test_vector_engine_matches_scalar_to_tolerance(jobs):
    """The fully vectorized engine completes the same queries at times
    equal to the scalar reference within solver tolerance."""
    scalar, _ = _run(jobs, ALL_SCALAR)
    vector, _ = _run(jobs, ALL_VECTOR)
    assert len(vector) == len(scalar)
    assert sorted(i for i, _ in vector) == sorted(i for i, _ in scalar)
    end_scalar = dict(scalar)
    for job_index, end in vector:
        assert math.isclose(
            end, end_scalar[job_index], rel_tol=1e-6, abs_tol=1e-6
        ), f"job {job_index}: vectorized end {end} vs scalar {end_scalar[job_index]}"


def test_same_timestamp_collision_batch_is_bit_identical():
    """A full same-instant burst (one deferred solve for the instant) stays
    bit-identical with the vectorized advance on."""
    jobs = [(0, 0.5 + 0.01 * i, 0.25 + 0.02 * i, 1.0 + 0.1 * i) for i in range(20)]
    jobs += [(0, 0.0, 0.0, 1.0), (1, 0.0, 0.0, 2.0)]  # zero-work collisions
    scalar, scalar_digest = _run(jobs, ALL_SCALAR)
    vector, vector_digest = _run(jobs, ALL_VECTOR, exact_fill=True)
    assert vector == scalar
    assert vector_digest == scalar_digest


@pytest.mark.parametrize("cutover", [1, 5, executor._VECTOR_MIN_RUNNING])
def test_a_patched_cutover_moves_the_store_and_the_step_together(cutover):
    """Every solve of an engine built under a patched cutover takes the
    vector step exactly when its store holds numpy columns, and the store
    holds them exactly when at least ``cutover`` rows are live — growing
    past it one start at a time and shrinking back one kill at a time."""
    with mock.patch.object(executor, "_VECTOR_MIN_RUNNING", cutover):
        sim = Simulator(seed=2)
        engine = ExecutionEngine(sim, _MACHINE)
    solves = []

    def recording(step, vector):
        def run(arg):
            solves.append((vector, engine.store.vector, engine.store.count))
            return step(arg)

        return run

    engine._solve_scalar = recording(engine._solve_scalar, False)
    engine._solve_vectorized = recording(engine._solve_vectorized, True)
    queries = [make_query(cpu=5.0, io=1.0, mem=1.0) for _ in range(cutover + 3)]
    for query in queries:
        query.transition(QueryState.SUBMITTED)
        engine.start(query)
        sim.run_until(sim.now)  # one solve per start
        assert isinstance(engine.store.speed, np.ndarray) == (engine.running_count >= cutover)
    for query in queries:
        engine.kill(query.query_id)
        sim.run_until(sim.now)
        assert isinstance(engine.store.speed, list) == (engine.running_count < cutover)
    assert len(solves) == 2 * len(queries)
    assert all(vector == stored == (count >= cutover) for vector, stored, count in solves)
    assert {vector for vector, _, _ in solves} == {False, True}
