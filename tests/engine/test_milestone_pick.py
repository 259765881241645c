"""Property: the milestone picked inside the scalar solve is the
standalone picker's.

Below the vector cutover ``_solve_scalar`` hands the progress and speed
lists it gathered and solved to ``_pick_scalar`` instead of reading them
back from the store; the memoized solve reads the store
(``_next_milestone``) and calls the same loop.  The two must agree on
``(time, query id)`` exactly, whatever the running set holds: lock
points ahead, zero remaining work, throttled and paused entries, entries
blocked on a lock, entries at the finish line, and tombstones between
live rows (so positions in the lists are not slots).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import _VECTOR_MIN_RUNNING, ExecutionEngine
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from tests.conftest import submitted_query

# (cpu seconds, io seconds, weight, lock count, fate)
entry_strategy = st.tuples(
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.1, max_value=10.0),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(
        ["run", "run", "kill", "pause", "throttle", "block", "zero-work", "done"]
    ),
)


@given(
    entries=st.lists(entry_strategy, min_size=1, max_size=_VECTOR_MIN_RUNNING - 1),
    warmup=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=150, deadline=None)
def test_pick_inside_scalar_solve_equals_standalone_pick(entries, warmup):
    sim = Simulator(seed=5)
    engine = ExecutionEngine(
        sim, MachineSpec(cpu_capacity=2.0, disk_capacity=1.0, memory_mb=65536.0)
    )
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

    engine._alloc_version += 1  # whatever was poked: force a real solve
    engine._solve()
    handle = engine._milestone_handle
    armed = None if handle is None else (handle.time, engine._milestone_qid)
    assert armed == engine._next_milestone(store.live_indices())
    if armed is not None:
        assert armed[0] >= sim.now and engine.is_running(armed[1])
