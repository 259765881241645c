"""Unit tests for the columnar running-set store, in both its modes.

A store built with cutover ``c`` holds Python lists while fewer than
``c`` rows are live and numpy arrays at or above it; it converts in
``add`` and ``remove``.  Two contracts hold in both modes:

* **insertion order**: live rows read back in the order they were added
  (committed digests depend on float accumulation order — see DESIGN.md
  §7), through every conversion, removal and compaction;
* **column values**: every row keeps the values it was added with, and
  the ones written through ``index`` since, bit for bit.

In list mode a removal deletes the row, so a slot is its position; in
array mode it leaves a tombstone that compaction later gathers away.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.runstore import _ARRAY_CAPACITY, _COMPACT_MIN_DEAD, RunStore

#: a cutover no test reaches: the store stays in list mode
LISTS = 10**9
#: every non-empty store is in array mode
ARRAYS = 1


def _row(value: float):
    """Distinct values for the eleven float columns."""
    return tuple(value + k / 16 for k in range(len(RunStore._FLOAT_COLS)))


def _assert_rows(store: RunStore, model: dict) -> None:
    """``store`` holds exactly ``model``'s rows, in its order, with its values."""
    assert store.live_qids() == list(model)
    assert len(store) == len(model)
    assert store.vector == (len(model) >= store.cutover)
    live = store.live_indices()
    assert [int(q) for q in np.asarray(store.qid)[live]] == list(model)
    for position, (qid, (row, pending)) in enumerate(model.items()):
        slot = store.index[qid]
        assert store.position(slot) == position and store.slot_at(position) == slot
        assert tuple(float(getattr(store, name)[slot]) for name in RunStore._FLOAT_COLS) == row
        assert bool(store.locks_pending[slot]) == pending
        assert not store.blocked[slot]
        if not store.vector:
            assert slot == position


def test_add_returns_slot_and_writes_row():
    for cutover in (LISTS, ARRAYS):
        store = RunStore(cutover)
        slot = store.add(7, _row(0.5), True)
        assert store.index[7] == slot
        assert store.qid[slot] == 7
        assert not store.blocked[slot]
        assert store.locks_pending[slot]
        assert store.progress[slot] == 0.5 and store.milestone[slot] == 0.5 + 10 / 16
        assert len(store) == 1
        assert 7 in store
        assert store.vector == (cutover == ARRAYS)


def test_duplicate_add_rejected():
    for cutover in (LISTS, ARRAYS):
        store = RunStore(cutover)
        store.add(1, _row(0.0), False)
        with pytest.raises(ValueError):
            store.add(1, _row(0.0), False)


def test_list_mode_removal_leaves_every_slot_equal_to_its_position():
    store = RunStore(LISTS)
    for qid in range(10):
        store.add(qid, _row(qid), False)
    for qid in (3, 0, 9, 5):
        store.remove(qid)
        assert [store.index[q] for q in store.live_qids()] == list(range(len(store)))
    assert store.live_qids() == [1, 2, 4, 6, 7, 8]
    assert store.live_indices().tolist() == list(range(6))
    assert store.progress == [1.0, 2.0, 4.0, 6.0, 7.0, 8.0]


def test_remove_tombstones_and_clears_speed():
    """In array mode; a list-mode removal deletes the row (above)."""
    store = RunStore(ARRAYS)
    a = store.add(1, _row(0.0), False)
    store.add(2, _row(0.0), False)
    store.speed[a] = 3.5
    store.remove(1)
    assert 1 not in store
    assert not store.alive[a]
    assert store.speed[a] == 0.0  # dense-prefix passes must see 0
    assert store.live_qids() == [2]


def test_live_indices_cached_and_invalidated():
    """In array mode; in list mode the live slots are ``arange(count)``."""
    store = RunStore(ARRAYS)
    store.add(1, _row(0.0), False)
    first = store.live_indices()
    assert store.live_indices() is first  # cached
    store.add(2, _row(0.0), False)
    second = store.live_indices()
    assert second is not first
    assert second.tolist() == [0, 1]
    store.remove(1)
    assert store.live_indices().tolist() == [1]
    assert store.position(1) == 0 and store.slot_at(0) == 1


def test_insertion_order_survives_interleaved_removal():
    for cutover in (LISTS, ARRAYS):
        store = RunStore(cutover)
        for qid in range(10):
            store.add(qid, _row(qid), False)
        for qid in (3, 0, 7):
            store.remove(qid)
        assert store.live_qids() == [1, 2, 4, 5, 6, 8, 9]
        store.add(100, _row(100), False)
        assert store.live_qids() == [1, 2, 4, 5, 6, 8, 9, 100]


def test_conversions_happen_at_the_cutover_both_ways():
    store = RunStore(4)
    for qid in range(3):
        store.add(qid, _row(qid), False)
        assert isinstance(store.progress, list)
    store.add(3, _row(3), True)  # the count reaches the cutover
    assert isinstance(store.progress, np.ndarray) and store.vector
    assert store.capacity == _ARRAY_CAPACITY
    store.remove(1)  # and drops below it
    assert isinstance(store.progress, list) and not store.vector
    assert store.progress == [0.0, 2.0, 3.0]
    assert store.locks_pending == [False, False, True]
    assert store.index == {0: 0, 2: 1, 3: 2}


def test_growth_preserves_column_values():
    store = RunStore(ARRAYS)
    model = {}
    for qid in range(3 * _ARRAY_CAPACITY):  # forces at least one _grow
        model[qid] = (_row(qid / 100.0), qid % 2 == 0)
        store.add(qid, *model[qid])
    assert store.capacity >= 3 * _ARRAY_CAPACITY
    _assert_rows(store, model)


def test_compaction_gathers_live_rows_in_order():
    store = RunStore(ARRAYS)
    model = {}
    for qid in range(40):
        model[qid] = (_row(qid * 0.01), False)
        store.add(qid, *model[qid])
    # Remove enough for remove() to trigger compaction
    # (dead >= _COMPACT_MIN_DEAD and dead > live).
    for qid in range(33):
        store.remove(qid)
        del model[qid]
    assert store.size - store.count < _COMPACT_MIN_DEAD  # compacted en route
    _assert_rows(store, model)


def test_full_table_reclaims_tombstones_before_growing():
    store = RunStore(ARRAYS)
    for qid in range(_ARRAY_CAPACITY):
        store.add(qid, _row(0.0), False)
    for qid in range(_COMPACT_MIN_DEAD):
        store.remove(qid)
    capacity_before = store.capacity
    store.add(1000, _row(0.0), False)  # table full, enough dead rows -> compact, not grow
    assert store.capacity == capacity_before
    assert store.live_qids() == list(range(_COMPACT_MIN_DEAD, _ARRAY_CAPACITY)) + [1000]


@given(
    cutover=st.sampled_from([1, 2, 5, 17, LISTS]),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=40), st.booleans()),
        max_size=300,
    ),
)
@settings(max_examples=150, deadline=None)
def test_random_churn_matches_ordered_dict_model(cutover, ops):
    """Across every conversion the store behaves exactly like an
    insertion-ordered dict of rows, including values written in place."""
    store = RunStore(cutover)
    model = {}
    for step, (is_add, qid, pending) in enumerate(ops):
        if is_add and qid not in model:
            model[qid] = (_row(qid * 0.5 + 1.0), pending)
            store.add(qid, *model[qid])
        elif not is_add and qid in model:
            store.remove(qid)
            del model[qid]
        elif qid in model:  # a write through the index, as the engine does
            row, pending = model[qid]
            model[qid] = ((step * 0.25,) + row[1:], pending)
            store.progress[store.index[qid]] = step * 0.25
        _assert_rows(store, model)
