"""Unit tests for the running set in virtual time (``RunStore``).

Rows enumerate in the order they were added, through every removal
(a resync re-sums in that order).  ``settle`` classifies the active rows
into one of the two closed-form regimes or the exact fill, and the
speeds it settles to are the fill's.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.resources import fill_two_resource
from repro.engine.runstore import EXACT, FITS, IDLE, ONE_ROUND, Row, RunStore


def _row(qid: int, share: float, cpu: float, disk: float, cap: float) -> Row:
    row = Row(SimpleNamespace(query_id=qid, progress=0.0), (), share)
    row.cpu, row.disk, row.share, row.cap = cpu, disk, share, cap
    return row


def _store(rows, cpu_cap=4.0, disk_cap=2.0) -> RunStore:
    store = RunStore(cpu_cap, disk_cap)
    for row in rows:
        store.add(row)
    return store


def _fill(rows, cpu_cap, disk_cap):
    active = [row for row in rows if row.cap > 0.0]
    speeds = [0.0] * len(active)
    fill_two_resource(
        [[i, r.share, r.cpu, r.disk, r.cap] for i, r in enumerate(active)], speeds, cpu_cap, disk_cap
    )
    return dict(zip((r.query.query_id for r in active), speeds))


def test_rows_keep_insertion_order_through_removals():
    rows = [_row(q, 1.0, 1.0, 0.0, 1.0) for q in (5, 3, 9, 1, 7)]
    store = _store(rows)
    store.remove(rows[1])
    store.remove(rows[3])
    store.add(_row(2, 1.0, 1.0, 0.0, 1.0))
    assert list(store.rows) == [5, 9, 7, 2]
    assert len(store) == 4


def test_duplicate_add_rejected():
    store = _store([_row(7, 1.0, 1.0, 0.0, 1.0)])
    with pytest.raises(ValueError):
        store.add(_row(7, 1.0, 1.0, 0.0, 1.0))


def test_caps_that_fit_run_at_their_caps():
    rows = [_row(q, 1.0, 1.0, 0.5, 1.0) for q in range(3)]  # 3 cores, 1.5 disks
    store = _store(rows)
    assert store.settle(0.0) == (1.0, rows[0])
    assert store.regime == FITS and store.lam == 1.0
    assert [store.speed(row) for row in rows] == [1.0, 1.0, 1.0]
    assert store.current_usage() == (3.0, 1.5)


def test_a_binding_resource_every_row_uses_is_one_round():
    # disk binds: 2 disks over growth 1·1 + 2·1 + 1·2 = 5 → λ = 0.4
    rows = [_row(0, 1.0, 0.5, 1.0, 10.0), _row(1, 2.0, 0.5, 1.0, 10.0), _row(2, 1.0, 0.1, 2.0, 10.0)]
    store = _store(rows)
    store.settle(0.0)
    assert store.regime == ONE_ROUND and store.lam == pytest.approx(0.4)
    want = _fill(rows, 4.0, 2.0)
    for row in rows:
        assert store.speed(row) == pytest.approx(want[row.query.query_id], rel=1e-12)
    assert store.current_usage()[1] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "rows",
    [
        # a disk-only row does not freeze when CPU binds
        [_row(0, 1.0, 1.0, 0.0, 10.0), _row(1, 1.0, 1.0, 0.5, 10.0), _row(2, 1.0, 0.0, 1.0, 10.0)],
        # a throttled row's cap binds before the resource does
        [_row(0, 1.0, 1.0, 0.0, 10.0), _row(1, 1.0, 1.0, 0.0, 0.1), _row(2, 4.0, 1.0, 0.0, 10.0),
         _row(3, 1.0, 1.0, 0.0, 10.0), _row(4, 1.0, 1.0, 0.0, 10.0)],
    ],
)
def test_no_closed_form_runs_the_exact_fill(rows):
    store = _store(rows)
    store.settle(0.0)
    assert store.regime == EXACT
    want = _fill(rows, 4.0, 2.0)
    assert {row.query.query_id: store.speed(row) for row in rows} == want


def test_inactive_rows_sit_outside_every_sum():
    rows = [_row(0, 1.0, 1.0, 0.0, 1.0), _row(1, 1.0, 1.0, 0.0, 0.0)]  # one paused
    store = _store(rows)
    store.settle(0.0)
    assert store.active == 1 and store.speed(rows[1]) == 0.0
    store.remove(rows[0])
    assert store.settle(1.0) is None and store.regime == IDLE


row_strategy = st.tuples(
    st.floats(min_value=0.1, max_value=10.0),  # share
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0)),  # cpu
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0)),  # disk
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),  # cap
).filter(lambda r: r[1] > 0.0 or r[2] > 0.0)


@given(
    rows=st.lists(row_strategy, min_size=1, max_size=40),
    capacities=st.tuples(st.floats(0.5, 16.0), st.floats(0.5, 16.0)),
)
@settings(max_examples=150, deadline=None)
def test_settled_speeds_are_the_exact_fills_in_every_regime(rows, capacities):
    built = [_row(q, *r) for q, r in enumerate(rows)]
    store = _store(built, *capacities)
    store.settle(0.0)
    want = _fill(built, *capacities)
    for row in built:
        got = store.speed(row)
        assert got == pytest.approx(want.get(row.query.query_id, 0.0), rel=1e-9, abs=1e-12)
