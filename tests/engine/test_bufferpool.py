"""Unit tests for the buffer pool / spill model."""

import builtins
import copy
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import bufferpool
from repro.engine.bufferpool import BufferPool


class TestReservations:
    def test_empty_pool_no_pressure(self):
        pool = BufferPool(capacity_mb=1000.0)
        assert pool.pressure == 0.0
        assert pool.io_inflation() == 1.0

    def test_reserve_and_release(self):
        pool = BufferPool(capacity_mb=1000.0)
        pool.reserve("a", 300.0)
        pool.reserve("b", 200.0)
        assert pool.committed_mb == 500.0
        pool.release("a")
        assert pool.committed_mb == 200.0

    def test_release_is_idempotent(self):
        pool = BufferPool(capacity_mb=100.0)
        pool.reserve("a", 50.0)
        pool.release("a")
        pool.release("a")
        assert pool.committed_mb == 0.0

    def test_re_reserve_replaces(self):
        pool = BufferPool(capacity_mb=100.0)
        pool.reserve("a", 50.0)
        pool.reserve("a", 80.0)
        assert pool.committed_mb == 80.0

    def test_negative_reservation_clamped(self):
        pool = BufferPool(capacity_mb=100.0)
        pool.reserve("a", -5.0)
        assert pool.committed_mb == 0.0


class TestSpill:
    def test_no_inflation_until_oversubscribed(self):
        pool = BufferPool(capacity_mb=100.0, spill_penalty=3.0)
        pool.reserve("a", 100.0)
        assert pool.io_inflation() == pytest.approx(1.0)

    def test_inflation_grows_linearly_with_overflow(self):
        pool = BufferPool(capacity_mb=100.0, spill_penalty=3.0)
        pool.reserve("a", 200.0)  # pressure 2.0 -> overflow 1.0
        assert pool.io_inflation() == pytest.approx(4.0)

    def test_pressure_ratio(self):
        pool = BufferPool(capacity_mb=100.0)
        pool.reserve("a", 150.0)
        assert pool.pressure == pytest.approx(1.5)

    def test_reset_clears_everything(self):
        pool = BufferPool(capacity_mb=100.0)
        pool.reserve("a", 500.0)
        pool.reset()
        assert pool.pressure == 0.0


def _reference(reserved: dict, pool: BufferPool) -> tuple:
    """``(committed_mb, pressure, io_inflation)`` as summing every read
    computes them: the insertion-order sum fed through the formula."""
    total = sum(reserved.values())
    if pool.capacity_mb <= 0:
        pressure = float("inf") if reserved else 0.0
    else:
        pressure = total / pool.capacity_mb
    return total, pressure, 1.0 + pool.spill_penalty * max(0.0, pressure - 1.0)


# shares of capacity that do not add up exactly in binary (ten 0.1s
# miss 1.0), so sums land on either side of capacity by one rounding,
# and one that swallows every other reservation when added to them
_AWKWARD = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1 / 3, 0.25, 0.5, 0.0, -0.1, 1e17])
_SHARE = st.one_of(_AWKWARD, st.floats(0.0, 0.6))
# (key, share of capacity) reserves or re-reserves; (key,) releases;
# "reset" resets; "read" reads the exact figures off the pool itself
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 7), _SHARE),
        st.tuples(st.integers(0, 7)),
        st.sampled_from(["reset", "read"]),
    ),
    max_size=150,
)


class TestRunningSum:
    @settings(max_examples=300, deadline=None)
    @given(
        steps=_STEPS,
        capacity=st.sampled_from([1.0, 100.0, 2048.0, 0.0]),
        penalty=st.sampled_from([3.0, 0.5]),
    )
    def test_every_read_equals_the_insertion_order_sum(self, steps, capacity, penalty):
        pool = BufferPool(capacity_mb=capacity, spill_penalty=penalty)
        reserved: dict = {}
        for step in steps:
            if step == "reset":
                pool.reset()
                reserved.clear()
            elif step != "read" and len(step) == 2:
                key, share = step
                memory = share * (capacity or 100.0)
                pool.reserve(key, memory)
                reserved[key] = max(0.0, memory)
            elif step != "read":
                pool.release(step[0])
                reserved.pop(step[0], None)
            total, pressure, inflation = _reference(reserved, pool)
            # read a copy, so no read re-anchors the pool's running sum
            # unless the step reads the pool itself
            seen = pool if step == "read" else copy.deepcopy(pool)
            assert seen.io_inflation() == inflation
            assert seen.committed_mb == total
            assert seen.pressure == pressure

    def test_a_running_sum_just_below_capacity_does_not_hide_a_spill(self):
        pool = BufferPool(capacity_mb=0.9333333333333332)
        for key, memory in (("a", 0.3), ("b", 0.9), ("b", 0.6), ("a", 1 / 3)):
            pool.reserve(key, memory)
        reserved = {"a": 1 / 3, "b": 0.6}
        # the running sum rounds below capacity, the exact sum above it
        assert pool._updates and pool._sum < pool.capacity_mb < sum(reserved.values())
        inflation = pool.io_inflation()
        assert inflation == _reference(reserved, pool)[2] > 1.0

    def test_a_reservation_that_swallows_the_sum_is_not_built_on(self):
        pool = BufferPool(capacity_mb=1.0)
        pool.reserve("a", 0.5)
        pool.reserve("b", 0.3)
        assert pool.committed_mb == 0.8  # an exact sum
        pool.reserve("huge", 1e17)  # 0.8 vanishes in this rounding
        pool.release("huge")
        pool.reserve("c", 0.3)
        reserved = {"a": 0.5, "b": 0.3, "c": 0.3}
        assert pool.io_inflation() == _reference(reserved, pool)[2] > 1.0

    def test_spill_check_sums_once_per_many_updates_below_capacity(self):
        calls = 0

        def counted_sum(values):
            nonlocal calls
            calls += 1
            return builtins.sum(values)

        pool = BufferPool(capacity_mb=2048.0)
        with mock.patch.object(bufferpool, "sum", counted_sum, create=True):
            for key in range(50):
                pool.reserve(key, 10.1)
                assert pool.io_inflation() == 1.0
            for key in range(50, 1050):  # one start and one exit a step
                pool.release(key - 50)
                assert pool.io_inflation() == 1.0
                pool.reserve(key, 10.1)
                assert pool.io_inflation() == 1.0
        # rule (c): one exact sum per ~50 updates, not one per check
        assert 2050 // 51 <= calls <= 2050 // 49
        assert pool.committed_mb == builtins.sum([10.1] * 50)
