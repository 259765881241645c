"""Tests for the utility scheduler, batch ordering and restructuring."""

import pytest

from repro.core.interfaces import decisions_by
from repro.core.manager import FCFSDispatcher, WaitQueue, WorkloadManager
from repro.scheduling.queues import wspt
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.scheduling.batch import (
    interaction_aware_order,
    wspt_order,
)
from repro.scheduling.restructuring import RestructuringScheduler
from repro.scheduling.utility import ServiceClassConfig, UtilityScheduler

from tests.conftest import make_query


def _manager(sim, scheduler, **kwargs):
    kwargs.setdefault(
        "machine", MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096)
    )
    return WorkloadManager(sim, scheduler=scheduler, **kwargs)


class TestUtilityScheduler:
    def _scheduler(self):
        return UtilityScheduler(
            [
                ServiceClassConfig("gold", response_time_goal=1.0, importance=4),
                ServiceClassConfig("bronze", response_time_goal=60.0, importance=1),
            ],
            replan_interval=1.0,
            outstanding_window=5.0,
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            UtilityScheduler([])
        with pytest.raises(ValueError):
            ServiceClassConfig("x", response_time_goal=0.0)

    def test_queues_per_class(self, sim):
        scheduler = self._scheduler()
        manager = _manager(sim, scheduler)
        manager.submit(make_query(cpu=1.0, io=0.0, sql="gold:q"))
        manager.submit(make_query(cpu=1.0, io=0.0, sql="bronze:q"))
        manager.submit(make_query(cpu=1.0, io=0.0, sql="mystery:q"))
        # all dispatched or queued, none lost
        assert manager.running_count + scheduler.queued_count() == 3

    def test_replan_generates_plans(self, sim):
        scheduler = self._scheduler()
        manager = _manager(sim, scheduler)
        manager.run(horizon=3.0, drain=0.0)
        assert scheduler.plans_generated >= 3
        assert decisions_by(manager.decisions, "UtilityScheduler", "plan")

    def test_allocation_favours_important_loaded_class(self, sim):
        scheduler = self._scheduler()
        manager = _manager(sim, scheduler)
        for _ in range(20):
            manager.submit(make_query(cpu=2.0, io=0.0, sql="gold:q"))
            manager.submit(make_query(cpu=2.0, io=0.0, sql="bronze:q"))
        manager.run(horizon=5.0, drain=0.0)
        gold = scheduler._classes["gold"]
        bronze = scheduler._classes["bronze"]
        assert gold.allocation > bronze.allocation

    def test_work_conservation_when_idle(self, sim):
        scheduler = self._scheduler()
        manager = _manager(sim, scheduler)
        # cost limits start at inf so first dispatch is immediate; after
        # a replan with zero measured demand, a lone arrival must still run
        manager.run(horizon=2.0, drain=0.0)
        query = make_query(cpu=0.5, io=0.0, sql="bronze:q")
        manager.submit(query)
        assert query.state is QueryState.RUNNING

    def test_remove_from_class_queue(self, sim):
        scheduler = self._scheduler()
        manager = _manager(sim, scheduler)
        scheduler._classes["gold"].cost_limit = 0.0
        scheduler._default.cost_limit = 0.0
        blocker = make_query(cpu=5.0, io=0.0, sql="gold:q")
        manager.submit(blocker)  # dispatched by work conservation
        waiting = make_query(cpu=5.0, io=0.0, sql="gold:q")
        manager.submit(waiting)
        assert scheduler.queue.remove(waiting.query_id) is waiting

    def test_predicted_response_time_increases_with_less_allocation(self, sim):
        scheduler = self._scheduler()
        manager = _manager(sim, scheduler)
        state = scheduler._classes["gold"]
        for _ in range(10):
            manager.submit(make_query(cpu=2.0, io=0.0, sql="gold:q"))
        starved = scheduler.predicted_response_time(state, 0.01, now=sim.now)
        fed = scheduler.predicted_response_time(state, 10.0, now=sim.now)
        assert starved > fed


class TestBatchOrdering:
    def test_wspt_orders_by_work_over_priority(self):
        small_low = make_query(cpu=1.0, io=0.0, priority=1)
        big_high = make_query(cpu=10.0, io=0.0, priority=10)
        huge_low = make_query(cpu=100.0, io=0.0, priority=1)
        ordered = wspt_order([huge_low, big_high, small_low])
        assert ordered == [small_low, big_high, huge_low]

    def test_wspt_stable_for_ties(self):
        a = make_query(cpu=1.0, io=0.0)
        b = make_query(cpu=1.0, io=0.0)
        assert wspt_order([a, b]) == sorted([a, b], key=lambda q: q.query_id)

    def test_interaction_aware_spreads_memory_hogs(self):
        hogs = [make_query(cpu=5.0, io=0.0, mem=900.0) for _ in range(3)]
        light = [make_query(cpu=5.0, io=0.0, mem=10.0) for _ in range(3)]
        ordered = interaction_aware_order(
            hogs + light, memory_capacity_mb=1000.0, window=2
        )
        # no window of 2 should contain two hogs
        for start in range(0, len(ordered) - 1, 2):
            window = ordered[start : start + 2]
            heavy = sum(1 for q in window if q.true_cost.memory_mb > 500)
            assert heavy <= 1

    def test_interaction_aware_keeps_all_queries(self):
        queries = [make_query(cpu=1.0, io=0.0, mem=m) for m in (10, 2000, 10, 2000)]
        ordered = interaction_aware_order(queries, memory_capacity_mb=1000.0)
        assert sorted(q.query_id for q in ordered) == sorted(
            q.query_id for q in queries
        )

    def test_batch_scheduler_dispatches_in_rank_order(self, sim):
        scheduler = WaitQueue(1, key=wspt)
        manager = _manager(sim, scheduler)
        big = make_query(cpu=10.0, io=0.0)
        small = make_query(cpu=0.5, io=0.0)
        manager.submit(big)  # dispatched first (queue was empty)
        manager.submit(small)
        short = make_query(cpu=0.2, io=0.0)
        tall = make_query(cpu=5.0, io=0.0)
        manager.submit(tall)
        manager.submit(short)  # WSPT puts it ahead of tall despite arrival
        manager.run(horizon=0.0, drain=60.0)
        assert short.end_time < tall.end_time
        assert small.end_time < tall.end_time


class TestRestructuring:
    def test_small_queries_pass_through(self, sim):
        scheduler = RestructuringScheduler(
            FCFSDispatcher(), slice_threshold=10.0, slice_work=2.0
        )
        manager = _manager(sim, scheduler)
        small = make_query(cpu=1.0, io=0.0, sql="w:q")
        manager.submit(small)
        manager.run(horizon=0.0, drain=5.0)
        assert small.state is QueryState.COMPLETED
        assert scheduler.restructured_count == 0

    def test_large_query_sliced_and_completes(self, sim):
        scheduler = RestructuringScheduler(
            FCFSDispatcher(), slice_threshold=5.0, slice_work=2.0
        )
        manager = _manager(sim, scheduler)
        big = make_query(cpu=20.0, io=0.0, sql="w:big")
        manager.submit(big)
        manager.run(horizon=0.0, drain=60.0)
        assert scheduler.restructured_count == 1
        assert len(scheduler.original_response_times) == 1
        # total work conserved: slices sum to the original's work
        assert scheduler.original_response_times[0] == pytest.approx(
            20.0, rel=0.01
        )

    def test_slices_run_serially(self, sim):
        scheduler = RestructuringScheduler(
            FCFSDispatcher(), slice_threshold=5.0, slice_work=10.0
        )
        manager = _manager(sim, scheduler)
        big = make_query(cpu=20.0, io=0.0, sql="w:big")
        manager.submit(big)
        # only one slice in the engine at a time
        assert manager.running_count == 1
        sim.run_until(5.0)
        assert manager.running_count == 1

    def test_transactions_never_sliced(self, sim):
        scheduler = RestructuringScheduler(
            FCFSDispatcher(), slice_threshold=5.0, slice_work=2.0
        )
        manager = _manager(sim, scheduler)
        txn = make_query(cpu=20.0, io=0.0, locks=5, sql="w:txn")
        manager.submit(txn)
        assert scheduler.restructured_count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RestructuringScheduler(FCFSDispatcher(), slice_threshold=0.0)

    def test_short_queries_not_stuck_behind_large(self, sim):
        """The paper's claim for restructuring, in miniature."""
        plain = FCFSDispatcher(max_concurrency=1)
        scheduler = RestructuringScheduler(
            plain, slice_threshold=5.0, slice_work=1.0
        )
        manager = _manager(sim, scheduler)
        big = make_query(cpu=20.0, io=0.0, sql="w:big")
        manager.submit(big)
        sim.run_until(0.1)
        short = make_query(cpu=0.5, io=0.0, sql="w:short")
        manager.submit(short)
        manager.run(horizon=1.0, drain=60.0)
        # short waited only for the current 1s slice, not 20s
        assert short.response_time < 3.0


class TestWsptOptimality:
    """Smith's rule: WSPT attains the exhaustive optimum for weighted
    completion time on a serial machine."""

    def test_wspt_matches_exhaustive_small_batches(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.scheduling.batch import (
            optimal_order_exhaustive,
            weighted_completion_time,
            wspt_order,
        )

        @given(
            st.lists(
                st.tuples(
                    st.floats(min_value=0.1, max_value=50.0),
                    st.integers(min_value=1, max_value=5),
                ),
                min_size=1,
                max_size=6,
            )
        )
        @settings(max_examples=40, deadline=None)
        def check(rows):
            queries = [
                make_query(cpu=work, io=0.0, priority=priority)
                for work, priority in rows
            ]
            wspt_value = weighted_completion_time(wspt_order(queries))
            optimal_value = weighted_completion_time(
                optimal_order_exhaustive(queries)
            )
            assert wspt_value == pytest.approx(optimal_value, rel=1e-9)

        check()

    def test_exhaustive_guard(self):
        from repro.scheduling.batch import optimal_order_exhaustive

        with pytest.raises(ValueError):
            optimal_order_exhaustive([make_query() for _ in range(10)])
