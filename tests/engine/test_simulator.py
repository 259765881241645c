"""Unit tests for the discrete-event simulator core."""

import inspect
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import EngineConfig, ExecutionEngine
from repro.engine.simulator import Event, Simulator
from repro.errors import SimulationBudgetExceeded, SimulationError

from tests.conftest import next_instant, submitted_query

NAN = float("nan")


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_at_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(2.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_fifo_tie_breaking_at_equal_times(self):
        sim = Simulator()
        order = []
        for index in range(10):
            sim.schedule_at(1.0, lambda i=index: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_schedule_relative_delay(self):
        sim = Simulator()
        times = []
        sim.schedule_at(1.0, lambda: sim.schedule(2.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [3.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize(
        "call",
        [
            lambda sim: sim.schedule_at(NAN, lambda: None),
            lambda sim: sim.schedule(NAN, lambda: None),
            lambda sim: sim.run_until(NAN),
        ],
        ids=["schedule_at", "schedule", "run_until"],
    )
    def test_nan_time_rejected(self, call):
        # a NaN entry compares false both ways: it would sit anywhere in
        # the heap, fire, and leave the clock at NaN
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            call(sim)
        assert len(sim._queue) == 1
        assert sim.events_fired == 0 and sim.now == 0.0
        sim.run()
        assert sim.now == 1.0

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_events_fired_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run()
        assert sim.events_fired == 3


class TestRunUntil:
    def test_run_until_stops_at_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_includes_events_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run_until(2.0)
        assert fired == [2]

    def test_run_until_returns_the_fired_count(self):
        # slicing callers (the ledger's SlicedSimulator) subtract it
        # from their max_events budget
        sim = Simulator()
        for t in (1.0, 1.0, 2.0, 5.0):
            sim.schedule_at(t, lambda: None)
        sim.schedule_at(1.5, lambda: None).cancel()
        assert sim.run_until(2.0) == 3
        assert sim.run_until(10.0) == 1
        assert sim.run_until(20.0) == 0
        assert sim.events_fired == 4
        assert typing.get_type_hints(Simulator.run_until)["return"] is int

    def test_run_until_event_storm_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule_at(0.5, rearm)
        with pytest.raises(SimulationError):
            sim.run_until(1.0, max_events=100)

    def test_run_event_storm_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.1, rearm)

        sim.schedule_at(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=50)


class TestPeriodic:
    def test_periodic_fires_at_period(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(1.0, lambda: times.append(sim.now))
        sim.run_until(3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_periodic_custom_start(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(2.0, lambda: times.append(sim.now), start=0.5)
        sim.run_until(5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_periodic_stop(self):
        sim = Simulator()
        times = []
        process = sim.schedule_periodic(1.0, lambda: times.append(sim.now))
        sim.run_until(2.0)
        process.stop()
        sim.run_until(10.0)
        assert times == [1.0, 2.0]

    def test_periodic_invalid_period(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_periodic(0.0, lambda: None)


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = Simulator(seed=3).rng("x").random(5)
        b = Simulator(seed=3).rng("x").random(5)
        assert list(a) == list(b)

    def test_different_streams_differ(self):
        sim = Simulator(seed=3)
        assert list(sim.rng("x").random(5)) != list(sim.rng("y").random(5))

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).rng("x").random(5)
        b = Simulator(seed=2).rng("x").random(5)
        assert list(a) != list(b)

    def test_stream_is_cached(self):
        sim = Simulator()
        assert sim.rng("x") is sim.rng("x")

    def test_stream_independent_of_creation_order(self):
        first = Simulator(seed=5)
        values_x = list(first.rng("x").random(3))
        second = Simulator(seed=5)
        second.rng("y")  # create another stream first
        assert list(second.rng("x").random(3)) == values_x


class TestEventOrdering:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_events_always_fire_in_nondecreasing_time(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda t=t: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    def test_heap_entries_order_by_time_then_seq(self):
        sim = Simulator()
        late = sim.schedule_at(2.0, lambda: None)
        early = sim.schedule_at(1.0, lambda: None)
        tie = sim.schedule_at(1.0, lambda: None)
        # plain tuple compares: sorting would raise TypeError if a tie
        # ever reached the Event, which defines no order of its own
        entries = sorted(sim._queue)
        assert [entry[:2] for entry in entries] == [(1.0, 1), (1.0, 2), (2.0, 0)]
        assert [entry[2] for entry in entries] == [early, tie, late]
        assert "__lt__" not in vars(Event)

    @pytest.mark.parametrize("driver", ["batched", "unbatched", "step"])
    def test_same_instant_ties_fire_fifo(self, driver):
        """``batched``: an action deferred at the instant; ``unbatched``:
        none; ``step``: the run driven one instant at a time."""
        sim = Simulator()
        order = []

        def spawn():
            order.append("b")
            if driver == "batched":
                sim.defer(lambda: order.append("deferred"))
            # scheduled during the instant, at it: they fire behind
            # everything already queued for that instant
            sim.schedule_at(1.0, lambda: order.append("late-1"))
            sim.schedule(0.0, lambda: order.append("late-2"))

        head = sim.schedule_at(1.0, lambda: order.append("cancelled"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(1.0, spawn)
        last = sim.schedule_at(1.0, lambda: order.append("c"))
        sim.schedule_at(0.5, lambda: order.append("first"))
        head.cancel()  # a cancelled head of the instant is skipped
        assert len(sim._queue) == 5  # ... once popped: it stays queued till then
        if driver == "step":
            while next_instant(sim):
                pass
        else:
            assert sim.run_until(1.0) == 6
        deferred = ["deferred"] if driver == "batched" else []
        assert order == ["first", "a", "b", "c", "late-1", "late-2", *deferred]
        assert sim.events_fired == 6 and sim.now == 1.0
        last.cancel()  # a cancel after the fire is harmless
        head.cancel()
        assert sim._queue == [] and not next_instant(sim)


class TestBudget:
    def test_budget_exceeded_carries_budget_and_fired(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule_at(0.0, rearm)
        with pytest.raises(SimulationBudgetExceeded) as excinfo:
            sim.run_until(1.0, max_events=25)
        assert excinfo.value.budget == 25
        assert excinfo.value.fired == 25

    def test_run_until_without_budget_is_unbounded(self):
        sim = Simulator()
        fired = []
        for i in range(500):
            sim.schedule_at(i * 0.001, lambda i=i: fired.append(i))
        sim.run_until(1.0)  # no max_events: all 500 fire
        assert len(fired) == 500

    def test_budget_is_a_subclass_of_simulation_error(self):
        # call sites that guard with SimulationError keep working
        assert issubclass(SimulationBudgetExceeded, SimulationError)


class TestDefer:
    def test_a_deferred_action_runs_once_after_the_instants_last_event(self):
        sim = Simulator()
        trace = []

        def first():
            trace.append("first")
            sim.defer(lambda: trace.append("deferred"))
            sim.schedule(0.0, lambda: trace.append("joined"))  # during the instant

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, lambda: trace.append("second"))
        sim.schedule_at(2.0, lambda: trace.append("later"))
        sim.run_until(3.0)
        assert trace == ["first", "second", "joined", "deferred", "later"]

    def test_it_runs_before_the_clock_advances_and_before_a_run_returns(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: sim.defer(lambda: seen.append(sim.now)))
        sim.schedule_at(2.0, lambda: seen.append("next"))
        assert sim.run_until(1.0) == 1  # nothing else is due: it flushes on the way out
        assert seen == [1.0]
        sim.defer(lambda: seen.append(("outside a run", sim.now)))
        sim.run_until(5.0)
        assert seen == [1.0, ("outside a run", 1.0), "next"] and sim.now == 5.0
        sim.defer(lambda: seen.append("drained"))
        sim.run()
        assert seen[-1] == "drained" and not sim._deferred

    def test_actions_run_in_defer_order_and_one_deferred_in_a_flush_joins_it(self):
        sim = Simulator()
        trace = []

        def first():
            trace.append("first")
            sim.defer(lambda: trace.append("nested"))
            sim.schedule(0.0, lambda: trace.append("event at the instant"))

        def at_one():
            sim.defer(first)
            sim.defer(lambda: trace.append("second"))

        sim.schedule_at(1.0, at_one)
        sim.schedule_at(2.0, lambda: trace.append("later"))
        sim.run_until(3.0)
        # the flush ends before an event it scheduled at the instant fires
        assert trace == ["first", "second", "nested", "event at the instant", "later"]

    def test_a_raising_action_runs_once_and_leaves_the_rest_to_the_next_run(self):
        sim = Simulator()
        trace = []

        def boom():
            trace.append("boom")
            raise RuntimeError("boom")

        sim.defer(boom)
        sim.defer(lambda: trace.append("after"))
        with pytest.raises(RuntimeError):
            sim.run_until(1.0)
        assert trace == ["boom"] and sim.now == 0.0
        sim.run_until(1.0)
        assert trace == ["boom", "after"] and sim.now == 1.0


class TestTracerContract:
    """What ``benchmarks/ledger/tracer.py`` relies on.  Only ``make
    test-ledger`` (not tier-1) notices a nulled seam otherwise."""

    def test_schedule_at_signature(self):
        # the tracer's wrapper calls original(sim, time, action, label)
        required = inspect.Parameter.empty
        parameters = inspect.signature(Simulator.schedule_at).parameters.values()
        assert [(p.name, p.default) for p in parameters] == [
            ("self", required), ("time", required), ("action", required), ("label", ""),
        ]
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)

    def test_engine_arms_its_milestone_under_the_milestone_label(self):
        # the engine.event.milestone seam is matched on the label's head
        sim = Simulator()
        engine = ExecutionEngine(sim, config=EngineConfig(hot_set_size=3))
        # (an in-place lock grant re-arms through the same call as a solve)
        txn = submitted_query(sim, cpu=1.0, io=0.5, locks=3)
        # lists one of its three items, so its lock points are events; its
        # own point is 50 s away
        rival = submitted_query(sim, cpu=100.0, io=0.0, locks=1)
        engine.start(txn)
        engine.start(rival)
        sim.run_until(sim.now)  # the starts' solve arms the first lock point
        labels = []
        while engine.is_running(txn.query_id):
            labels.append(engine._milestone_handle.label)
            next_instant(sim)
        assert engine.completed_count == 1
        assert len(labels) == 4  # the three lock points, then the completion
        assert all(label.startswith("milestone:") for label in labels)
