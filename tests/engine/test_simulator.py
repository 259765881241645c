"""Unit tests for the discrete-event simulator core."""

import inspect
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import EngineConfig, ExecutionEngine
from repro.engine.simulator import Event, ScopedSimulator, Simulator
from repro.errors import SimulationBudgetExceeded, SimulationError

from tests.conftest import submitted_query

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
        assert sim.scoped("n0").run_until(10.0) == 1
        assert sim.run_until(20.0) == 0
        assert sim.events_fired == 4
        assert typing.get_type_hints(Simulator.run_until)["return"] is int
        assert "run_until" in ScopedSimulator._BOUND_METHODS

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

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


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
        sim = Simulator()
        if driver == "batched":
            sim.add_batch_hooks(lambda: None, lambda: None)
        order = []

        def spawn():
            order.append("b")
            # scheduled during the batch, at its instant: they join it
            # behind everything already queued for that instant
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
            while sim.step():
                pass
        else:
            assert sim.run_until(1.0) == 6
        assert order == ["first", "a", "b", "c", "late-1", "late-2"]
        assert sim.events_fired == 6 and sim.now == 1.0
        last.cancel()  # a cancel after the fire is harmless
        head.cancel()
        assert sim._queue == [] and not sim.step()


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


class TestBatchHooks:
    def test_same_timestamp_events_bracketed_once(self):
        sim = Simulator()
        trace = []
        sim.add_batch_hooks(
            lambda: trace.append("enter"), lambda: trace.append("exit")
        )
        for name in ("a", "b", "c"):
            sim.schedule_at(1.0, lambda n=name: trace.append(n))
        sim.schedule_at(2.0, lambda: trace.append("solo"))
        sim.run_until(3.0)
        # one bracket around the 3-event batch; the lone event unbracketed
        assert trace == ["enter", "a", "b", "c", "exit", "solo"]

    def test_events_scheduled_during_batch_join_it(self):
        sim = Simulator()
        trace = []
        sim.add_batch_hooks(
            lambda: trace.append("enter"), lambda: trace.append("exit")
        )

        def first():
            trace.append("first")
            sim.schedule(0.0, lambda: trace.append("joined"))

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, lambda: trace.append("second"))
        sim.run_until(2.0)
        assert trace == ["enter", "first", "second", "joined", "exit"]

    def test_exit_hooks_run_in_reverse_order(self):
        sim = Simulator()
        trace = []
        sim.add_batch_hooks(
            lambda: trace.append("enter1"), lambda: trace.append("exit1")
        )
        sim.add_batch_hooks(
            lambda: trace.append("enter2"), lambda: trace.append("exit2")
        )
        sim.schedule_at(1.0, lambda: trace.append("a"))
        sim.schedule_at(1.0, lambda: trace.append("b"))
        sim.run_until(2.0)
        assert trace == ["enter1", "enter2", "a", "b", "exit2", "exit1"]

    def test_exit_hooks_run_when_batch_raises(self):
        sim = Simulator()
        trace = []
        sim.add_batch_hooks(
            lambda: trace.append("enter"), lambda: trace.append("exit")
        )

        def boom():
            raise RuntimeError("boom")

        sim.schedule_at(1.0, boom)
        sim.schedule_at(1.0, lambda: trace.append("never"))
        with pytest.raises(RuntimeError):
            sim.run_until(2.0)
        assert trace == ["enter", "exit"]

    def test_step_never_batches(self):
        sim = Simulator()
        trace = []
        sim.add_batch_hooks(
            lambda: trace.append("enter"), lambda: trace.append("exit")
        )
        sim.schedule_at(1.0, lambda: trace.append("a"))
        sim.schedule_at(1.0, lambda: trace.append("b"))
        assert sim.step()
        assert trace == ["a"]
        assert sim.step()
        assert trace == ["a", "b"]


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
        labels = []
        while engine.is_running(txn.query_id):
            labels.append(engine._milestone_handle.label)
            sim.step()
        assert engine.completed_count == 1
        assert len(labels) == 4  # the three lock points, then the completion
        assert all(label.startswith("milestone:") for label in labels)
