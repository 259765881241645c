"""Hot-path layout: the hot methods a scoped view binds at construction
behave exactly like delegation to the base simulator, and an engine
stays within the instance-attribute budget its ``__init__`` states."""

from __future__ import annotations

from repro.engine.executor import ExecutionEngine
from repro.engine.simulator import Simulator


def test_engine_stays_within_its_instance_attribute_budget():
    attributes = len(vars(ExecutionEngine(Simulator(0))))
    assert attributes <= 28, (
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
        assert scoped._queue is sim._queue and len(sim._queue) == 2
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

    def test_getattr_fallback_still_works(self):
        sim = Simulator(seed=1)
        scoped = sim.scoped("n0")
        # not in _BOUND_METHODS: reaches the base via __getattr__
        assert scoped.scoped("inner").scope == "inner"
        assert scoped.base is sim

    def test_two_scoped_views_share_the_clock(self):
        sim = Simulator(seed=1)
        a, b = sim.scoped("a"), sim.scoped("b")
        a.schedule(3.0, lambda: None)
        b.run_until(4.0)
        assert a.now == b.now == sim.now == 4.0
