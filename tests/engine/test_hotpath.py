"""Hot-path satellites: O(1) pending_events and ScopedSimulator binding.

``pending_events`` is now a live counter instead of a heap scan; these
tests pin the counter to the ground truth (a scan of the actual queue)
under every lifecycle edge — schedule, fire, cancel, late cancel,
double cancel — including a randomized interleaving.  The scoped-view
tests pin the bound-method optimization to delegation semantics.
"""

from __future__ import annotations

from repro.engine.simulator import Simulator


def heap_scan(sim: Simulator) -> int:
    """Ground truth: count not-yet-cancelled events still queued."""
    return sum(1 for _time, _seq, event in sim._queue if not event.cancelled)


class TestPendingEventsCounter:
    def test_schedule_and_fire(self):
        sim = Simulator(seed=1)
        assert sim.pending_events() == 0
        handles = [sim.schedule(float(i), lambda: None) for i in range(5)]
        assert sim.pending_events() == heap_scan(sim) == 5
        sim.step()
        assert sim.pending_events() == heap_scan(sim) == 4
        sim.run_until(10.0)
        assert sim.pending_events() == heap_scan(sim) == 0
        assert all(h.done for h in handles)

    def test_cancel_decrements_once(self):
        sim = Simulator(seed=1)
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events() == heap_scan(sim) == 1
        handle.cancel()  # double cancel must not drift the counter
        assert sim.pending_events() == heap_scan(sim) == 1

    def test_late_cancel_after_fire_is_a_noop(self):
        sim = Simulator(seed=1)
        handle = sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        assert sim.pending_events() == 0
        handle.cancel()  # already fired: done flag blocks the decrement
        assert sim.pending_events() == heap_scan(sim) == 0

    def test_cancelled_event_skipped_on_pop_without_drift(self):
        sim = Simulator(seed=1)
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        first.cancel()
        assert sim.pending_events() == 1
        assert sim.step()  # pops the cancelled tombstone, fires the live one
        assert sim.pending_events() == heap_scan(sim) == 0

    def test_periodic_process_stop(self):
        sim = Simulator(seed=1)
        process = sim.schedule_periodic(1.0, lambda: None)
        sim.run_until(3.5)
        assert sim.pending_events() == heap_scan(sim) == 1
        process.stop()
        assert sim.pending_events() == heap_scan(sim) == 0

    def test_randomized_interleaving_matches_heap_scan(self):
        sim = Simulator(seed=7)
        rng = sim.rng("test/ops")
        handles = []
        for _ in range(400):
            op = rng.integers(0, 3)
            if op == 0:
                handles.append(
                    sim.schedule(float(rng.uniform(0.0, 5.0)), lambda: None)
                )
            elif op == 1 and handles:
                handles[int(rng.integers(0, len(handles)))].cancel()
            else:
                sim.run_until(sim.now + float(rng.uniform(0.0, 0.5)))
            assert sim.pending_events() == heap_scan(sim)
        sim.run_until(sim.now + 10.0)
        assert sim.pending_events() == heap_scan(sim) == 0


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
        assert scoped.pending_events() == sim.pending_events() == 2
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
