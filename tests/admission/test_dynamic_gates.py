"""Tests for conflict-ratio, throughput-feedback and indicator admission."""

from functools import partial

import pytest

from repro.admission.base import CompositeAdmission, PriorityExemptAdmission
from repro.admission.conflict_ratio import ConflictRatioAdmission
from repro.admission.indicators import (
    Indicator,
    IndicatorAdmission,
    default_indicators,
    queue_length,
)
from repro.admission.threshold import ThresholdAdmission
from repro.admission.throughput_feedback import ThroughputFeedbackAdmission
from repro.core.interfaces import AdmissionOutcome, decisions_by
from repro.core.manager import WaitQueue, WorkloadManager
from repro.core.policy import AdmissionPolicy
from repro.engine.query import CostVector, QueryState
from repro.engine.resources import MachineSpec
from repro.errors import ConfigurationError

from tests.conftest import capacity_gate, make_query


def _manager(sim, admission, **kwargs):
    kwargs.setdefault(
        "machine", MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=1024)
    )
    return WorkloadManager(sim, admission=admission, **kwargs)


class TestConflictRatio:
    def test_read_only_always_accepted(self, sim):
        admission = ConflictRatioAdmission()
        manager = _manager(sim, admission)
        decision = admission.decide(make_query(locks=0), manager)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_transactions_accepted_while_ratio_low(self, sim):
        admission = ConflictRatioAdmission(critical_ratio=1.3)
        manager = _manager(sim, admission)
        decision = admission.decide(make_query(locks=5), manager)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_transactions_delayed_when_ratio_critical(self, sim, monkeypatch):
        admission = ConflictRatioAdmission(critical_ratio=1.3)
        manager = _manager(sim, admission)
        monkeypatch.setattr(manager.engine, "conflict_ratio", lambda: 2.0)
        decision = admission.decide(make_query(locks=5), manager)
        assert decision.outcome is AdmissionOutcome.DELAY
        assert admission.suspensions == 1

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            ConflictRatioAdmission(critical_ratio=0.5)


class TestThroughputFeedback:
    def test_accepts_under_limit(self, sim):
        admission = ThroughputFeedbackAdmission(initial_mpl=4)
        manager = _manager(sim, admission)
        decision = admission.decide(make_query(), manager)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_delays_at_limit(self, sim):
        admission = ThroughputFeedbackAdmission(initial_mpl=1)
        manager = _manager(sim, admission)
        manager.submit(make_query(cpu=50.0, io=0.0))
        decision = admission.decide(make_query(), manager)
        assert decision.outcome is AdmissionOutcome.DELAY
        assert admission.delays == 1

    def test_mpl_rises_while_throughput_grows(self, sim):
        admission = ThroughputFeedbackAdmission(
            initial_mpl=2, interval=1.0, step=1
        )
        manager = _manager(sim, admission)
        # a steady stream of short queries: each interval completes more
        for index in range(40):
            sim.schedule_at(
                index * 0.1,
                lambda: manager.submit(make_query(cpu=0.05, io=0.0)),
            )
        manager.run(horizon=4.0, drain=2.0)
        assert admission.mpl > 2
        history = decisions_by(
            manager.decisions, "ThroughputFeedbackAdmission", "set_mpl"
        )
        assert len(history) >= 4

    def test_direction_reverses_on_throughput_drop(self, sim):
        admission = ThroughputFeedbackAdmission(
            initial_mpl=5, interval=1.0, step=1, hysteresis=0.0
        )
        manager = _manager(sim, admission)
        admission.climber._last_throughput = 10.0
        admission.climber._completions = 1  # big drop
        admission.climber._adjust(manager)
        assert admission.climber._direction == -1
        assert admission.mpl == 4

    def test_mpl_clamped_to_bounds(self, sim):
        admission = ThroughputFeedbackAdmission(
            initial_mpl=1, min_mpl=1, max_mpl=3, interval=1.0, step=5
        )
        manager = _manager(sim, admission)
        admission.climber._adjust(manager)
        assert 1 <= admission.mpl <= 3

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ThroughputFeedbackAdmission(initial_mpl=0)
        with pytest.raises(ConfigurationError):
            ThroughputFeedbackAdmission(interval=0.0)


class TestIndicators:
    def test_accepts_when_quiet(self, sim):
        admission = IndicatorAdmission()
        manager = _manager(sim, admission)
        decision = admission.decide(make_query(priority=1), manager)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_delayed_under_pressure(self, sim):
        admission = IndicatorAdmission()
        manager = _manager(
            sim,
            admission,
            machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=100),
        )
        manager.engine.buffer_pool.reserve("hog", 500.0)  # pressure 5.0
        decision = admission.decide(make_query(priority=3), manager)
        assert decision.outcome is AdmissionOutcome.DELAY
        assert admission.firings["memory_pressure"] == 1
        assert "memory_pressure" in decision.reason

    def test_exempt_priority_passes_through_the_wrapper(self, sim):
        admission = PriorityExemptAdmission(IndicatorAdmission(), exempt_priority=3)
        manager = _manager(sim, admission)
        manager.engine.buffer_pool.reserve("hog", 1e6)
        vip = admission.decide(make_query(priority=3), manager)
        assert vip.outcome is AdmissionOutcome.ACCEPT
        low = admission.decide(make_query(priority=2), manager)
        assert low.outcome is AdmissionOutcome.DELAY
        assert admission.inner.delays == 1

    def test_custom_indicator(self, sim):
        always = Indicator("always", lambda query, ctx: 2.0, threshold=1.0)
        admission = IndicatorAdmission([always])
        manager = _manager(sim, admission)
        decision = admission.decide(make_query(priority=1), manager)
        assert decision.outcome is AdmissionOutcome.DELAY

    def test_default_indicator_set(self):
        names = {indicator.name for indicator in default_indicators()}
        assert names == {"memory_pressure", "conflict_ratio", "queue_length"}

    def test_queue_length_reads_the_managers_backlog(self, sim):
        admission = IndicatorAdmission([Indicator("queue_length", queue_length, 0.5)])
        manager = _manager(sim, admission, scheduler=WaitQueue(1))
        manager.submit(make_query(cpu=5.0, io=0.0))  # queue empty: admitted
        manager.submit(make_query(cpu=5.0, io=0.0))  # now one waits
        assert manager.queued_count == 1
        decision = admission.decide(make_query(), manager)
        assert decision.outcome is AdmissionOutcome.DELAY

    def test_queue_length_leaves_out_the_gates_own_holds(self, sim):
        """Regression: the read counted the gate's holds at an arrival
        but not at a retry, which takes them off first: the fifth arrival
        below read 3, and the retry's first hold 2, of one backlog."""
        reads = []

        def read(query, context):
            reads.append(queue_length(query, context))
            return reads[-1]

        admission = IndicatorAdmission([Indicator("queue_length", read, 1.5)])
        manager = _manager(sim, admission, scheduler=WaitQueue(1))
        for _ in range(5):  # one runs, two wait in the scheduler, two are held
            manager.submit(make_query(cpu=0.5, io=0.0))
        assert (manager.scheduler.queued_count(), manager.queued_count) == (2, 4)
        assert reads == [0.0, 0.0, 1.0, 2.0, 2.0]
        manager.run(horizon=0.0, drain=0.75)
        # the first exit, at 0.5 s, retries before the scheduler starts
        # the next request: both holds read the arrivals' 2 and stay held
        assert reads[5:] == [2.0, 2.0]

    def test_default_indicators_drain_a_backlog_past_their_threshold(self, sim):
        """More holds than the ``queue_length`` threshold (50) still drain:
        a read that counted them would admit nothing again."""
        manager = _manager(sim, IndicatorAdmission(), scheduler=WaitQueue(1))
        queries = [make_query(cpu=0.01, io=0.0) for _ in range(120)]
        for query in queries:  # 1 runs, 51 wait in the scheduler, 68 are held
            manager.submit(query)
        assert manager.queued_count - manager.scheduler.queued_count() == 68
        manager.run(horizon=0.0, drain=5.0)
        assert all(query.state is QueryState.COMPLETED for query in queries)

    def test_empty_indicator_list_rejected(self):
        with pytest.raises(ValueError):
            IndicatorAdmission([])


class TestCapacityGate:
    """The A/B lab's gate: projected memory and conflict ratio."""

    def _manager(self, sim, mem=1000.0):
        return _manager(
            sim,
            capacity_gate(),
            machine=MachineSpec(cpu_capacity=2.0, disk_capacity=2.0, memory_mb=mem),
        )

    def test_accepts_a_fitting_request_on_an_idle_machine(self, sim):
        manager = self._manager(sim)
        gate = manager.admission
        query = make_query(cpu=1.0, io=0.0, mem=100.0, priority=1)
        decision = gate.decide(query, manager)
        assert decision.outcome is AdmissionOutcome.ACCEPT
        assert gate.inner.delays == 0

    def test_delays_low_priority_when_memory_is_nearly_full(self, sim):
        manager = self._manager(sim)
        manager.engine.buffer_pool.reserve("hog", 950.0)
        gate = manager.admission
        query = make_query(cpu=1.0, io=0.0, mem=200.0, priority=1)
        decision = gate.decide(query, manager)
        assert decision.outcome is AdmissionOutcome.DELAY
        assert gate.inner.delays == 1
        assert gate.inner.firings == {"projected_memory": 1, "conflict_ratio": 0}

    def test_oversubscribed_memory_delays_even_a_tiny_request(self, sim):
        manager = self._manager(sim)
        for _ in range(3):
            manager.submit(make_query(cpu=10.0, io=0.0, mem=500.0, priority=3))
        assert manager.engine.memory_pressure() > 1.0
        tiny = make_query(cpu=1.0, io=0.0, mem=1.0, priority=1)
        decision = manager.admission.decide(tiny, manager)
        assert decision.outcome is AdmissionOutcome.DELAY
        assert "projected_memory" in decision.reason

    def test_exempt_priority_admitted_however_full(self, sim):
        manager = self._manager(sim)
        manager.engine.buffer_pool.reserve("hog", 10_000.0)
        gate = manager.admission
        vip = make_query(cpu=1.0, io=0.0, mem=500.0, priority=3)
        assert gate.decide(vip, manager).outcome is AdmissionOutcome.ACCEPT
        assert gate.inner.delays == 0

    def test_projected_memory_counts_the_request_estimate(self, sim):
        manager = self._manager(sim)
        manager.submit(make_query(cpu=10.0, io=0.0, mem=800.0, priority=1))
        gate = manager.admission
        small = make_query(cpu=1.0, io=0.0, mem=100.0, priority=1)
        huge = make_query(cpu=1.0, io=0.0, mem=800.0, priority=1)
        assert gate.decide(small, manager).outcome is AdmissionOutcome.ACCEPT
        decision = gate.decide(huge, manager)
        assert decision.outcome is AdmissionOutcome.DELAY
        assert "projected_memory=1.60>1" in decision.reason

    def test_projected_memory_reads_the_estimate_not_the_true_cost(self, sim):
        manager = self._manager(sim)
        gate = manager.admission
        liar = make_query(cpu=1.0, io=0.0, mem=100.0, priority=1)
        liar.estimated_cost = CostVector(1.0, 0.0, 5000.0)  # optimizer: 5 GB
        assert gate.decide(liar, manager).outcome is AdmissionOutcome.DELAY
        hidden = make_query(cpu=1.0, io=0.0, mem=5000.0, priority=1)
        hidden.estimated_cost = CostVector(1.0, 0.0, 100.0)  # optimizer: 100 MB
        assert gate.decide(hidden, manager).outcome is AdmissionOutcome.ACCEPT

    def test_a_conflict_spike_delays(self, sim, monkeypatch):
        manager = self._manager(sim)
        monkeypatch.setattr(manager.engine, "conflict_ratio", lambda: 3.0)
        decision = manager.admission.decide(make_query(priority=1), manager)
        assert decision.outcome is AdmissionOutcome.DELAY
        assert "conflict_ratio=3.00>1.5" in decision.reason

    def test_end_to_end_memory_pressure_stays_bounded(self, sim):
        manager = self._manager(sim, mem=500.0)
        for index in range(10):
            query = make_query(cpu=2.0, io=1.0, mem=300.0, priority=1, sql="wl:q")
            sim.schedule_at(index * 0.2, partial(manager.submit, query))
        manager.run(horizon=3.0, drain=120.0)
        assert manager.metrics.stats_for("wl").completions == 10
        assert manager.admission.inner.delays > 0
        # one 300 MB query fits a 500 MB machine, two do not: the
        # sampled pressure never shows a second one admitted
        samples = manager.metrics.samples()
        assert samples
        for sample in samples:
            assert sample.memory_pressure <= 1.3


class TestCombinators:
    def test_composite_first_non_accept_wins(self, sim):
        gate = ThresholdAdmission(AdmissionPolicy(reject_over_cost=1.0))
        composite = CompositeAdmission([gate, ConflictRatioAdmission()])
        manager = _manager(sim, composite)
        decision = composite.decide(make_query(cpu=5.0, io=5.0), manager)
        assert decision.outcome is AdmissionOutcome.REJECT

    def test_composite_accepts_when_all_pass(self, sim):
        composite = CompositeAdmission(
            [ThresholdAdmission(AdmissionPolicy()), ConflictRatioAdmission()]
        )
        manager = _manager(sim, composite)
        decision = composite.decide(make_query(), manager)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_composite_needs_gates(self):
        with pytest.raises(ValueError):
            CompositeAdmission([])

    def test_priority_exemption_bypasses_inner(self, sim):
        inner = ThresholdAdmission(AdmissionPolicy(reject_over_cost=0.1))
        admission = PriorityExemptAdmission(inner, exempt_priority=3)
        manager = _manager(sim, admission)
        vip = make_query(cpu=100.0, io=100.0, priority=3)
        peasant = make_query(cpu=100.0, io=100.0, priority=1)
        assert admission.decide(vip, manager).outcome is AdmissionOutcome.ACCEPT
        assert (
            admission.decide(peasant, manager).outcome
            is AdmissionOutcome.REJECT
        )
