"""Tests for conflict-ratio, throughput-feedback and indicator admission."""

import pytest

from repro.admission.base import CompositeAdmission, PriorityExemptAdmission
from repro.admission.conflict_ratio import ConflictRatioAdmission
from repro.admission.indicators import (
    Indicator,
    IndicatorAdmission,
    default_indicators,
)
from repro.admission.threshold import ThresholdAdmission
from repro.admission.throughput_feedback import ThroughputFeedbackAdmission
from repro.core.interfaces import (
    AdmissionDecision,
    AdmissionOutcome,
    decisions_by,
)
from repro.core.manager import WorkloadManager
from repro.core.policy import AdmissionPolicy
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError

from tests.conftest import make_query


def _manager(sim, admission, **kwargs):
    kwargs.setdefault(
        "machine", MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=1024)
    )
    return WorkloadManager(sim, admission=admission, **kwargs)


class TestConflictRatio:
    def test_read_only_always_accepted(self, sim):
        admission = ConflictRatioAdmission()
        manager = _manager(sim, admission)
        decision = admission.decide(make_query(locks=0), manager.context)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_transactions_accepted_while_ratio_low(self, sim):
        admission = ConflictRatioAdmission(critical_ratio=1.3)
        manager = _manager(sim, admission)
        decision = admission.decide(make_query(locks=5), manager.context)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_transactions_delayed_when_ratio_critical(self, sim, monkeypatch):
        admission = ConflictRatioAdmission(critical_ratio=1.3)
        manager = _manager(sim, admission)
        monkeypatch.setattr(manager.engine, "conflict_ratio", lambda: 2.0)
        decision = admission.decide(make_query(locks=5), manager.context)
        assert decision.outcome is AdmissionOutcome.DELAY
        assert admission.suspensions == 1

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            ConflictRatioAdmission(critical_ratio=0.5)


class TestThroughputFeedback:
    def test_accepts_under_limit(self, sim):
        admission = ThroughputFeedbackAdmission(initial_mpl=4)
        manager = _manager(sim, admission)
        decision = admission.decide(make_query(), manager.context)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_delays_at_limit(self, sim):
        admission = ThroughputFeedbackAdmission(initial_mpl=1)
        manager = _manager(sim, admission)
        manager.submit(make_query(cpu=50.0, io=0.0))
        decision = admission.decide(make_query(), manager.context)
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
            manager.context.decisions, "ThroughputFeedbackAdmission", "set_mpl"
        )
        assert len(history) >= 4

    def test_direction_reverses_on_throughput_drop(self, sim):
        admission = ThroughputFeedbackAdmission(
            initial_mpl=5, interval=1.0, step=1, hysteresis=0.0
        )
        manager = _manager(sim, admission)
        admission.climber._last_throughput = 10.0
        admission.climber._completions = 1  # big drop
        admission.climber._adjust(manager.context)
        assert admission.climber._direction == -1
        assert admission.mpl == 4

    def test_mpl_clamped_to_bounds(self, sim):
        admission = ThroughputFeedbackAdmission(
            initial_mpl=1, min_mpl=1, max_mpl=3, interval=1.0, step=5
        )
        manager = _manager(sim, admission)
        admission.climber._adjust(manager.context)
        assert 1 <= admission.mpl <= 3

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ThroughputFeedbackAdmission(initial_mpl=0)
        with pytest.raises(ConfigurationError):
            ThroughputFeedbackAdmission(interval=0.0)


class TestIndicators:
    def test_accepts_when_quiet(self, sim):
        admission = IndicatorAdmission(protected_priority=3)
        manager = _manager(sim, admission)
        decision = admission.decide(make_query(priority=1), manager.context)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_low_priority_delayed_under_pressure(self, sim):
        admission = IndicatorAdmission(protected_priority=3)
        manager = _manager(
            sim,
            admission,
            machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=100),
        )
        manager.engine.buffer_pool.reserve("hog", 500.0)  # pressure 5.0
        decision = admission.decide(make_query(priority=1), manager.context)
        assert decision.outcome is AdmissionOutcome.DELAY
        assert admission.firings["memory_pressure"] == 1
        assert "memory_pressure" in decision.reason

    def test_high_priority_admitted_under_pressure(self, sim):
        admission = IndicatorAdmission(protected_priority=3)
        manager = _manager(sim, admission)
        manager.engine.buffer_pool.reserve("hog", 1e6)
        decision = admission.decide(make_query(priority=3), manager.context)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_custom_indicator(self, sim):
        always = Indicator("always", lambda ctx: 2.0, threshold=1.0)
        admission = IndicatorAdmission([always], protected_priority=5)
        manager = _manager(sim, admission)
        decision = admission.decide(make_query(priority=1), manager.context)
        assert decision.outcome is AdmissionOutcome.DELAY

    def test_default_indicator_set(self):
        names = {indicator.name for indicator in default_indicators()}
        assert names == {"memory_pressure", "conflict_ratio", "queue_length"}

    def test_empty_indicator_list_rejected(self):
        with pytest.raises(ValueError):
            IndicatorAdmission([])


class TestCombinators:
    def test_composite_first_non_accept_wins(self, sim):
        gate = ThresholdAdmission(AdmissionPolicy(reject_over_cost=1.0))
        composite = CompositeAdmission([gate, ConflictRatioAdmission()])
        manager = _manager(sim, composite)
        decision = composite.decide(make_query(cpu=5.0, io=5.0), manager.context)
        assert decision.outcome is AdmissionOutcome.REJECT

    def test_composite_accepts_when_all_pass(self, sim):
        composite = CompositeAdmission(
            [ThresholdAdmission(AdmissionPolicy()), ConflictRatioAdmission()]
        )
        manager = _manager(sim, composite)
        decision = composite.decide(make_query(), manager.context)
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
        assert admission.decide(vip, manager.context).outcome is AdmissionOutcome.ACCEPT
        assert (
            admission.decide(peasant, manager.context).outcome
            is AdmissionOutcome.REJECT
        )
