"""Unit tests for cost/MPL threshold admission control."""

from repro.admission.threshold import ThresholdAdmission
from repro.core.interfaces import AdmissionOutcome
from repro.core.manager import WorkloadManager
from repro.core.policy import AdmissionPolicy
from repro.engine.resources import MachineSpec

from tests.conftest import make_query


def _context(sim, admission):
    manager = WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096),
        admission=admission,
    )
    return manager, manager


class TestCostThreshold:
    def test_cheap_query_accepted(self, sim):
        admission = ThresholdAdmission(AdmissionPolicy(reject_over_cost=10.0))
        _, context = _context(sim, admission)
        decision = admission.decide(make_query(cpu=1.0, io=1.0), context)
        assert decision.outcome is AdmissionOutcome.ACCEPT

    def test_expensive_query_rejected(self, sim):
        admission = ThresholdAdmission(AdmissionPolicy(reject_over_cost=10.0))
        _, context = _context(sim, admission)
        decision = admission.decide(make_query(cpu=20.0, io=20.0), context)
        assert decision.outcome is AdmissionOutcome.REJECT
        assert admission.cost_rejections == 1
        assert "exceeds limit" in decision.reason

    def test_decision_uses_estimate_not_true_cost(self, sim):
        admission = ThresholdAdmission(AdmissionPolicy(reject_over_cost=10.0))
        _, context = _context(sim, admission)
        # true cost is huge but the optimizer thinks it is tiny
        sneaky = make_query(cpu=100.0, io=100.0, est_cpu=1.0, est_io=1.0)
        assert admission.decide(sneaky, context).outcome is AdmissionOutcome.ACCEPT

    def test_period_override_applies_at_night(self, sim):
        policy = AdmissionPolicy(
            reject_over_cost=5.0,
            period_overrides=((0.0, 100.0, 1000.0),),
            day_length=200.0,
        )
        admission = ThresholdAdmission(policy)
        _, context = _context(sim, admission)
        heavy = make_query(cpu=50.0, io=50.0)
        # "night" window: generous limit
        assert admission.decide(heavy, context).outcome is AdmissionOutcome.ACCEPT
        sim.run_until(150.0)  # "day"
        assert admission.decide(heavy, context).outcome is AdmissionOutcome.REJECT


class TestMplThreshold:
    def test_mpl_delays_when_full(self, sim):
        admission = ThresholdAdmission(
            AdmissionPolicy(max_concurrency=2, queue_when_full=True)
        )
        manager, context = _context(sim, admission)
        for _ in range(2):
            manager.submit(make_query(cpu=10.0, io=0.0))
        decision = admission.decide(make_query(cpu=1.0, io=0.0), context)
        assert decision.outcome is AdmissionOutcome.DELAY
        assert admission.mpl_delays == 1

    def test_mpl_rejects_when_configured(self, sim):
        admission = ThresholdAdmission(
            AdmissionPolicy(max_concurrency=1, queue_when_full=False)
        )
        manager, context = _context(sim, admission)
        manager.submit(make_query(cpu=10.0, io=0.0))
        decision = admission.decide(make_query(cpu=1.0, io=0.0), context)
        assert decision.outcome is AdmissionOutcome.REJECT
        assert admission.mpl_rejections == 1

    def test_per_workload_mpl_scoped_to_workload(self, sim):
        admission = ThresholdAdmission(
            per_workload={"bi": AdmissionPolicy(max_concurrency=1)}
        )
        manager, context = _context(sim, admission)
        bi_query = make_query(cpu=10.0, io=0.0, sql="bi:q")
        manager.submit(bi_query)
        # another BI query is delayed...
        blocked = make_query(cpu=1.0, io=0.0, sql="bi:q")
        blocked.workload_name = "bi"
        assert admission.decide(blocked, context).outcome is AdmissionOutcome.DELAY
        # ...but an OLTP query sails through
        other = make_query(cpu=1.0, io=0.0, sql="oltp:q")
        other.workload_name = "oltp"
        assert admission.decide(other, context).outcome is AdmissionOutcome.ACCEPT

    def test_no_policy_admits_at_any_load(self, sim):
        # what the Teradata model's bare gate does in every run
        admission = ThresholdAdmission()
        assert admission.default_policy == AdmissionPolicy()
        manager, context = _context(sim, admission)
        for _ in range(8):
            manager.submit(make_query(cpu=50.0, io=50.0))
        decision = admission.decide(make_query(cpu=500.0, io=500.0), context)
        assert decision.outcome is AdmissionOutcome.ACCEPT
        assert manager.running_count == 8
        assert (admission.cost_rejections, admission.mpl_delays) == (0, 0)


class TestEndToEnd:
    def test_mpl_queueing_preserves_work(self, sim):
        admission = ThresholdAdmission(AdmissionPolicy(max_concurrency=2))
        manager, _ = _context(sim, admission)
        for _ in range(6):
            manager.submit(make_query(cpu=0.5, io=0.0, sql="wl:q"))
        manager.run(horizon=1.0, drain=30.0)
        assert manager.metrics.stats_for("wl").completions == 6
        assert manager.metrics.stats_for("wl").rejections == 0
