"""Scenario-level integration tests across the whole library."""

import pytest

from repro import (
    MachineSpec,
    Simulator,
    SLASet,
    WorkloadManager,
    mixed_scenario,
    response_time_sla,
)
from repro.admission.base import PriorityExemptAdmission
from repro.admission.threshold import ThresholdAdmission
from repro.core.policy import AdmissionPolicy
from repro.execution.throttling import QueryThrottlingController
from repro.scheduling.queues import MultiQueueScheduler
from repro.workloads.traces import QueryLog


def _machine():
    return MachineSpec(cpu_capacity=4.0, disk_capacity=4.0, memory_mb=4096.0)


def run_mix(seed=42, horizon=60.0, manager_kwargs=None, log=None):
    sim = Simulator(seed=seed)
    manager = WorkloadManager(sim, machine=_machine(), **(manager_kwargs or {}))
    if log is not None:
        manager.add_completion_listener(log.record_query)
    scenario = mixed_scenario(horizon=horizon, oltp_rate=8.0, bi_rate=0.1)
    generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    manager.run(horizon, drain=horizon)
    return sim, manager, generator


class TestUncontrolledBaseline:
    def test_mix_completes_and_is_deterministic(self):
        _, first, _ = run_mix(seed=5)
        _, second, _ = run_mix(seed=5)
        stats_a = first.metrics.stats_for("oltp")
        stats_b = second.metrics.stats_for("oltp")
        assert stats_a.completions == stats_b.completions
        assert stats_a.mean_response_time() == stats_b.mean_response_time()
        assert stats_a.completions > 200

    def test_different_seeds_differ(self):
        _, first, _ = run_mix(seed=1)
        _, second, _ = run_mix(seed=2)
        assert (
            first.metrics.stats_for("oltp").mean_response_time()
            != second.metrics.stats_for("oltp").mean_response_time()
        )

    def test_all_workloads_present(self):
        sim, manager, generator = run_mix()
        workloads = set(manager.metrics.workloads())
        assert {"oltp", "reports"} <= workloads
        # BI arrivals are rare and heavy; some may still be running at
        # the end of the window, but they were generated and admitted
        seen = set(workloads) | {
            q.workload_name for q in manager.engine.running_queries()
        }
        assert "bi" in seen or manager.queued_count > 0


class TestManagedStack:
    def test_full_stack_runs(self):
        """Admission + multi-queue scheduling + throttling together."""
        admission = PriorityExemptAdmission(
            ThresholdAdmission(AdmissionPolicy(reject_over_cost=500.0)),
            exempt_priority=3,
        )
        scheduler = MultiQueueScheduler(
            global_mpl=32, per_workload_mpl={"bi": 2, "reports": 4}
        )
        throttler = QueryThrottlingController(
            velocity_goal=0.7, large_query_work=20.0
        )
        slas = SLASet(
            [
                response_time_sla("oltp", average=0.5, importance=3),
                response_time_sla("reports", average=120.0, importance=2),
            ]
        )
        _, manager, _ = run_mix(
            manager_kwargs=dict(
                admission=admission,
                scheduler=scheduler,
                execution_controllers=[throttler],
                slas=slas,
            )
        )
        oltp = manager.metrics.stats_for("oltp")
        assert oltp.completions > 200
        assert oltp.mean_response_time() < 0.5

    def test_managed_beats_unmanaged_for_oltp(self):
        _, unmanaged, _ = run_mix(seed=9)
        scheduler = MultiQueueScheduler(per_workload_mpl={"bi": 1, "reports": 2})
        _, managed, _ = run_mix(
            seed=9, manager_kwargs=dict(scheduler=scheduler)
        )
        unmanaged_p95 = unmanaged.metrics.stats_for("oltp").percentile_response_time(95)
        managed_p95 = managed.metrics.stats_for("oltp").percentile_response_time(95)
        assert managed_p95 <= unmanaged_p95

    def test_query_log_covers_submissions(self):
        log = QueryLog()
        _, manager, generator = run_mix(log=log)
        # every generated query eventually reached a terminal state or
        # is still queued/running at the end of the window
        logged = len(log)
        outstanding = manager.outstanding_work()
        assert logged + outstanding >= generator.generated_count - 5


class TestResourceAccounting:
    def test_no_resource_leaks_after_drain(self):
        _, manager, _ = run_mix()
        if manager.running_count == 0:
            assert manager.engine.buffer_pool.committed_mb == pytest.approx(0.0)
            assert manager.engine.lock_manager.locks_held() == 0

    def test_velocity_bounded(self):
        _, manager, _ = run_mix()
        for workload in manager.metrics.workloads():
            stats = manager.metrics.stats_for(workload)
            for velocity in stats.velocities:
                assert 0.0 <= velocity <= 1.0
