"""Tests for suspend/resume planning and the controller."""

import pytest

from repro.core.interfaces import decisions_by
from repro.core.manager import FCFSDispatcher, WorkloadManager
from repro.engine.query import PlanOperator, QueryPlan, QueryState
from repro.engine.resources import MachineSpec
from repro.execution.suspend_resume import (
    SuspendResumeController,
    SuspendStrategy,
    plan_suspension,
)

from tests.conftest import make_query, staged_plan


class TestPlanning:
    def _query(self):
        return make_query(cpu=100.0, io=0.0, plan=staged_plan(state_mb=200.0))

    def test_dump_state_keeps_progress(self):
        query = self._query()
        plan = plan_suspension(query, 0.6, SuspendStrategy.DUMP_STATE)
        assert plan.resume_progress == pytest.approx(0.6)
        assert plan.suspend_cost > 0
        # dump and read are symmetric; no re-execution
        assert plan.resume_cost == pytest.approx(plan.suspend_cost)

    def test_go_back_cheap_suspend_expensive_resume(self):
        query = self._query()
        plan = plan_suspension(query, 0.6, SuspendStrategy.GO_BACK)
        assert plan.suspend_cost == 0.0
        # falls back to the earliest stateful operator's start (0.3)
        assert plan.resume_progress == pytest.approx(0.3)
        assert plan.resume_cost == pytest.approx(0.3 * 100.0)

    def test_paper_tradeoff_goback_vs_dumpstate(self):
        """GoBack: lower suspend cost, higher resume cost than DumpState."""
        query = self._query()
        go_back = plan_suspension(query, 0.6, SuspendStrategy.GO_BACK)
        dump = plan_suspension(query, 0.6, SuspendStrategy.DUMP_STATE)
        assert go_back.suspend_cost < dump.suspend_cost
        assert go_back.resume_cost > dump.resume_cost

    def test_optimal_never_worse_than_either(self):
        query = self._query()
        optimal = plan_suspension(query, 0.6, SuspendStrategy.OPTIMAL)
        go_back = plan_suspension(query, 0.6, SuspendStrategy.GO_BACK)
        dump = plan_suspension(query, 0.6, SuspendStrategy.DUMP_STATE)
        assert optimal.total_overhead <= go_back.total_overhead + 1e-9
        assert optimal.total_overhead <= dump.total_overhead + 1e-9

    def test_optimal_respects_suspend_budget(self):
        query = self._query()
        budget = 1.0
        plan = plan_suspension(
            query, 0.6, SuspendStrategy.OPTIMAL, suspend_cost_budget=budget
        )
        assert plan.suspend_cost <= budget + 1e-9

    def test_unsatisfiable_budget_falls_back_to_goback(self):
        query = make_query(
            cpu=10.0,
            io=0.0,
            plan=QueryPlan(
                operators=(
                    PlanOperator("hash", 0.5, state_mb=1e6, blocking=True),
                    PlanOperator("probe", 0.5, state_mb=0.0),
                )
            ),
        )
        plan = plan_suspension(
            query, 0.6, SuspendStrategy.OPTIMAL, suspend_cost_budget=0.0
        )
        assert plan.suspend_cost == 0.0

    def test_early_progress_little_state(self):
        query = self._query()
        plan = plan_suspension(query, 0.1, SuspendStrategy.DUMP_STATE)
        # only operator 0 active; it has no state
        assert plan.suspend_cost == 0.0
        assert plan.resume_progress == pytest.approx(0.1)

    def test_invalid_progress(self):
        with pytest.raises(ValueError):
            plan_suspension(self._query(), 1.5)


class TestController:
    def _build(self, sim, strategy=SuspendStrategy.DUMP_STATE):
        controller = SuspendResumeController(
            protected_priority=3,
            max_victim_priority=1,
            strategy=strategy,
            min_victim_work=1.0,
            resume_when_idle_below=2,
        )
        manager = WorkloadManager(
            sim,
            machine=MachineSpec(cpu_capacity=1, disk_capacity=4, memory_mb=4096),
            scheduler=FCFSDispatcher(),
            execution_controllers=[controller],
            control_period=0.5,
        )
        return controller, manager

    def test_victim_suspended_under_pressure(self, sim):
        controller, manager = self._build(sim)
        victim = make_query(cpu=50.0, io=0.0, priority=1, plan=staged_plan())
        manager.submit(victim)
        sim.run_until(18.0)  # victim at ~36% progress
        vip = make_query(cpu=5.0, io=0.0, priority=3)
        manager.submit(vip)  # running slowly -> pressure
        manager.run(horizon=22.0, drain=0.0)
        assert victim.state in (QueryState.SUSPENDED, QueryState.RUNNING)
        # within a few ticks the suspension must have happened
        assert decisions_by(
            manager.decisions, "SuspendResumeController", "suspend"
        )
        assert victim.suspend_count >= 1

    def test_suspension_speeds_up_protected_work(self, sim):
        controller, manager = self._build(sim)
        victim = make_query(cpu=500.0, io=0.0, priority=1, plan=staged_plan())
        manager.submit(victim)
        sim.run_until(10.0)
        vip = make_query(cpu=5.0, io=0.0, priority=3)
        manager.submit(vip)
        manager.run(horizon=30.0, drain=0.0)
        assert vip.state is QueryState.COMPLETED
        # vip held the whole machine once the victim was evicted: its
        # response time is near nominal despite the huge victim
        assert vip.response_time < 9.0

    def test_victim_resumed_when_quiet(self, sim):
        controller, manager = self._build(sim)
        victim = make_query(cpu=20.0, io=0.0, priority=1, plan=staged_plan())
        manager.submit(victim)
        sim.run_until(5.0)
        vip = make_query(cpu=2.0, io=0.0, priority=3)
        manager.submit(vip)
        manager.run(horizon=60.0, drain=60.0)
        # vip done, victim resumed and eventually completed
        assert vip.state is QueryState.COMPLETED
        assert victim.state is QueryState.COMPLETED
        assert decisions_by(
            manager.decisions, "SuspendResumeController", "resume"
        )

    def test_nearly_done_victims_spared(self, sim):
        controller, manager = self._build(sim)
        victim = make_query(cpu=10.0, io=0.0, priority=1, plan=staged_plan())
        manager.submit(victim)
        sim.run_until(9.5)  # 95% done; remaining work 0.5 < min_victim_work
        vip = make_query(cpu=5.0, io=0.0, priority=3)
        manager.submit(vip)
        manager.run(horizon=12.0, drain=30.0)
        assert victim.state is QueryState.COMPLETED
        assert not decisions_by(
            manager.decisions, "SuspendResumeController", "suspend"
        )
