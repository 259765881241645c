"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.admission import Indicator, IndicatorAdmission, PriorityExemptAdmission
from repro.admission.indicators import conflict_ratio, projected_memory
from repro.engine.executor import EngineConfig, ExecutionEngine
from repro.engine.query import (
    CostVector,
    PlanOperator,
    Query,
    QueryPlan,
    QueryState,
    StatementType,
)
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator


def make_query(
    cpu: float = 1.0,
    io: float = 1.0,
    mem: float = 10.0,
    locks: int = 0,
    rows: int = 100,
    priority: int = 1,
    est_cpu: Optional[float] = None,
    est_io: Optional[float] = None,
    est_rows: Optional[int] = None,
    statement_type: StatementType = StatementType.READ,
    sql: str = "",
    plan: Optional[QueryPlan] = None,
    workload: Optional[str] = None,
    session_id: Optional[int] = None,
) -> Query:
    """Build a query with matching estimates unless overridden."""
    true_cost = CostVector(cpu, io, mem, locks, rows)
    estimated = CostVector(
        cpu if est_cpu is None else est_cpu,
        io if est_io is None else est_io,
        mem,
        locks,
        rows if est_rows is None else est_rows,
    )
    query = Query(
        true_cost=true_cost,
        estimated_cost=estimated,
        statement_type=statement_type,
        priority=priority,
        sql=sql,
        workload_name=workload,
        session_id=session_id,
    )
    if plan is not None:
        query.plan = plan
    return query


def submitted_query(sim: Simulator, **kwargs) -> Query:
    """A query already moved to SUBMITTED at the current sim time."""
    query = make_query(**kwargs)
    query.transition(QueryState.SUBMITTED)
    query.submit_time = sim.now
    return query


def next_instant(sim: Simulator) -> int:
    """Fire every event of the next instant that has a live one, and the
    actions that instant defers.  Returns the number of events fired:
    0 when no live event is queued."""
    times = [time for time, _, event in sim._queue if not event.cancelled]
    if not times:
        return 0
    return sim.run_until(min(times))


def staged_plan(state_mb: float = 50.0) -> QueryPlan:
    """A 4-operator plan with a blocking sort in the middle."""
    return QueryPlan(
        operators=(
            PlanOperator("scan", 0.3, state_mb=0.0),
            PlanOperator("hash-build", 0.2, state_mb=state_mb, blocking=True),
            PlanOperator("join", 0.3, state_mb=state_mb / 2),
            PlanOperator("aggregate", 0.2, state_mb=state_mb / 4, blocking=True),
        )
    )


def capacity_gate() -> PriorityExemptAdmission:
    """``examples/ab_policy_lab.py``'s capacity-aware gate: projected
    memory and conflict ratio, priority-3 work exempt."""
    return PriorityExemptAdmission(
        IndicatorAdmission(
            [
                Indicator("projected_memory", projected_memory, 1.0),
                Indicator("conflict_ratio", conflict_ratio, 1.5),
            ]
        ),
        exempt_priority=3,
    )


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=7)


@pytest.fixture
def engine(sim: Simulator) -> ExecutionEngine:
    return ExecutionEngine(
        sim,
        MachineSpec(cpu_capacity=4.0, disk_capacity=4.0, memory_mb=4096.0),
        EngineConfig(hot_set_size=500),
    )
