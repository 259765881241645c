#!/usr/bin/env python3
"""Configure the three Table 4 systems and watch them manage the same mix.

Each commercial model (§4.1) is configured in its own vocabulary —
DB2 workloads/thresholds, SQL Server pools/groups/classifier functions,
Teradata filters/throttles/workload definitions — compiled onto the
framework, and run against an identical OLTP + BI consolidation
scenario.  The Teradata run additionally demonstrates the Workload
Analyzer: it mines the DB2 run's query log (as a stand-in DBQL) and
prints recommended workload definitions.

Run:  python examples/commercial_systems.py
"""

from repro import MachineSpec, Simulator
from repro.core.policy import ThresholdAction, ThresholdKind
from repro.systems.db2 import DB2Threshold, DB2Workload, DB2WorkloadManagerConfig
from repro.systems.sqlserver import (
    ResourceGovernorConfig,
    ResourcePool,
    WorkloadGroup,
)
from repro.systems.teradata import (
    QueryResourceFilter,
    TeradataASMConfig,
    TeradataWorkloadAnalyzer,
    TeradataWorkloadDefinition,
)
from repro.workloads.generator import Scenario, bi_workload, oltp_workload
from repro.workloads.traces import QueryLog

HORIZON = 90.0
MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)


def scenario() -> Scenario:
    return Scenario(
        specs=(
            oltp_workload(rate=8.0, priority=3, application="order-entry"),
            bi_workload(rate=0.25, priority=1, application="analytics"),
        ),
        horizon=HORIZON,
    )


def run(bundle) -> QueryLog:
    sim = Simulator(seed=99)
    manager = bundle.create_manager(sim, machine=MACHINE, control_period=2.0)
    log = QueryLog()
    manager.add_completion_listener(log.record_query)
    generator = scenario().build(sim, manager.submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    manager.run(HORIZON, drain=30.0)
    print(f"\n=== {bundle.name} ===")
    for workload in sorted(manager.metrics.workloads()):
        print(" ", manager.metrics.summary_line(workload, sim.now))
    print(f"  admission rejections: {manager.rejected_count}")
    return log


def main() -> None:
    db2 = DB2WorkloadManagerConfig(
        workloads=(
            DB2Workload(name="orders", application="order-entry", priority=3),
            DB2Workload(name="analytics", application="analytics", priority=1),
        ),
        thresholds=(
            DB2Threshold(ThresholdKind.ESTIMATED_COST, 150.0, ThresholdAction.REJECT),
            DB2Threshold(
                ThresholdKind.CONCURRENCY, 2, ThresholdAction.QUEUE,
                workload="analytics",
            ),
            DB2Threshold(ThresholdKind.ELAPSED_TIME, 30.0, ThresholdAction.DEMOTE),
        ),
    )
    db2_log = run(db2.build())

    sqlserver = ResourceGovernorConfig(
        pools=(
            ResourcePool("default"),
            ResourcePool("apps", min_percent=60.0),
            ResourcePool("bi", max_percent=25.0),
        ),
        groups=(
            WorkloadGroup("default", "default"),
            WorkloadGroup("app-group", "apps", importance=3),
            WorkloadGroup("bi-group", "bi", importance=1, group_max_requests=2),
        ),
        classifier=lambda query, session: (
            "bi-group"
            if session and session.attributes.application == "analytics"
            else "app-group"
        ),
        query_governor_cost_limit=150.0,
    )
    run(sqlserver.build())

    teradata = TeradataASMConfig(
        definitions=(
            TeradataWorkloadDefinition(
                name="tactical", application="order-entry",
                priority=3, allocation_weight=4.0,
            ),
            TeradataWorkloadDefinition(
                name="analytics", application="analytics",
                priority=1, allocation_weight=1.0, throttle=2,
            ),
        ),
        resource_filters=(
            QueryResourceFilter("no-monsters", max_estimated_work=150.0),
        ),
    )
    run(teradata.build())

    print("\n=== Teradata Workload Analyzer over the recorded query log ===")
    analyzer = TeradataWorkloadAnalyzer(min_group_size=10)
    for recommendation in analyzer.analyze(db2_log):
        print(
            f"  recommend workload {recommendation.name!r}: "
            f"{recommendation.record_count} queries, mean work "
            f"{recommendation.mean_work:.2f}s, priority "
            f"{recommendation.suggested_priority}, goal "
            f"{recommendation.response_time_goal:.0f}s"
        )


if __name__ == "__main__":
    main()
