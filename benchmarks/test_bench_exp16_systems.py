"""EXP16 — the commercial system models behave per their Table 4 rows (§4.1).

Claim reproduced: applying the taxonomy to IBM DB2 WLM, SQL Server
Resource/Query Governor and Teradata ASM identifies exactly the
technique sets of Table 4.  Here the check is *behavioural*: each
configured model runs the same consolidation scenario, and the actions
it takes (identification, rejections, queueing, kills, demotions,
re-weighting) must exercise precisely its classified technique classes.
"""

import functools

from repro.core.policy import ThresholdAction, ThresholdKind
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.systems.db2 import (
    DB2Threshold,
    DB2Workload,
    DB2WorkloadManagerConfig,
)
from repro.systems.sqlserver import (
    ResourceGovernorConfig,
    ResourcePool,
    WorkloadGroup,
)
from repro.systems.teradata import (
    QueryResourceFilter,
    TeradataASMConfig,
    TeradataException,
    TeradataWorkloadDefinition,
)
from repro.workloads.generator import Scenario, bi_workload, oltp_workload

from benchmarks._scenarios import drive
from benchmarks.conftest import write_result

HORIZON = 90.0
MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)


def _scenario():
    return Scenario(
        specs=(
            oltp_workload(rate=8.0, priority=3, application="order-entry"),
            bi_workload(
                rate=0.3,
                priority=1,
                application="analytics",
                median_cpu=15.0,
                median_io=30.0,
            ),
        ),
        horizon=HORIZON,
    )


def _run(bundle, seed=161):
    sim = Simulator(seed=seed)
    manager = bundle.create_manager(sim, machine=MACHINE, control_period=2.0)
    drive(manager, _scenario(), drain=30.0)
    return manager


def run_db2():
    config = DB2WorkloadManagerConfig(
        workloads=(
            DB2Workload(name="orders", application="order-entry", priority=3),
            DB2Workload(name="analytics", application="analytics", priority=1),
        ),
        thresholds=(
            DB2Threshold(
                ThresholdKind.ESTIMATED_COST, 100.0, ThresholdAction.REJECT
            ),
            DB2Threshold(
                ThresholdKind.CONCURRENCY, 2, ThresholdAction.QUEUE,
                workload="analytics",
            ),
            DB2Threshold(
                ThresholdKind.ELAPSED_TIME, 25.0, ThresholdAction.DEMOTE
            ),
            DB2Threshold(
                ThresholdKind.ELAPSED_TIME, 80.0, ThresholdAction.STOP_EXECUTION
            ),
        ),
    )
    return _run(config.build())


def run_sqlserver():
    def classify(query, session):
        if session and session.attributes.application == "analytics":
            return "bi-group"
        return "app-group"

    config = ResourceGovernorConfig(
        pools=(
            ResourcePool("default"),
            ResourcePool("apps", min_percent=60.0),
            ResourcePool("bi", max_percent=25.0),
        ),
        groups=(
            WorkloadGroup("default", "default"),
            WorkloadGroup("app-group", "apps", importance=3),
            WorkloadGroup("bi-group", "bi", importance=1, group_max_requests=3),
        ),
        classifier=classify,
        query_governor_cost_limit=100.0,
    )
    return _run(config.build())


def run_teradata():
    config = TeradataASMConfig(
        definitions=(
            TeradataWorkloadDefinition(
                name="tactical", application="order-entry", priority=3,
                allocation_weight=4.0,
            ),
            TeradataWorkloadDefinition(
                name="analytics", application="analytics", priority=1,
                allocation_weight=1.0, throttle=2,
                exceptions=(
                    TeradataException(ThresholdKind.ELAPSED_TIME, 80.0, "abort"),
                ),
            ),
        ),
        resource_filters=(
            QueryResourceFilter("no-monsters", max_estimated_work=100.0),
        ),
    )
    return _run(config.build())


@functools.lru_cache(maxsize=1)
def results():
    out = {}
    for name, runner in (
        ("IBM DB2 WLM", run_db2),
        ("SQL Server Resource/Query Governor", run_sqlserver),
        ("Teradata ASM", run_teradata),
    ):
        manager = runner()
        workloads = {
            w: manager.metrics.stats_for(w).completions
            for w in manager.metrics.workloads()
        }
        out[name] = {
            "workloads": workloads,
            "rejections": manager.rejected_count,
            "kills": sum(
                manager.metrics.stats_for(w).kills
                for w in manager.metrics.workloads()
            ),
            "oltp_rt": manager.metrics.stats_for(
                "orders"
                if "orders" in workloads
                else "app-group"
                if "app-group" in workloads
                else "tactical"
            ).mean_response_time(),
        }
    return out


def test_exp16_commercial_models(benchmark):
    outcome = results()
    lines = ["EXP16 — commercial system models on a common scenario", ""]
    for name, row in outcome.items():
        workload_cells = ", ".join(
            f"{w}={n}" for w, n in sorted(row["workloads"].items())
        )
        lines.append(
            f"{name}:\n    completions: {workload_cells}\n"
            f"    rejections={row['rejections']} kills={row['kills']} "
            f"oltp rt={row['oltp_rt']:.3f}s"
        )
    write_result("exp16_systems", "\n".join(lines))

    db2 = outcome["IBM DB2 WLM"]
    # static characterization: both configured workloads identified
    assert db2["workloads"].get("orders", 0) > 300
    # threshold-based admission + execution control: at work
    assert db2["rejections"] >= 1
    sqlserver = outcome["SQL Server Resource/Query Governor"]
    assert sqlserver["workloads"].get("app-group", 0) > 300
    assert sqlserver["rejections"] >= 1
    # SQL Server's model has no kill action (Table 4)
    assert sqlserver["kills"] == 0
    teradata = outcome["Teradata ASM"]
    assert teradata["workloads"].get("tactical", 0) > 300
    assert teradata["rejections"] >= 1
    # every model keeps OLTP fast on the shared machine
    for name, row in outcome.items():
        assert row["oltp_rt"] < 0.5, name

    benchmark.pedantic(run_db2, rounds=1, iterations=1)
