"""Reads never write: the metrics model is an observer (paper §4.1).

Every read entry point — collector accessors, the engine's running
set, progress and speeds, the scheduler's queue, SLA evaluation, node
heartbeats, cluster rollups, the run summary and the decision-record
helper — must leave the run's digest and every collector's workload
list exactly as it found them.
"""

import pytest

from repro.core.interfaces import decisions_by
from repro.core.manager import FCFSDispatcher, WorkloadManager
from repro.core.sla import SLASet, response_time_sla
from repro.engine.simulator import Simulator
from repro.parallel.digest import dispatcher_digest, outcome_digest
from repro.scenarios import get_policy, get_scenario, run_scenario, summarize_run

from tests.conftest import make_query

SLAS = SLASet(
    [
        response_time_sla("oltp", average=0.5, p95=2.0),
        response_time_sla("bi", average=60.0, velocity=0.05),
        response_time_sla("ghost", p95=1.0),
    ]
)

MANAGER_READS = {
    "workloads": lambda m: m.metrics.workloads(),
    "mean_response_time": lambda m: m.metrics.stats_for("oltp").mean_response_time(),
    "overall_throughput": lambda m: m.metrics.stats_for("bi").overall_throughput(
        m.sim.now
    ),
    "running_queries": lambda m: m.engine.running_queries(),
    "progress_of": lambda m: [
        m.engine.progress_of(q.query_id) for q in m.engine.running_queries()
    ],
    "speed_of": lambda m: [
        m.engine.speed_of(q.query_id) for q in m.engine.running_queries()
    ],
    "queued_queries": lambda m: m.scheduler.queued_queries(),
    "stats_for": lambda m: m.metrics.stats_for("ghost"),
    "summary_line": lambda m: m.metrics.summary_line("bi", m.sim.now),
    "evaluate_sla": lambda m: m.metrics.evaluate_sla(SLAS.get("bi"), m.sim.now),
    "attainment": lambda m: m.metrics.attainment(SLAS, m.sim.now),
    "decisions_by": lambda m: decisions_by(m.decisions, action="reject"),
}

CLUSTER_READS = {
    "snapshot": lambda r: [node.snapshot() for node in r.dispatcher.nodes],
    "workloads": lambda r: r.dispatcher.metrics.workloads(),
    "rollup": lambda r: r.dispatcher.metrics.rollup("ghost"),
    "rollup_table": lambda r: r.dispatcher.metrics.rollup_table(r.dispatcher.sim.now),
    "timeline_lanes": lambda r: r.dispatcher.metrics.timeline_lanes(r.spec.horizon),
    "summarize_run": lambda r: (summarize_run(r), summarize_run(r)),
    "decisions_by": lambda r: decisions_by(
        r.dispatcher.metrics.decisions, "ClusterDispatcher", "health"
    ),
}


def _manager_with_queued_workload() -> WorkloadManager:
    """OLTP has completed; BI holds the only slot and waits in the queue,
    so it has no recorded outcome yet."""
    sim = Simulator(seed=3)
    manager = WorkloadManager(sim, scheduler=FCFSDispatcher(max_concurrency=1))
    for _ in range(2):
        manager.submit(make_query(cpu=0.1, io=0.0, sql="oltp:t"))
    sim.run_until(1.0)
    for _ in range(2):
        manager.submit(make_query(cpu=50.0, io=0.0, sql="bi:q"))
    sim.run_until(2.0)
    assert manager.metrics.workloads() == ["oltp"]
    return manager


@pytest.mark.parametrize("read", MANAGER_READS)
def test_manager_read_leaves_the_collector_alone(read):
    manager = _manager_with_queued_workload()
    digest = outcome_digest(manager)
    MANAGER_READS[read](manager)
    assert manager.metrics.workloads() == ["oltp"]
    assert outcome_digest(manager) == digest


@pytest.mark.parametrize("read", CLUSTER_READS)
def test_cluster_read_leaves_every_collector_alone(read):
    result = run_scenario(
        get_scenario("noisy_neighbor"), get_policy("baseline"), seed=42
    )
    collectors = [node.manager.metrics for node in result.dispatcher.nodes]
    assert len(collectors) == 4
    digest = dispatcher_digest(result.dispatcher)
    before = [metrics.workloads() for metrics in collectors]
    CLUSTER_READS[read](result)
    assert [metrics.workloads() for metrics in collectors] == before
    assert dispatcher_digest(result.dispatcher) == digest
