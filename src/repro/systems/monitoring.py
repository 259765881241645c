"""Monitoring facades in each commercial system's vocabulary (§4.1).

The paper describes a monitoring surface for every system — DB2's
*table functions* and event monitors, SQL Server's *performance
counters* and *dynamic management views*, Teradata Manager's *dashboard
workload monitor*.  Monitoring is deliberately outside the taxonomy
("typically a separate component in a DBMS"), but a faithful system
model still needs it: these facades project the manager's metrics and
engine state into the row shapes each product documents.

All functions are read-only and return plain lists of dicts so callers
can print, assert, or frame them however they like — the simulated
analogue of ``SELECT * FROM TABLE(WLM_...)`` / ``sys.dm_resource_...``.
Read-only is tested (``tests/test_metrics_purity.py``): a queued workload
with no outcome yet gets a row, and ``outcome_digest`` does not move.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.manager import WorkloadManager
from repro.workloads.traces import QueryLog


def _workload_rows(manager: WorkloadManager) -> List[str]:
    """Workloads visible to monitoring: with recorded outcomes, running
    in the engine, or waiting in queues."""
    names = set(manager.metrics.workloads())
    names.update(
        q.workload_name
        for q in manager.engine.running_queries()
        if q.workload_name
    )
    names.update(
        q.workload_name
        for q in manager.scheduler.queued_queries()
        if q.workload_name
    )
    return sorted(name for name in names if name != "<unassigned>")


# ----------------------------------------------------------------------
# IBM DB2: table functions (§4.1.1 C)
# ----------------------------------------------------------------------
def db2_workload_occurrences(manager: WorkloadManager) -> List[Dict[str, Any]]:
    """Rows like ``WLM_GET_WORKLOAD_OCCURRENCE_ACTIVITIES``: one row per
    query currently executing, with its workload and progress."""
    now = manager.sim.now
    rows = []
    for query in manager.engine.running_queries():
        rows.append(
            {
                "workload_name": query.workload_name or "SYSDEFAULTUSERWORKLOAD",
                "activity_id": query.query_id,
                "service_class": query.service_class or "SYSDEFAULTUSERCLASS",
                "elapsed_time": now - (query.start_time or now),
                "progress": manager.engine.progress_of(query.query_id),
                "priority": query.priority,
            }
        )
    return rows


def db2_service_class_stats(manager: WorkloadManager) -> List[Dict[str, Any]]:
    """Rows like ``WLM_GET_SERVICE_CLASS_STATS``: aggregate statistics
    per workload (completions, averages, rejections)."""
    now = manager.sim.now
    rows = []
    for workload in _workload_rows(manager):
        stats = manager.metrics.stats_for(workload)
        rows.append(
            {
                "service_superclass": workload,
                "coord_act_completed_total": stats.completions,
                "coord_act_rejected_total": stats.rejections,
                "coord_act_aborted_total": stats.kills + stats.aborts,
                "coord_act_lifetime_avg": stats.mean_response_time(),
                "concurrent_act_top": None,  # not tracked per workload
                "throughput_per_s": stats.overall_throughput(now),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Microsoft SQL Server: performance counters + DMVs (§4.1.2 D)
# ----------------------------------------------------------------------
def sqlserver_workload_group_stats(
    manager: WorkloadManager,
) -> List[Dict[str, Any]]:
    """Rows like ``sys.dm_resource_governor_workload_groups`` /
    the *Workload Group Stats* performance counter."""
    rows = []
    running = manager.engine.running_queries()
    for group in _workload_rows(manager):
        stats = manager.metrics.stats_for(group)
        active = sum(1 for q in running if q.workload_name == group)
        rows.append(
            {
                "group_name": group,
                "active_request_count": active,
                "total_request_count": stats.completions + stats.kills,
                "blocked_request_count": 0,  # locks are engine-internal
                "total_query_optimizations": stats.completions,
                "requests_completed_per_s": stats.overall_throughput(
                    manager.sim.now
                ),
            }
        )
    return rows


def sqlserver_resource_pool_stats(
    manager: WorkloadManager,
    group_to_pool: Optional[Dict[str, str]] = None,
) -> List[Dict[str, Any]]:
    """Rows like ``sys.dm_resource_governor_resource_pools``.

    ``group_to_pool`` maps workload groups to pools (from the governor
    config); without it every group is its own pool.
    """
    pools: Dict[str, Dict[str, Any]] = {}
    for query in manager.engine.running_queries():
        group = query.workload_name or "default"
        pool = (group_to_pool or {}).get(group, group)
        row = pools.setdefault(
            pool,
            {
                "pool_name": pool,
                "active_request_count": 0,
                "used_memory_mb": 0.0,
                "cpu_usage_share": 0.0,
            },
        )
        row["active_request_count"] += 1
        row["used_memory_mb"] += query.true_cost.memory_mb
        speed = manager.engine.speed_of(query.query_id)
        row["cpu_usage_share"] += speed * query.true_cost.cpu_seconds
    cpu_capacity = manager.engine.machine.cpu_capacity
    for row in pools.values():
        row["cpu_usage_share"] = min(1.0, row["cpu_usage_share"] / cpu_capacity)
    return sorted(pools.values(), key=lambda r: r["pool_name"])


# ----------------------------------------------------------------------
# Teradata Manager: dashboard workload monitor (§4.1.3 C)
# ----------------------------------------------------------------------
def teradata_dashboard(
    manager: WorkloadManager, log: QueryLog, collection_period: float = 60.0
) -> List[Dict[str, Any]]:
    """Rows mirroring the dashboard's documented columns: CPU usage per
    workload, active sessions, arrival rate in the last collection
    period, completions, response time, and delay-queue depth.

    Arrivals count ``log``'s terminal records plus the requests still
    in flight, so ``log`` must be attached to ``manager`` as a
    completion listener from the start of the run."""
    now = manager.sim.now
    running = manager.engine.running_queries()
    queued = manager.scheduler.queued_queries()
    rows = []
    for workload in _workload_rows(manager):
        stats = manager.metrics.stats_for(workload)
        active = [q for q in running if q.workload_name == workload]
        cpu_usage = sum(
            manager.engine.speed_of(q.query_id) * q.true_cost.cpu_seconds
            for q in active
        )
        window = min(collection_period, max(now, 1e-9))
        # arrivals = terminal records plus still-in-flight requests
        recent_arrivals = sum(
            1
            for record in log
            if record.workload == workload
            and record.submit_time >= now - collection_period
        ) + sum(
            1
            for q in running + list(queued)
            if q.workload_name == workload
            and q.submit_time is not None
            and q.submit_time >= now - collection_period
        )
        rows.append(
            {
                "workload_name": workload,
                "cpu_usage": min(1.0, cpu_usage / manager.engine.machine.cpu_capacity),
                "active_sessions": len(active),
                "arrival_rate": recent_arrivals / window,
                "completed_requests": stats.completions,
                "avg_response_time": stats.mean_response_time(),
                "delay_queue_depth": sum(
                    1 for q in queued if q.workload_name == workload
                ),
            }
        )
    return rows
