"""Source guard: paths that no run reached stay deleted.

A *run* is a CLI verb, a ``ScenarioSpec``, a bench-gate or ledger row,
an experiment bench or an example.  The elastic provisioner with its
STANDBY lifecycle, trace-driven scenario tenants, the simulator's
live-event counter, the manager-level policy object, workload
registration and two zero-caller dispatcher reads were reachable from
none of them and were deleted.  So were the task queue's capability-tag
matching (no spec, verb, bench, ledger row or example set a tag) and
the options and readers no caller set.  The fair-share reference
allocator, which no engine calls, moved into ``tests/engine/fills.py``.
The PostgreSQL driver, reachable only through its "unavailable" path,
was deleted with its factory and environment variable; the real-DBMS
path's own copies of threshold admission, the constant throttle and the
outcome reduction gave way to ``AdmissionPolicy``, ``SleepThrottle``
and ``WorkloadStats`` (``tests/backends/test_equivalence.py`` keeps the
copies as oracles).  A node's speed stopped being a per-query throttle
the node re-asserted: it is the engine's speed ceiling, set at build and
by every degrade, so the re-assertion, the speed restore paths and the
engine's parallelism option went, as did the backend options no CLI
verb, gate row or ledger row sets.  A node's admission rejection became
final: the cluster's re-placement loop (the manager's rejection
interceptor, the dispatcher's per-query exclusions and the task queue's
blocked filter) went with its counter, reached by no run and wrong where
a test reached it.  The cluster is assembled in one place,
``arm_scenario``: the pass-through builder, its copy of the overload
SLAs, the dispatcher's second way to name a binding, its SLA and
session copies, and the DRAINING node state that no fault kind, verb or
spec reached went with it.  The record-and-replay A/B harness went
because two runs of one seed hand two policies the same requests, which
the replay did not: it lost every request the baseline left unfinished
and each query's plan and objects.  Every waiting request waits in one
``PartitionedQueue``, so the sockets keep only their decisions: no run
withdrew a single queued request through a scheduler, no seeded sweep
task succeeded on a retry, and the cluster's placement tally counted
what each node's ``placed_count`` already did.  A manager keeps one
outcome record per request: the query log every manager wrote beside
its metrics went, because only a few analyses read it and they attach
one as a completion listener; its window and throughput aggregations,
which nothing called, went with it.  A sweep task carries its function
and its arguments as values, so the runner registry with its one entry,
the name and ``module:function`` resolution, the warm-up imports of the
modules it named and the task's ``describe()``, which only a test read,
went.  A fault is a dispatcher action: the fault plan wrapper and the
injector between the scenario language and the dispatcher went with
the injector's reclaim counter, which only tests and one bench read.
The engine keeps two usage floats, so the per-resource busy-time
integral no run read went, and so did the per-session submission
counter only its own test read.  The capacity estimator and its gate
went because the gate was the indicator gate over projected memory and
conflict ratio, and its load classification changed no decision; the
indicator gate lost its own priority exemption to
``PriorityExemptAdmission``, and the engine kept one running-set read.
A restart re-runs the same request, so the query's clone went, and so
did the kill rule's resubmit switch, which restated its threshold's
action.  A node runs on the cluster's own simulator and names its one
random stream, the engine's lock stream, so the scoped simulator view
that renamed it went.  The engine shares the machine in virtual time
and no recorded instant needed the multi-round fill over a large
running set, so the numpy fill, the vector cutover with its vectorized
solve and pick, the per-event advance of every row, the kept ETA
vector, and the store's array mode (its tombstones, compaction and
live-row index, and the columns the clock replaced) went.  A backend
worker owns its pool slot, so the pool's idle queue, lock, borrowed map,
eager recycle, wait path and health-check knob went, with the pool
counters, pacer reads, plan listing and dict forms no run read.  Push
placement reads one eligible index, ranked by the placement policy, so
the policy's own index and the hook that bound it went.  A registry row
names its class and reads the class's features, so a row takes none.
An admission hold waits for a slot to free, so the queueing cost limit,
a hold that no exit or tick could ever release, went.
The cluster's front door takes an admission gate like a node's, so the
quota's private admit-and-release protocol and its own dispatcher
argument went, as did the utility throttle's window, which nothing read.
Every control is handed the manager it runs in, so the manager context,
which copied five of the manager's references and held the manager
itself, went with its importance forwarder.
Monitoring is outside the paper's taxonomy and the taxonomy tree already
holds the suspension roll-up, so the per-product monitoring facades and
the classifier's roll-up helper went.
Bringing one back means bringing the spec field and the measured cell
that reach it, and editing this list.
"""

import ast
import dataclasses
import inspect
import pathlib

import pytest

import repro
from repro.admission import IndicatorAdmission
from repro.backends import (
    ArrivalPacer,
    ClassFit,
    ComparisonReport,
    ConnectionPool,
    CostModel,
    MetricDelta,
    PolicyComparison,
    PoolStats,
    RunConfig,
    StatementPlan,
    plan_statements,
    run_sim_on_plan,
)
from repro.cli import build_parser
from repro.cluster import ClusterDispatcher, ClusterNode, FaultKind, NodeHealth, TaskQueue
from repro.cluster.dispatcher import BindingPolicy, PullBinding, TenantQuota
from repro.cluster.matcher import Matcher
from repro.cluster.placement import LoadRankedPlacement, PlacementPolicy
from repro.cluster.metrics import ClusterMetrics
from repro.core.interfaces import Scheduler
from repro.core.registry import ApproachDescriptor
from repro.core.manager import WorkloadManager
from repro.engine.executor import EngineConfig, ExecutionEngine
from repro.engine.simulator import Event, Simulator
from repro.execution.cancellation import KillRule
from repro.execution.throttling import UtilityThrottlingController
from repro.parallel import RunTask, run_tasks
from repro.scenarios import ScenarioResult
from repro.scheduling.queues import MultiQueueScheduler, TenantShareScheduler
from repro.workloads.traces import QueryLog

SRC = pathlib.Path(repro.__file__).parent

DELETED_NAMES = {
    "ElasticProvisioner",
    "STANDBY",
    "park",
    "TraceTenant",
    "trace_tenant",
    "pending_events",
    "_live_events",
    "WorkloadManagementPolicy",
    "WorkloadInfo",
    "register_workload",
    "workload_priority",
    "tenant_outstanding",
    "active_nodes",
    "TaskEntry",
    "capabilities",
    "requirements_fn",
    "RequirementsFn",
    "NO_REQUIREMENTS",
    "KeyFn",
    "key_fn",
    "class_shares",
    "default_share",
    "untenanted_mpl",
    "TenantFn",
    "tenant_of",
    "class_depths",
    "served_counts",
    "queued_entries",
    "allocate_fair_shares_reference",
    "ShareRequest",
    "Allocation",
    "PostgresBackend",
    "DSN_ENV",
    "REPRO_PG_DSN",
    "make_backend",
    "BackendUnavailable",
    "AdmissionGate",
    "_SimThrottle",
    "MetricSummary",
    "summarize_log",
    "max_parallelism",
    "_enforce_speed",
    "restore_speed",
    "restore_node_speed",
    "serviceable",
    "rejected_copy",
    "optimizer_sigma",
    "add_batch_hooks",
    "_batch_hooks",
    "_batch_enter",
    "_batch_exit",
    "reallocation_batch",
    "_defer_depth",
    "set_rejection_interceptor",
    "RejectionInterceptor",
    "_intercept_rejection",
    "ExclusionFn",
    "_excluded",
    "replacements",
    "admit_time",
    "build_cluster",
    "CLUSTER_SLAS",
    "make_binding",
    "drain_node",
    "DRAINING",
    "ab_compare",
    "schedule_replay",
    "record_run",
    "replay_queries",
    "arrival_schedule",
    "record_placement",
    "placement_decisions",
    "query_log",
    "TASK_REGISTRY",
    "register_task",
    "resolve_runner",
    "runner_module",
    "_warm_import",
    "run_scenario_task",
    "FaultPlan",
    "FaultInjector",
    "lost_and_resubmitted",
    "note_submission",
    "queries_submitted",
    "Resource",
    "rate_capacities",
    "instantaneous_usage",
    "SystemState",
    "CapacityEstimate",
    "CapacityEstimator",
    "CapacityAwareAdmission",
    "iter_running",
    "running_ids",
    "_ids_snapshot",
    "ScopedSimulator",
    "scoped",
    "fair_share_fill_vectorized",
    "_VECTOR_MIN_RUNNING",
    "_solve_vectorized",
    "_pick_vectorized",
    "_sync_all",
    "_etas",
    "_last_sync_time",
    "_cpu_usage",
    "_disk_usage",
    "_alloc_version",
    "live_indices",
    "slot_at",
    "live_qids",
    "_use_arrays",
    "_live_cache",
    "_COMPACT_MIN_DEAD",
    "_ARRAY_CAPACITY",
    "_FLOAT_COLS",
    "locks_pending",
    "speed_cap",
    "solve_weight",
    "_idle",
    "_Slot",
    "_borrowed",
    "_recycle",
    "health_check_every",
    "wait_timeouts",
    "_eligible_rank",
    "queue_over_cost",
    "tenant_quotas",
    "ManagerContext",
    "db2_workload_occurrences",
    "db2_service_class_stats",
    "sqlserver_workload_group_stats",
    "sqlserver_resource_pool_stats",
    "teradata_dashboard",
    "suspension_superclass",
}
DELETED_MODULES = (
    "cluster/elastic.py",
    "scenarios/trace.py",
    "backends/postgres.py",
    "cluster/scenario.py",
    "workloads/replay.py",
    "parallel/tasks.py",
    "cluster/failover.py",
    "core/capacity.py",
    "systems/monitoring.py",
)


def _names(node):
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        return [node.name]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name.rsplit(".", 1)[-1] for alias in node.names]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]  # __all__ entries, getattr probes
    return []


def test_no_deleted_name_is_defined_or_used_in_src():
    for path in SRC.rglob("*.py"):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            for name in _names(node):
                assert name not in DELETED_NAMES, f"{where}: {name} is back"


def test_no_src_module_reaches_through_a_context_to_its_manager():
    for path in SRC.rglob("*.py"):
        assert "context.manager" not in path.read_text(), path.relative_to(SRC).as_posix()


def test_deleted_modules_stay_deleted():
    for module in DELETED_MODULES:
        assert not (SRC / module).exists(), module


def test_an_event_carries_only_what_firing_and_cancelling_need():
    assert Event.__slots__ == ("time", "action", "label", "cancelled")


def test_removed_parameters_stay_removed():
    assert "policy" not in inspect.signature(WorkloadManager).parameters
    # the manager always builds its own engine
    assert "engine" not in inspect.signature(WorkloadManager).parameters
    # the query log is a listener a caller attaches, not a manager field
    assert "query_log" not in inspect.signature(WorkloadManager).parameters
    manager = WorkloadManager(Simulator(seed=1))
    assert not hasattr(manager, "policy") and not hasattr(manager, "query_log")
    assert "health" not in inspect.signature(ClusterNode).parameters
    assert [health.name for health in NodeHealth] == ["UP", "DOWN"]
    assert sorted(kind.name for kind in FaultKind) == ["CRASH", "DEGRADE", "RECOVER"]
    # one way to choose a binding; no SLA or session copies
    assert list(inspect.signature(ClusterDispatcher).parameters) == [
        "sim",
        "nodes",
        "placement",
        "binding",
        "max_queue_depth",
        "admission",
    ]
    assert "tags" not in inspect.signature(ClusterNode).parameters
    # every node is the standard machine, default engine, no node SLAs
    assert not {"machine", "engine_config", "slas"} & set(
        inspect.signature(ClusterNode).parameters
    )
    # a node's rejection is final: nothing filters who may take a request
    assert list(inspect.signature(Matcher).parameters) == ["nodes", "queue", "place"]
    assert list(inspect.signature(TaskQueue.match).parameters) == ["self"]
    assert list(inspect.signature(ClusterDispatcher.eligible_nodes).parameters) == ["self"]
    assert list(inspect.signature(ClusterDispatcher._eligible_for).parameters) == ["self"]
    # one cadence each, a module constant: no run set another
    assert not {"heartbeat_period", "control_period"} & set(
        inspect.signature(ClusterNode).parameters
    )
    assert "control_period" not in inspect.signature(ClusterDispatcher).parameters
    assert list(inspect.signature(TaskQueue).parameters) == ["shares", "key"]
    assert list(inspect.signature(TenantShareScheduler).parameters) == ["mpl", "shares"]
    assert list(inspect.signature(PullBinding).parameters) == ["taskqueue"]
    assert "tenant_of" not in inspect.signature(ClusterDispatcher).parameters
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "hot_set_size",
        "spill_penalty",
        "lock_stream",
    ]
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "mpl",
        "max_rate",
        "time_scale",
        "statement_timeout_s",
        "max_retries",
        "rows",
    ]
    assert list(inspect.signature(plan_statements).parameters) == [
        "specs",
        "horizon",
        "seed",
        "max_statements",
    ]
    assert list(inspect.signature(run_sim_on_plan).parameters) == [
        "plan",
        "mpl",
        "cost_model",
        "admission",
        "throttle",
    ]
    # the sockets are their decisions; the queue is a PartitionedQueue
    assert Scheduler.__abstractmethods__ == {"enqueue", "next_batch"}
    assert BindingPolicy.__abstractmethods__ == {"route", "on_capacity", "sweep"}
    # a seeded task fails the same way every time: one run, no retries
    assert list(inspect.signature(run_tasks).parameters) == ["tasks", "workers"]
    # a task is a function and its arguments, not a name to resolve
    assert [f.name for f in dataclasses.fields(RunTask)] == ["key", "fn", "params", "seed"]
    # the dispatcher arms a scenario's faults; a run keeps no injector
    assert "injector" not in {f.name for f in dataclasses.fields(ScenarioResult)}
    # the §2.3 exemption is PriorityExemptAdmission's, not the gate's
    assert list(inspect.signature(IndicatorAdmission).parameters) == ["indicators"]
    # a kill rule's disposition is its threshold's action
    assert "resubmit" not in {f.name for f in dataclasses.fields(KillRule)}
    # a control's context is the manager itself: no second object copies it
    assert not hasattr(manager, "context")
    # worker i owns pool slot i: no health-check knob, no waiting for a
    # slot, and a release always drops the slot's connection
    assert list(inspect.signature(ConnectionPool).parameters) == ["driver", "size"]
    assert list(inspect.signature(ConnectionPool.acquire).parameters) == ["self", "slot"]
    assert list(inspect.signature(ConnectionPool.release).parameters) == ["self", "slot"]
    # a row's features are its class's: a row declares none
    assert "features" not in inspect.signature(ApproachDescriptor).parameters
    assert "window" not in inspect.signature(UtilityThrottlingController).parameters


def test_removed_readers_stay_removed():
    # names that live on elsewhere as strings, so the AST guard cannot hold them
    assert not hasattr(MultiQueueScheduler, "queue_length")
    assert not hasattr(RunTask, "describe")
    sim = Simulator(seed=1)
    # one dispatch loop: no single-event stepper, no never-read run flag
    assert not hasattr(Simulator, "step") and not hasattr(sim, "_running")
    # a node names its lock stream: no scoped view renames it
    assert not hasattr(Simulator, "scoped")
    dispatcher = ClusterDispatcher(
        sim, [ClusterNode(sim, name="n0")], admission=TenantQuota({"a": 1})
    )
    assert not hasattr(dispatcher, "quota_rejections")
    # the front door speaks the node tier's admission vocabulary: no
    # quota protocol of its own beside ``decide``/``notify_exit``
    assert not hasattr(dispatcher, "quota")
    assert not hasattr(TenantQuota, "admit") and not hasattr(TenantQuota, "release")
    # the utility throttle keeps no window it never read
    assert not hasattr(UtilityThrottlingController(), "window")
    # each node counts its own placements
    assert not hasattr(ClusterMetrics(sim, []), "placements")
    # the engine keeps two usage floats, no per-resource bookkeeping
    assert not hasattr(ExecutionEngine(sim), "resources")
    # a manager keeps its metrics, no query log; the log aggregates
    # nothing (both names live on: WorkloadStats.throughput and the
    # phase detector's ``windows`` argument)
    assert not hasattr(WorkloadManager(sim), "query_log")
    assert not hasattr(QueryLog, "windows") and not hasattr(QueryLog, "throughput")
    # the dispatcher's eligible index is the only one push placement reads
    assert not hasattr(PlacementPolicy, "bind")
    assert not hasattr(LoadRankedPlacement, "_rank")
    # the pool counts what a report reads; the backend keeps no dict forms
    # (``acquired``, ``released``, ``elapsed``, ``as_dict`` live on elsewhere)
    assert [f.name for f in dataclasses.fields(PoolStats)] == [
        "created",
        "recycled",
        "health_checks",
        "health_failures",
    ]
    unreached = {
        PoolStats: ("as_dict",),
        ArrivalPacer: ("started", "elapsed"),
        StatementPlan: ("workloads",),
        ClassFit: ("as_dict",),
        CostModel: ("as_dict", "from_dict"),
        MetricDelta: ("relative", "as_dict"),
        PolicyComparison: ("as_dict",),
        ComparisonReport: ("as_dict",),
    }
    for cls, names in unreached.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name} is back"


def test_the_backend_verb_has_no_driver_option(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["backend", "run", "--backend", "sqlite"])
    assert "unrecognized arguments: --backend sqlite" in capsys.readouterr().err
