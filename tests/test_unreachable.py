"""Source guard: paths that no run reached stay deleted.

A *run* is a CLI verb, a ``ScenarioSpec``, a bench-gate or ledger row,
an experiment bench or an example.  The elastic provisioner with its
STANDBY lifecycle, trace-driven scenario tenants, the simulator's
live-event counter, the manager-level policy object, workload
registration and two zero-caller dispatcher reads were reachable from
none of them and were deleted.  So were the task queue's capability-tag
matching (no spec, verb, bench, ledger row or example set a tag) and
the options and readers no caller set.  Bringing one back means bringing
the spec field and the measured cell that reach it, and editing this
list.
"""

import ast
import dataclasses
import inspect
import pathlib

import repro
from repro.cluster import ClusterDispatcher, ClusterNode, NodeHealth, TaskQueue
from repro.cluster.dispatcher import PullBinding, make_binding
from repro.core.interfaces import ManagerContext
from repro.core.manager import WorkloadManager
from repro.engine.simulator import Event, Simulator
from repro.scheduling.queues import MultiQueueScheduler, TenantShareScheduler

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
}
DELETED_MODULES = ("cluster/elastic.py", "scenarios/trace.py")


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


def test_deleted_modules_stay_deleted():
    for module in DELETED_MODULES:
        assert not (SRC / module).exists(), module


def test_an_event_carries_only_what_firing_and_cancelling_need():
    assert Event.__slots__ == ("time", "action", "label", "cancelled")


def test_removed_parameters_stay_removed():
    assert "policy" not in inspect.signature(WorkloadManager).parameters
    assert "policy" not in {f.name for f in dataclasses.fields(ManagerContext)}
    assert "health" not in inspect.signature(ClusterNode).parameters
    assert [health.name for health in NodeHealth] == ["UP", "DRAINING", "DOWN"]
    assert "tags" not in inspect.signature(ClusterNode).parameters
    assert list(inspect.signature(TaskQueue).parameters) == ["shares", "key"]
    assert list(inspect.signature(TenantShareScheduler).parameters) == ["mpl", "shares"]
    assert list(inspect.signature(make_binding).parameters) == ["dispatch"]
    assert list(inspect.signature(PullBinding).parameters) == ["taskqueue"]
    assert "tenant_of" not in inspect.signature(ClusterDispatcher).parameters


def test_removed_readers_stay_removed():
    # names that live on elsewhere as strings, so the AST guard cannot hold them
    assert not hasattr(MultiQueueScheduler, "queue_length")
    sim = Simulator(seed=1)
    dispatcher = ClusterDispatcher(sim, [ClusterNode(sim, name="n0")], tenant_quotas={"a": 1})
    assert not hasattr(dispatcher, "quota_rejections")
