"""The decision record: one ``ControlEvent`` list per manager and cluster.

Every controller that used to keep a private history list appends to
``ManagerContext.decisions`` (node tier) or ``ClusterMetrics.decisions``
(cluster tier) instead; a rejection that sticks keeps its reason.
"""

import ast
import pathlib

import pytest

import repro
from repro.admission.base import CompositeAdmission
from repro.admission.threshold import ThresholdAdmission
from repro.admission.throughput_feedback import ThroughputFeedbackAdmission
from repro.cluster import (
    ClusterDispatcher,
    ClusterNode,
    FaultInjector,
    FaultPlan,
    NodeHealth,
    make_policy,
)
from repro.control.controllers import PIController
from repro.control.loop import AutonomicLoop
from repro.core.interfaces import ControlEvent, decisions_by
from repro.core.manager import WaitQueue, WorkloadManager
from repro.core.policy import AdmissionPolicy, Threshold, ThresholdAction, ThresholdKind
from repro.core.sla import SLASet, response_time_sla
from repro.engine.query import QueryState, StatementType
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.execution.cancellation import QueryKillController, elapsed_time_kill
from repro.execution.economic import EconomicResourceAllocator
from repro.execution.krompass import FuzzyExecutionController
from repro.execution.reprioritization import PriorityAgingController
from repro.execution.suspend_resume import SuspendResumeController, SuspendStrategy
from repro.execution.throttling import (
    QueryThrottlingController,
    UtilityThrottlingController,
)
from repro.scheduling.mpl import FeedbackMpl
from repro.scheduling.utility import ServiceClassConfig, UtilityScheduler
from repro.systems.sqlserver import ResourcePool, ResourcePoolController
from repro.systems.teradata import ObjectAccessFilter, TeradataASMConfig

from tests.conftest import make_query


def _manager(sim, cpu=2, **kwargs):
    machine = MachineSpec(cpu_capacity=cpu, disk_capacity=4, memory_mb=4096)
    return WorkloadManager(sim, machine=machine, **kwargs)


def _hog(manager, horizon, **query):
    manager.submit(make_query(io=0.0, **query))
    manager.run(horizon=horizon, drain=0.0)
    return manager.context.decisions


# ----------------------------------------------------------------------
# (a) every emitter: drive it until it acts, read the one log
# ----------------------------------------------------------------------
def _feedback_admission(sim):
    gate = ThroughputFeedbackAdmission(initial_mpl=2, interval=1.0)
    return gate, "mpl_history", _hog(_manager(sim, admission=gate), 3.0, cpu=1.0)


def _feedback_mpl(sim):
    mpl = FeedbackMpl(initial=2, interval=1.0)
    manager = _manager(sim, scheduler=WaitQueue(mpl))
    return mpl, "history", _hog(manager, 3.0, cpu=1.0)


def _utility_scheduler(sim):
    scheduler = UtilityScheduler(
        [ServiceClassConfig("gold", response_time_goal=1.0)], replan_interval=1.0
    )
    return scheduler, "plan_history", _hog(_manager(sim, scheduler=scheduler), 3.0)


def _fuzzy(sim):
    fuzzy = FuzzyExecutionController(long_running_onset=2.0, long_running_full=10.0)
    manager = _manager(sim, execution_controllers=[fuzzy])
    return fuzzy, "actions", _hog(manager, 60.0, cpu=2000.0)


def _kill(sim):
    killer = QueryKillController([elapsed_time_kill(limit=5.0)])
    manager = _manager(sim, execution_controllers=[killer])
    return killer, "kill_events", _hog(manager, 7.0, cpu=100.0)


def _aging(sim):
    aging = PriorityAgingController(
        thresholds=[Threshold(ThresholdKind.ELAPSED_TIME, 2.0, ThresholdAction.DEMOTE)]
    )
    manager = _manager(sim, execution_controllers=[aging])
    return aging, "demotion_events", _hog(manager, 3.0, cpu=60.0)


def _suspend_resume(sim):
    controller = SuspendResumeController(
        strategy=SuspendStrategy.DUMP_STATE,
        min_victim_work=1.0,
        resume_when_idle_below=2,
    )
    manager = _manager(
        sim, cpu=1, scheduler=WaitQueue(), execution_controllers=[controller]
    )
    manager.submit(make_query(cpu=50.0, io=0.0, priority=1))
    sim.run_until(5.0)
    manager.submit(make_query(cpu=5.0, io=0.0, priority=3))  # pressure, then quiet
    manager.run(horizon=40.0, drain=0.0)
    return controller, manager.context.decisions


def _suspend(sim):
    controller, decisions = _suspend_resume(sim)
    return controller, "suspend_events", decisions_by(decisions, action="suspend")


def _resume(sim):
    controller, decisions = _suspend_resume(sim)
    return controller, "resume_events", decisions_by(decisions, action="resume")


def _utility_throttling(sim):
    throttle = UtilityThrottlingController()
    manager = _manager(sim, execution_controllers=[throttle])
    return throttle, "level_history", _hog(manager, 3.0, cpu=10.0, sql="prod:q")


def _query_throttling(sim):
    throttle = QueryThrottlingController(velocity_goal=0.9, large_query_work=50.0)
    manager = _manager(sim, cpu=1, execution_controllers=[throttle])
    manager.submit(make_query(cpu=300.0, io=0.0, priority=1))
    return throttle, "level_history", _hog(manager, 5.0, cpu=100.0, priority=3)


def _economic(sim):
    allocator = EconomicResourceAllocator(importance={"a": 1})
    manager = _manager(sim, execution_controllers=[allocator])
    return allocator, "allocation_history", _hog(manager, 2.0, cpu=10.0, sql="a:q")


def _autonomic(sim):
    loop = AutonomicLoop()
    manager = _manager(
        sim,
        cpu=1,
        execution_controllers=[loop],
        slas=SLASet([response_time_sla("gold", average=2.0, importance=4)]),
        weight_fn=lambda q: 1.0,
    )
    manager.submit(make_query(cpu=500.0, io=0.0, priority=1, sql="adhoc:hog"))
    for index in range(5):
        sim.schedule_at(
            6.0 + index * 2.0,
            lambda: manager.submit(
                make_query(cpu=1.5, io=0.0, priority=4, sql="gold:q")
            ),
        )
    manager.run(horizon=20.0, drain=0.0)
    return loop, "decisions", manager.context.decisions


def _resource_pools(sim):
    pools = ResourcePoolController(
        [ResourcePool("apps", min_percent=50.0)], {"app-group": "apps"}
    )
    manager = _manager(sim, execution_controllers=[pools])
    return pools, "share_history", _hog(manager, 2.0, cpu=10.0, workload="app-group")


def _cluster(sim, **kwargs):
    nodes = [ClusterNode(sim, name=f"n{i}", mpl=2, max_outstanding=2) for i in range(2)]
    return ClusterDispatcher(sim, nodes, placement=make_policy("least"), **kwargs)


def _faults(sim):
    dispatcher = _cluster(sim)
    injector = FaultInjector(dispatcher)
    injector.arm(FaultPlan.node_kill("n1", at=1.0, recover_at=2.0))
    sim.run_until(3.0)
    return injector, "fired", dispatcher.metrics.decisions


def _health(sim):
    dispatcher = _cluster(sim)
    dispatcher.degrade_node(dispatcher.node("n1"), 0.5)
    decisions = decisions_by(dispatcher.metrics.decisions, "ClusterDispatcher")
    return dispatcher.metrics, "health_changes", decisions


EMITTERS = {
    "ThroughputFeedbackAdmission": _feedback_admission,
    "FeedbackMpl": _feedback_mpl,
    "UtilityScheduler": _utility_scheduler,
    "FuzzyExecutionController": _fuzzy,
    "QueryKillController": _kill,
    "PriorityAgingController": _aging,
    "SuspendResumeController": _suspend,
    "SuspendResumeController:resume": _resume,
    "UtilityThrottlingController": _utility_throttling,
    "QueryThrottlingController": _query_throttling,
    "EconomicResourceAllocator": _economic,
    "AutonomicLoop": _autonomic,
    "ResourcePoolController": _resource_pools,
    "FaultInjector": _faults,
    "ClusterDispatcher": _health,
}


@pytest.mark.parametrize("emitter", EMITTERS)
def test_emitter_records_typed_events_in_the_one_log(emitter):
    owner, old_attribute, decisions = EMITTERS[emitter](Simulator(seed=11))
    events = decisions_by(decisions, emitter.split(":")[0])
    assert events, f"{emitter} never acted"
    assert all(isinstance(event, ControlEvent) and event.action for event in events)
    times = [event.time for event in decisions]
    assert times == sorted(times)
    assert not hasattr(owner, old_attribute)


def test_pi_controller_keeps_no_history():
    assert not hasattr(PIController(kp=1.0, ki=0.0, setpoint=0.0), "history")


def test_a_degrade_is_distinguishable_from_a_health_flip():
    _, _, events = _health(Simulator(seed=11))
    assert [e.detail["speed"] for e in events] == [1.0, 1.0, 0.5]
    assert {e.detail["health"] for e in events} == {NodeHealth.UP}


# ----------------------------------------------------------------------
# (b) a rejection keeps its reason; an intercepted one records nothing
# ----------------------------------------------------------------------
def _picky():
    return ThresholdAdmission(AdmissionPolicy(reject_over_cost=1.0))


def _teradata_filter():
    config = TeradataASMConfig(
        object_filters=(
            ObjectAccessFilter("no-ddl", reject_statement_types=(StatementType.DDL,)),
        )
    )
    return config.build().admission


@pytest.mark.parametrize(
    "admission, query",
    [
        (_picky, dict(cpu=5.0)),
        (lambda: CompositeAdmission([_picky()]), dict(cpu=5.0)),
        (_teradata_filter, dict(statement_type=StatementType.DDL)),
    ],
    ids=["threshold", "composite", "teradata-filter"],
)
def test_rejection_event_carries_the_admission_reason_verbatim(admission, query):
    gate = admission()
    manager = _manager(Simulator(seed=11), admission=gate)
    rejected = make_query(io=0.0, sql="bi:q", **query)
    decision = manager.submit(rejected)
    assert rejected.state is QueryState.REJECTED and decision.reason
    (event,) = manager.context.decisions
    assert event == ControlEvent(
        0.0, type(gate).__name__, "reject", rejected.query_id, "bi", decision.reason
    )


def test_cluster_quota_rejection_names_the_tenant_and_quota():
    dispatcher = _cluster(Simulator(seed=11), tenant_quotas={"acme": 1})
    dispatcher.submit(make_query(cpu=5.0, io=0.0, sql="acme/bi:q"))
    bounced = make_query(cpu=5.0, io=0.0, sql="acme/bi:q")
    dispatcher.submit(bounced)
    assert bounced.state is QueryState.REJECTED
    (event,) = decisions_by(dispatcher.metrics.decisions, action="reject")
    assert (event.controller, event.query_id, event.workload) == (
        "TenantQuota", bounced.query_id, "acme/bi",
    )
    assert "'acme'" in event.detail and "quota of 1" in event.detail


@pytest.mark.parametrize("dispatch", ["push", "pull"])
def test_a_full_cluster_queue_rejects_the_arriving_request(dispatch):
    # two nodes of two slots each take four; one waits, the sixth bounces
    dispatcher = _cluster(Simulator(seed=11), max_queue_depth=1, dispatch=dispatch)
    queries = [make_query(cpu=50.0, io=0.0, sql="bi:q") for _ in range(6)]
    for query in queries:
        dispatcher.submit(query)
    waiting, arriving = queries[4:]
    assert dispatcher.binding.queued_queries() == [waiting]
    assert arriving.state is QueryState.REJECTED
    (event,) = decisions_by(dispatcher.metrics.decisions, action="reject")
    assert (event.controller, event.query_id, event.detail) == (
        "ClusterDispatcher", arriving.query_id, "cluster queue full (1)",
    )


def test_intercepted_rejection_records_nothing():
    sim = Simulator(seed=11)
    nodes = [ClusterNode(sim, name="n0", admission=_picky()), ClusterNode(sim, name="n1")]
    dispatcher = ClusterDispatcher(sim, nodes, placement=make_policy("round-robin"))
    heavy = make_query(cpu=5.0, io=0.0, sql="bi:q")
    dispatcher.submit(heavy)  # n0 refuses, the dispatcher re-places on n1
    assert dispatcher.metrics.replacements == 1
    assert heavy.state is not QueryState.REJECTED
    assert nodes[0].manager.context.decisions == []
    assert decisions_by(dispatcher.metrics.decisions, action="reject") == []


# ----------------------------------------------------------------------
# (c) source guard: the private lists stay deleted
# ----------------------------------------------------------------------
DELETED = [
    ("ThroughputFeedbackAdmission", "mpl_history"),
    ("FeedbackMpl", "history"),
    ("UtilityScheduler", "plan_history"),
    ("FuzzyExecutionController", "actions"),
    ("QueryKillController", "kill_events"),
    ("PriorityAgingController", "demotion_events"),
    ("SuspendResumeController", "suspend_events"),
    ("SuspendResumeController", "resume_events"),
    ("UtilityThrottlingController", "level_history"),
    ("QueryThrottlingController", "level_history"),
    ("EconomicResourceAllocator", "allocation_history"),
    ("AutonomicLoop", "decisions"),
    ("ResourcePoolController", "share_history"),
    ("FaultInjector", "fired"),
    ("ClusterMetrics", "health_changes"),
    ("PIController", "history"),
]


def _assigned_attributes():
    """{class name: every name its body assigns, on ``self`` or as a field}."""
    assigned = {}
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = assigned.setdefault(cls.name, set())
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        names.add(target.attr)
                    elif isinstance(target, ast.Name) and node in cls.body:
                        names.add(target.id)
    return assigned


def test_no_deleted_history_attribute_is_assigned_in_src():
    assigned = _assigned_attributes()
    assert len(DELETED) == 16
    for cls, attribute in DELETED:
        assert attribute not in assigned[cls], f"{cls}.{attribute} is back"
    # the record types the private lists were made of are gone too
    assert not {"HealthChange", "ProvisioningDecision"} & set(assigned)
    # and exactly one function per tier appends to a decision list
    appenders = [
        path.name
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
        if "decisions.append(" in path.read_text()
    ]
    assert sorted(appenders) == ["interfaces.py", "metrics.py"]
