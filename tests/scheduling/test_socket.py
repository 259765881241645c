"""The ``Scheduler`` socket's contract, held by every implementation.

(a) every concrete scheduler in ``repro`` keeps its waiting requests in
a ``PartitionedQueue``, answers ``queued_queries`` and is emptied by
``evacuate_queued`` in one pass; (b) a scheduler's MPL controller hears
of each engine exit exactly once, through the manager; (c) the keyed
``WaitQueue`` pops in the order the deleted per-discipline classes did;
(d) nothing in ``src/`` probes for the socket's methods or hooks the
engine behind the manager's back.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest
from hypothesis import given, strategies as st

import repro
from repro.core.interfaces import MplController, PartitionedQueue, Scheduler
from repro.core.manager import WaitQueue, WorkloadManager
from repro.engine.executor import CompletionOutcome
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.scheduling.queues import (
    MultiQueueScheduler,
    TenantShareScheduler,
    by_priority,
    shortest_job,
    wspt,
)
from repro.scheduling.restructuring import RestructuringScheduler
from repro.scheduling.utility import ServiceClassConfig, UtilityScheduler

from tests.conftest import make_query

SRC = pathlib.Path(repro.__file__).parent


def _manager(sim, scheduler):
    machine = MachineSpec(cpu_capacity=4, disk_capacity=4, memory_mb=4096)
    return WorkloadManager(sim, machine=machine, scheduler=scheduler)


# ----------------------------------------------------------------------
# (a) queued_queries / evacuate_queued on every implementation
# ----------------------------------------------------------------------
#: One way to build each concrete scheduler so that a single request of
#: 30 device-seconds fills it (MPL 1, or a 32 s utility cost limit).
FACTORIES = {
    WaitQueue: [
        lambda: WaitQueue(1),
        lambda: WaitQueue(1, key=by_priority),
        lambda: WaitQueue(1, key=shortest_job(aging_weight=2.0)),
        lambda: WaitQueue(1, key=wspt),
    ],
    MultiQueueScheduler: [lambda: MultiQueueScheduler(global_mpl=1)],
    TenantShareScheduler: [lambda: TenantShareScheduler(1, {"acme": 1.0})],
    UtilityScheduler: [
        lambda: UtilityScheduler([ServiceClassConfig("acme/oltp", response_time_goal=5.0)])
    ],
    RestructuringScheduler: [lambda: RestructuringScheduler(WaitQueue(1), slice_threshold=1e9)],
}


def _concrete_schedulers():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            continue  # an optional dependency is absent
    found, stack = set(), [Scheduler]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.") and not sub.__abstractmethods__:
                found.add(sub)
    return found


def test_every_concrete_scheduler_has_a_factory():
    assert _concrete_schedulers() == set(FACTORIES)


@pytest.mark.parametrize(
    "factory", [f for factories in FACTORIES.values() for f in factories]
)
def test_queued_queries_and_evacuation(factory, monkeypatch):
    sim = Simulator(seed=5)
    manager = _manager(sim, factory())
    sim.run_until(0.5)  # the utility scheduler's first plan sets its cost limits
    manager.submit(make_query(cpu=30.0, io=0.0, sql="acme/oltp:q"))
    assert manager.running_count == 1
    waiting = [
        make_query(cpu=30.0 + i, io=0.0, priority=1 + i % 3, sql="acme/oltp:q")
        for i in range(5)
    ]
    for query in waiting:
        manager.submit(query)
    scheduler = manager.scheduler
    assert isinstance(scheduler.queue, PartitionedQueue)
    assert scheduler.queued_count() == 5
    assert sorted(q.query_id for q in scheduler.queued_queries()) == [
        q.query_id for q in waiting
    ]
    def one_at_a_time(queue, query_id):
        raise AssertionError("evacuation withdrew requests one by one")

    monkeypatch.setattr(PartitionedQueue, "remove", one_at_a_time)
    evacuated = manager.evacuate_queued()
    assert sorted(q.query_id for q in evacuated) == [q.query_id for q in waiting]
    assert manager.queued_count == 0 and scheduler.queued_queries() == []
    assert manager.running_count == 1


def test_a_scheduler_supplies_only_its_decisions():
    class Partial(Scheduler):
        def enqueue(self, query, context):
            self.queue.push(query)

    with pytest.raises(TypeError, match="next_batch"):
        Partial()

    class Whole(Partial):
        def __init__(self):
            self.queue = PartitionedQueue()

        def next_batch(self, context):
            return []

    scheduler, query = Whole(), make_query()
    scheduler.enqueue(query, None)
    assert scheduler.queued_count() == 1 and scheduler.queued_queries() == [query]


def test_fcfs_dispatcher_is_the_wait_queue():
    from repro.core.manager import FCFSDispatcher

    assert FCFSDispatcher is WaitQueue
    assert FCFSDispatcher(max_concurrency=8).mpl.limit == 8


# ----------------------------------------------------------------------
# (b) one notification per engine exit, whatever the outcome
# ----------------------------------------------------------------------
class _CountingMpl(MplController):
    def __init__(self):
        self.exits = 0

    def current_limit(self, context):
        return None

    def notify_completion(self):
        self.exits += 1


@pytest.mark.parametrize(
    "build",
    [
        WaitQueue,
        lambda mpl: WaitQueue(mpl, key=by_priority),
        lambda mpl: MultiQueueScheduler(global_mpl=mpl),
        lambda mpl: RestructuringScheduler(WaitQueue(mpl), slice_threshold=1e9),
    ],
)
def test_mpl_controller_hears_each_exit_once(build):
    mpl = _CountingMpl()
    sim = Simulator(seed=5)
    manager = _manager(sim, build(mpl))
    manager.scheduler.attach(manager)  # a re-attach must not add a listener
    outcomes = []
    manager.engine.on_exit(lambda query, outcome: outcomes.append(outcome))
    done, doomed = make_query(cpu=0.5, io=0.0), make_query(cpu=50.0, io=0.0)
    manager.submit(done)
    manager.submit(doomed)
    sim.run_until(1.0)
    manager.engine.kill(doomed.query_id)
    assert outcomes == [CompletionOutcome.COMPLETED, CompletionOutcome.KILLED]
    assert mpl.exits == 2


# ----------------------------------------------------------------------
# (c) the keyed queue pops in the deleted classes' order
# ----------------------------------------------------------------------
def _drain(scheduler, arrivals):
    """Enqueue ``(priority, work, submit_time)`` rows in order, pop them all."""
    manager = _manager(Simulator(seed=5), scheduler)
    queries = []
    for priority, work, submit in arrivals:
        query = make_query(cpu=float(work), io=0.0, priority=priority)
        query.submit_time = float(submit)
        scheduler.enqueue(query, manager)
        queries.append(query)
    snapshot = scheduler.queued_queries()
    popped = scheduler.next_batch(manager)
    assert snapshot == popped  # the snapshot is in dispatch order
    return queries, popped


ARRIVALS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(1, 20), st.integers(0, 50)), max_size=12
).map(lambda rows: sorted(rows, key=lambda row: row[2]))  # arrive in submit order


@given(ARRIVALS)
def test_by_priority_pops_highest_priority_then_arrival(arrivals):
    queries, popped = _drain(WaitQueue(key=by_priority), arrivals)
    expected = sorted(range(len(queries)), key=lambda i: (-queries[i].priority, i))
    assert popped == [queries[i] for i in expected]


@given(ARRIVALS, st.sampled_from([0.0, 0.5, 2.0, 100.0]), st.integers(50, 500))
def test_shortest_job_pops_in_the_rank_order_at_any_now(arrivals, weight, now):
    """The oracle is the deleted scheduler's pop: repeatedly take the
    first minimum of ``work - w * (now - submit)`` over the queue."""
    queries, popped = _drain(WaitQueue(key=shortest_job(weight)), arrivals)

    def rank(query):
        return query.estimated_cost.total_work - weight * (now - query.submit_time)

    queue, expected = list(queries), []
    while queue:
        expected.append(queue.pop(min(range(len(queue)), key=lambda i: (rank(queue[i]), i))))
    assert popped == expected


# ----------------------------------------------------------------------
# (d) source guard
# ----------------------------------------------------------------------
DELETED_NAMES = {
    "FCFSScheduler",
    "PriorityScheduler",
    "ShortestJobFirstScheduler",
    "BatchScheduler",
    "_QueueSchedulerBase",
    "_attach_mpl_feedback",
    "_mpl_hooked_engines",
}
ON_EXIT_CALLERS = {"core/manager.py", "backends/compare.py"}


def test_src_neither_probes_the_socket_nor_hooks_the_engine():
    for path in SRC.rglob("*.py"):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                assert node.name not in DELETED_NAMES, f"{where}: {node.name} is back"
            elif isinstance(node, ast.Name):
                assert node.id not in DELETED_NAMES, f"{where}: {node.id} is back"
            elif isinstance(node, ast.Attribute):
                assert node.attr not in DELETED_NAMES, f"{where}: {node.attr} is back"
            if not isinstance(node, ast.Call):
                continue
            called = node.func
            if isinstance(called, ast.Name) and called.id in ("hasattr", "getattr"):
                probed = [a.value for a in node.args if isinstance(a, ast.Constant)]
                assert "queued_queries" not in probed, f"{where}: probes queued_queries"
                assert "notify_exit" not in probed, f"{where}: probes notify_exit"
            if isinstance(called, ast.Attribute) and called.attr == "on_exit":
                assert where in ON_EXIT_CALLERS, f"{where}: hooks engine exits itself"
