"""A run forked at any instant finishes exactly like the run left alone.

``copy.deepcopy`` of a run (a manager, or an armed cluster scenario)
copies everything its pending events act on, as long as every action
handed to the simulator and every listener is a bound method, a
module-level function or a ``functools.partial`` of one: a closure is
copied by reference and would keep acting on the original's objects
(``tests/test_actions.py`` keeps the source that way).  A pickle round
trip is the same fork through a byte string, and it holds every
callable a run *stores* — a weight function, a classifier, an
admission indicator's read — to that rule too: pickle refuses a lambda or a nested function outright.  The
property forks each shape at a random instant both ways and runs both
copies, in either order, to the end of its drain window: both digests
must equal the unforked run's.  A ``DeprecationWarning`` is an error
here, so an object whose copy CPython deprecates (an
``itertools.count``, on 3.12) fails the suite before the release that
removes its copy.
"""

import copy
import pickle
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.admission import IndicatorAdmission
from repro.core.manager import WaitQueue, WorkloadManager
from repro.core.policy import ThresholdKind
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.execution.suspend_resume import SuspendResumeController, SuspendStrategy
from repro.parallel.digest import outcome_digest
from repro.scenarios import arm_scenario, get_policy, get_scenario
from repro.scheduling.mpl import FeedbackMpl
from repro.systems.teradata import (
    QueryResourceFilter,
    TeradataASMConfig,
    TeradataException,
    TeradataWorkloadDefinition,
)
from repro.workloads.generator import Scenario, bi_workload, oltp_workload
from repro.workloads.models import (
    ClosedArrivals,
    Constant,
    Exponential,
    RequestClass,
    Uniform,
    WorkloadSpec,
)

from tests.conftest import capacity_gate

MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)


def _closed_spec() -> WorkloadSpec:
    """The ledger's ``closed_mpl8`` shape: 32 closed clients."""
    job = RequestClass(
        name="job",
        cpu=Exponential(0.012),
        io=Exponential(0.024),
        memory_mb=Uniform(4.0, 16.0),
        rows=Constant(1_000),
    )
    return WorkloadSpec(
        name="closed",
        request_classes=((job, 1.0),),
        arrivals=ClosedArrivals(population=32, think_time=Constant(0.01)),
        priority=1,
    )


def _mix(bi_rate: float = 0.3):
    """Open OLTP at high priority beside low-priority BI monsters."""
    return (
        oltp_workload(rate=20.0, priority=3),
        bi_workload(rate=bi_rate, priority=1, median_cpu=4.0, median_io=8.0),
    )


def _manager_run(horizon, specs, make_manager):
    sim = Simulator(seed=1)
    manager = make_manager(sim)
    generator = Scenario(specs=specs, horizon=horizon).build(
        sim, manager.submit, sessions=manager.sessions
    )
    manager.add_completion_listener(generator.notify_done)
    return manager


#: the ledger's ``teradata_mix`` rules with tighter exception limits,
#: so a 30 s run demotes, aborts and filters
TERADATA = TeradataASMConfig(
    definitions=(
        TeradataWorkloadDefinition(
            name="tactical", application="order-entry", priority=3, allocation_weight=4.0
        ),
        TeradataWorkloadDefinition(
            name="analytics",
            application="analytics",
            priority=1,
            throttle=2,
            exceptions=(
                TeradataException(ThresholdKind.ELAPSED_TIME, 2.0, "demote"),
                TeradataException(ThresholdKind.ELAPSED_TIME, 8.0, "abort"),
            ),
        ),
    ),
    resource_filters=(QueryResourceFilter("no-monsters", max_estimated_work=30.0),),
    global_mpl=16,
)

#: name -> (build the un-run shape, horizon): every shape is small
#: enough that a full run takes well under a second.
SHAPES = {
    "closed-waitqueue": (
        lambda: _manager_run(
            20.0,
            (_closed_spec(),),
            lambda sim: WorkloadManager(sim, machine=MACHINE, scheduler=WaitQueue(8)),
        ),
        20.0,
    ),
    "teradata-asm": (
        lambda: _manager_run(
            30.0,
            _mix(bi_rate=1.0),
            lambda sim: TERADATA.build().create_manager(
                sim, machine=MACHINE, control_period=0.5
            ),
        ),
        30.0,
    ),
    "feedback-mpl": (
        lambda: _manager_run(
            30.0,
            _mix(),
            lambda sim: WorkloadManager(
                sim,
                machine=MACHINE,
                scheduler=WaitQueue(FeedbackMpl(initial=4, interval=1.0, step=1)),
            ),
        ),
        30.0,
    ),
    # both gates hold requests back for most of the run, so a fork
    # catches delayed requests waiting for their retry
    "indicator-default": (
        lambda: _manager_run(
            30.0,
            _mix(),
            lambda sim: WorkloadManager(sim, machine=MACHINE, admission=IndicatorAdmission()),
        ),
        30.0,
    ),
    "indicator-ab-lab": (
        lambda: _manager_run(
            30.0,
            _mix(),
            lambda sim: WorkloadManager(sim, machine=MACHINE, admission=capacity_gate()),
        ),
        30.0,
    ),
    "suspend-resume": (
        lambda: _manager_run(
            30.0,
            _mix(bi_rate=0.5),
            lambda sim: WorkloadManager(
                sim,
                machine=MACHINE,
                execution_controllers=[
                    SuspendResumeController(
                        strategy=SuspendStrategy.DUMP_STATE,
                        dump_bandwidth_mb_s=20.0,  # dumps and reads span instants
                        min_victim_work=1.0,
                        resume_when_idle_below=4,
                        velocity_floor=0.9,
                    )
                ],
                control_period=0.5,
            ),
        ),
        30.0,
    ),
    "push-cluster-chaos": (
        lambda: arm_scenario(get_scenario("churn"), get_policy("baseline"), seed=3),
        get_scenario("churn").horizon,
    ),
    "pull-cluster-chaos": (
        lambda: arm_scenario(get_scenario("churn"), get_policy("full-isolation"), seed=3),
        get_scenario("churn").horizon,
    ),
}


def _clock(run) -> Simulator:
    return run.dispatcher.sim if hasattr(run, "dispatcher") else run.sim


def _finish(run, horizon: float) -> str:
    """Run to the horizon plus a drain window; the run's digest."""
    if hasattr(run, "dispatcher"):
        return run.run(drain=horizon / 2).digest()
    run.run(horizon, drain=horizon / 2)
    return outcome_digest(run)


@lru_cache(maxsize=None)
def _unforked(shape: str) -> str:
    build, horizon = SHAPES[shape]
    return _finish(build(), horizon)


def _pickled(run):
    return pickle.loads(pickle.dumps(run))


@pytest.mark.filterwarnings("error::DeprecationWarning")
@pytest.mark.parametrize("fork_with", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=2, deadline=None)
@given(at=st.floats(0.0, 1.5), fork_first=st.booleans())
@example(at=0.5, fork_first=True)  # mid-run: hypothesis favours the ends
def test_a_fork_at_any_instant_reproduces_the_unforked_run(
    shape, fork_with, at, fork_first
):
    build, horizon = SHAPES[shape]
    original = build()
    _clock(original).run_until(at * horizon)
    fork = fork_with(original)
    order = (fork, original) if fork_first else (original, fork)
    digests = [_finish(run, horizon) for run in order]
    assert digests == [_unforked(shape)] * 2

