"""A run forked mid-way finishes exactly like the run left alone.

``copy.deepcopy`` of a manager copies everything its pending events act
on, as long as every action handed to the simulator is a bound method
or a ``functools.partial`` of one: a closure is copied by reference and
would keep acting on the original's objects.  The shape is the ledger's
``closed_mpl8``: 32 closed clients over ``WaitQueue(8)``.
"""

import copy

import pytest

from repro.core.manager import WaitQueue, WorkloadManager
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.parallel.digest import outcome_digest
from repro.workloads.generator import Scenario
from repro.workloads.models import (
    ClosedArrivals,
    Constant,
    Exponential,
    RequestClass,
    Uniform,
    WorkloadSpec,
)

HORIZON = 120.0
FORK_AT = 60.0


def _closed_run() -> WorkloadManager:
    sim = Simulator(seed=1)
    manager = WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0),
        scheduler=WaitQueue(8),
    )
    job = RequestClass(
        name="job",
        cpu=Exponential(0.012),
        io=Exponential(0.024),
        memory_mb=Uniform(4.0, 16.0),
        rows=Constant(1_000),
    )
    spec = WorkloadSpec(
        name="closed",
        request_classes=((job, 1.0),),
        arrivals=ClosedArrivals(population=32, think_time=Constant(0.01)),
        priority=1,
    )
    generator = Scenario(specs=(spec,), horizon=HORIZON).build(
        sim, manager.submit, sessions=manager.sessions
    )
    manager.add_completion_listener(generator.notify_done)
    return manager


def _finish(manager: WorkloadManager) -> str:
    manager.sim.run_until(HORIZON)
    return outcome_digest(manager)


@pytest.fixture(scope="module")
def unforked() -> str:
    return _finish(_closed_run())


@pytest.mark.parametrize("fork_first", [True, False], ids=["fork-first", "original-first"])
def test_fork_and_original_both_reproduce_the_unforked_run(unforked, fork_first):
    original = _closed_run()
    original.sim.run_until(FORK_AT)
    fork = copy.deepcopy(original)
    order = (fork, original) if fork_first else (original, fork)
    digests = [_finish(manager) for manager in order]
    assert digests == [unforked, unforked]
