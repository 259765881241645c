"""The closed-loop re-arm: a client thinks once per finished request.

A closed workload's client submits, waits for its request's terminal
outcome (completed, rejected or killed), thinks, and submits again.  A
wait-die abort is not an outcome: the manager resubmits the same request
and the client keeps waiting.  ``WorkloadGenerator.notify_done`` is that
loop; these tests watch the ``think:`` events it schedules.
"""

from repro.admission.threshold import ThresholdAdmission
from repro.core.manager import WorkloadManager
from repro.core.policy import AdmissionPolicy
from repro.engine.executor import EngineConfig
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.execution.cancellation import QueryKillController, elapsed_time_kill
from repro.workloads.generator import Scenario
from repro.workloads.models import (
    ClosedArrivals,
    Constant,
    Exponential,
    RequestClass,
    WorkloadSpec,
)

HORIZON = 20.0


class _ThinkRecordingSimulator(Simulator):
    """Logs every ``think:`` and ``resubmit`` event scheduled and, as a
    completion listener, every outcome, in one list in the order they
    happen."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed=seed)
        self.log = []

    def schedule(self, delay, action, label=""):
        if label.startswith("think:") or label == "resubmit":
            self.log.append((label.split(":")[0], self.now))
        return super().schedule(delay, action, label=label)

    def record_outcome(self, query) -> None:
        self.log.append(("outcome", self.now, query.state))


def _closed_run(seed: int = 4):
    """Clients whose requests complete, get rejected on cost, get killed
    past one second, or are wait-die victims on a four-item hot set."""
    sim = _ThinkRecordingSimulator(seed)
    manager = WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=4.0, disk_capacity=4.0, memory_mb=4096.0),
        engine_config=EngineConfig(hot_set_size=4),
        admission=ThresholdAdmission(AdmissionPolicy(reject_over_cost=10.0)),
        execution_controllers=[QueryKillController([elapsed_time_kill(1.0)])],
        control_period=0.5,
    )
    classes = (
        (RequestClass("txn", Exponential(0.05), Exponential(0.02),
                      locks=Constant(3.0)), 6.0),
        (RequestClass("huge", Constant(50.0), Constant(0.0)), 1.0),
        (RequestClass("long", Constant(3.0), Constant(0.0)), 1.0),
    )
    spec = WorkloadSpec(
        name="clients",
        request_classes=classes,
        arrivals=ClosedArrivals(population=6, think_time=Exponential(0.05)),
    )
    scenario = Scenario(specs=(spec,), horizon=HORIZON)
    generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
    streams_after_build = set(sim._rngs)
    manager.add_completion_listener(generator.notify_done)
    manager.add_completion_listener(sim.record_outcome)
    manager.run(HORIZON, drain=10.0)
    return sim, manager, streams_after_build


def test_think_stream_is_created_at_the_first_rearm_not_at_build():
    sim, _, streams_after_build = _closed_run()
    assert not any(name.startswith("think:") for name in streams_after_build)
    assert "think:clients" in sim._rngs


def test_every_outcome_before_the_horizon_schedules_exactly_one_think():
    sim, manager, _ = _closed_run()
    stats = manager.metrics.stats_for("clients")
    # the run exercises all three outcomes and the abort path
    assert stats.completions and stats.rejections and stats.kills
    assert stats.aborts > 0
    outcomes = [entry for entry in sim.log if entry[0] == "outcome"]
    assert {state for _, _, state in outcomes} == {
        QueryState.COMPLETED, QueryState.REJECTED, QueryState.KILLED,
    }
    assert any(entry[0] == "resubmit" for entry in sim.log)
    # notify_done runs just before the logging listener: each outcome
    # before the horizon is preceded by its think, and nothing else (an
    # abort and its resubmission, a late outcome) schedules one
    for index, entry in enumerate(sim.log):
        if entry[0] == "outcome":
            rearmed = index > 0 and sim.log[index - 1] == ("think", entry[1])
            assert rearmed == (entry[1] < HORIZON), entry
        elif entry[0] == "think":
            assert sim.log[index + 1][0] == "outcome", entry
    thinks = sum(1 for entry in sim.log if entry[0] == "think")
    assert thinks == sum(1 for _, time, _ in outcomes if time < HORIZON)
