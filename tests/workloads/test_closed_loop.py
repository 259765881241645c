"""The closed-loop re-arm: a client thinks once per finished request.

A closed workload's client submits, waits for its request's terminal
outcome (completed, rejected or killed), thinks, and submits again.  An
attempt that ends ``ABORTED`` (a wait-die victim, a kill-and-resubmit
restart) is not an outcome: the same request re-enters and the client
keeps waiting.  ``WorkloadGenerator.notify_done`` is that loop; these
tests watch the ``think:`` events it schedules, and that a restart never
adds a request the population does not have.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.admission.threshold import ThresholdAdmission
from repro.core.interfaces import decisions_by
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


def _restart_run(rule, seed=1, population=2, hot_set_size=1000, classes=None):
    """A closed population under one kill rule, every request the
    generator makes kept in ``made``; the manager's outstanding work is
    sampled at each change of its backlog and every notification logged
    by ``id``."""
    sim = Simulator(seed=seed)
    manager = WorkloadManager(
        sim,
        machine=MachineSpec(cpu_capacity=4.0, disk_capacity=4.0, memory_mb=4096.0),
        engine_config=EngineConfig(hot_set_size=hot_set_size),
        execution_controllers=[QueryKillController([rule])],
    )
    spec = WorkloadSpec(
        name="clients",
        request_classes=classes or ((RequestClass("long", Constant(3.0), Constant(0.0)), 1.0),),
        arrivals=ClosedArrivals(population=population, think_time=Exponential(0.05)),
    )
    made, notified, outstanding = [], [], []

    def submit(query):
        made.append(query)
        manager.submit(query)

    generator = Scenario(specs=(spec,), horizon=HORIZON).build(
        sim, submit, sessions=manager.sessions
    )
    manager.add_completion_listener(generator.notify_done)
    manager.add_completion_listener(lambda query: notified.append(id(query)))
    manager.add_backlog_listener(lambda: outstanding.append(manager.outstanding_work()))
    manager.run(HORIZON)
    return manager, made, notified, outstanding


def test_kill_and_resubmit_restarts_the_same_request():
    """Two clients of 3 s requests, killed past 1 s and restarted 0.5 s
    later: the restart re-runs the client's request, it adds none."""
    rule = elapsed_time_kill(1.0, resubmit=True, resubmit_delay=0.5)
    manager, made, _, outstanding = _restart_run(rule)
    assert max(outstanding) <= 2
    stats = manager.metrics.stats_for("clients")
    in_flight = sum(not query.state.is_terminal for query in made)
    assert len(made) == stats.completions + stats.rejections + stats.kills + in_flight
    restarted = decisions_by(manager.decisions, "QueryKillController", "kill_and_resubmit")
    assert restarted and {event.query_id for event in restarted} <= {q.query_id for q in made}
    assert stats.aborts == len(restarted) == sum(query.restarts for query in made)
    assert all(query.restarts > 1 for query in made)


_TXN = RequestClass("txn", Exponential(0.05), Exponential(0.02), locks=Constant(3.0))
_LONG = RequestClass("long", Exponential(1.0), Constant(0.0))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    limit=st.floats(min_value=0.2, max_value=3.0),
    restart=st.booleans(),
    delay=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=1, max_value=50),
)
def test_every_request_has_at_most_one_outcome_under_any_kill_rule(limit, restart, delay, seed):
    """Kill rules with or without restart, and wait-die on a four-item
    hot set: every request the generator made is notified exactly once
    if it ended and never if it is still in flight, and nothing else is
    notified."""
    rule = elapsed_time_kill(limit, resubmit=restart, resubmit_delay=delay)
    manager, made, notified, outstanding = _restart_run(
        rule, seed=seed, population=4, hot_set_size=4,
        classes=((_TXN, 4.0), (_LONG, 1.0)),
    )
    assert max(outstanding) <= 4
    ended = [id(query) for query in made if query.state.is_terminal]
    assert sorted(notified) == sorted(ended)
    stats = manager.metrics.stats_for("clients")
    assert stats.completions + stats.rejections + stats.kills == len(ended)
    if not restart:
        assert not decisions_by(manager.decisions, action="kill_and_resubmit")
