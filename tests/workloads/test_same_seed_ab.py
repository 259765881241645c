"""A/B on one seed: two policies, one request stream.

Every generator stream (``arrivals:*``, ``costs:*``, ``optimizer``) is
named and seeded, and the k-th request of a spec is row k of its
stream, so two runs of one seed submit the same requests whatever the
policy does with them: same times, true costs, estimates, plans,
objects, sql and session attributes.  Comparing two policies is two
runs of one seed; no log is recorded and replayed.
"""

import statistics

from repro.characterization.static import (
    AttributePredicate,
    StaticCharacterizer,
    WorkloadDefinition,
)
from repro.core.manager import WorkloadManager
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.parallel.digest import outcome_digest
from repro.scheduling.queues import MultiQueueScheduler
from repro.workloads.generator import Scenario, bi_workload, oltp_workload

MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)


def _plain(sim):
    return WorkloadManager(sim, machine=MACHINE)


def _managed(sim):
    return WorkloadManager(
        sim,
        machine=MACHINE,
        scheduler=MultiQueueScheduler(per_workload_mpl={"bi": 1}),
    )


def _scenario(horizon=40.0, application="order-entry"):
    return Scenario(
        specs=(oltp_workload(rate=4.0, application=application), bi_workload(rate=0.15)),
        horizon=horizon,
    )


def _run(factory, scenario, seed):
    """Run ``scenario`` on ``seed`` under ``factory``'s manager; returns
    the manager and every request the generator submitted, as
    ``(query, submit instant)``."""
    sim = Simulator(seed=seed)
    manager = factory(sim)
    submitted = []

    def submit(query):
        submitted.append((query, sim.now))
        manager.submit(query)

    generator = scenario.build(sim, submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    manager.run(scenario.horizon, drain=scenario.horizon)
    return manager, submitted


def _stream(manager, submitted):
    """What a request *is*, free of the per-process query and session ids."""
    return [
        (
            at,
            query.true_cost,
            query.estimated_cost,
            query.statement_type,
            query.priority,
            len(query.plan),
            query.objects,
            query.sql,
            manager.sessions.get(query.session_id).attributes,
        )
        for query, at in submitted
    ]


def _oltp_p95(manager):
    return manager.metrics.stats_for("oltp").percentile_response_time(95)


def test_every_policy_is_handed_the_same_request_stream():
    runs = [_run(factory, _scenario(), seed=6) for factory in (_plain, _managed, _plain)]
    streams = [_stream(*run) for run in runs]
    assert len(streams[0]) > 150
    assert max(len(query.plan) for query, _ in runs[0][1]) > 1  # plans survive
    assert streams[1] == streams[0] and streams[2] == streams[0]
    # the policy changes what happens to the stream, and a rerun does not
    digests = [outcome_digest(manager) for manager, _ in runs]
    assert digests[1] != digests[0] and digests[2] == digests[0]


def test_throttling_bi_helps_oltps_tail_on_the_same_stream():
    # Throttling BI to 1 concurrent helps OLTP's tail -- as a tendency
    # over request streams, not at every one: where no two BI queries
    # overlap the policies run the stream identically, so the claim is
    # over seeds, not at one.
    base_p95s, cand_p95s = [], []
    for seed in range(6, 11):
        base_p95s.append(_oltp_p95(_run(_plain, _scenario(), seed)[0]))
        cand_p95s.append(_oltp_p95(_run(_managed, _scenario(), seed)[0]))
    helped = sum(c <= b + 1e-9 for b, c in zip(base_p95s, cand_p95s))
    assert helped >= 3, list(zip(base_p95s, cand_p95s))
    assert statistics.median(cand_p95s) <= statistics.median(base_p95s)


def test_who_rules_classify_the_same_requests_under_both_policies():
    # each run opens its own sessions from the same attribute draws, so a
    # "who" rule puts the k-th request in the same workload either way
    def classified(scheduler):
        def factory(sim):
            return WorkloadManager(
                sim,
                machine=MACHINE,
                scheduler=scheduler,
                characterizer=StaticCharacterizer(
                    [
                        WorkloadDefinition(
                            workload="payroll",
                            who=(AttributePredicate("application", "payroll"),),
                        )
                    ]
                ),
            )

        return factory

    scenario = _scenario(horizon=30.0, application="payroll")
    runs = [
        _run(classified(scheduler), scenario, seed=6)[1]
        for scheduler in (None, MultiQueueScheduler(per_workload_mpl={"bi": 1}))
    ]
    workloads = [[query.workload_name for query, _ in run] for run in runs]
    assert workloads[0].count("payroll") > 50
    assert workloads[1] == workloads[0]
