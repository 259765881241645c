"""EXP18 — cluster placement and failover (§2.2, §3.2 one level up).

Claim reproduced: routing one workload stream across independent DBMS
nodes is the same taxonomy decision the paper's §3.2 admission /
§2.2 scheduling layers make on a single server, lifted to the cluster:
a load-aware placement policy keeps the latency-critical class inside
its objective under an overload that saturates one node [WiSeDB-style
SLA placement; DIRAC-style pilot heartbeats], while load-blind
round-robin does not — and killing a node mid-run loses no work,
because crash-lost queries are deterministically resubmitted.

Setup: the EXP18 mix (30/s OLTP + 0.3/s BI monsters, per-node MPL 2,
four nodes) under round-robin, cost-balanced and SLA-aware placement;
then the cost-balanced run repeated with node n1 crashed at t=30s.
Expected shape: round-robin breaches the 2s OLTP p95 SLA, both
load-aware placers hold it; the chaos run completes every arrival
exactly once with zero cluster rejections.

Replicated over eight seeds: round-robin breaches and SLA-aware
placement holds in a majority of seeds (the mix only overloads a node
when BI monsters collide, which is the seeds where round-robin
breaches); "cost-balanced holds the SLA" does not replicate and is
recorded as a count, not asserted.  Conservation under the node kill is
an invariant and is asserted at every seed.
"""

import functools
from collections import Counter

from benchmarks.conftest import MAJORITY, REPLICATES, seed_tally, write_result
from repro.reporting.figures import ascii_bar_chart, ascii_cluster_timeline
from repro.scenarios import arm_scenario, get_policy, get_scenario, run_scenario

SEEDS = range(42, 42 + REPLICATES)
HORIZON = 60.0
OLTP_P95_SLA = get_scenario("cluster_overload").workloads[0].sla.p95


def run_policy(policy: str, seed: int):
    dispatcher = run_scenario(
        get_scenario("cluster_overload", nodes=4, horizon=HORIZON),
        get_policy(f"push/{policy}"),
        seed=seed,
    ).dispatcher
    roll = dispatcher.metrics.rollup("oltp")
    return {
        "oltp_p95": roll.percentile_response_time(95.0),
        "oltp_completions": roll.completions,
        "arrivals": dispatcher.arrivals,
        "completions": dispatcher.completions,
        "rejections": dispatcher.rejections,
        "dispatcher": dispatcher,
    }


def run_node_kill(seed: int):
    """Cost-balanced run with n1 crashed mid-run; full conservation audit.

    The crash is scheduled here, at the instant and in the event order
    the spec's ``crashes=((0.5, "n1", None),)`` would arm it, so the run
    keeps ``crash_node``'s count of the queries it reclaimed (queued and
    in flight).
    """
    spec = get_scenario("cluster_overload", nodes=4, horizon=HORIZON)
    result = arm_scenario(spec, get_policy("push/cost"), seed=seed)
    dispatcher = result.dispatcher
    reclaimed = []
    dispatcher.sim.schedule_at(
        0.5 * HORIZON,
        lambda: reclaimed.append(dispatcher.crash_node(dispatcher.node("n1"))),
        label="fault:crash:n1",
    )
    outcomes = Counter()
    dispatcher.add_completion_listener(
        lambda query: outcomes.update([query.query_id])
    )
    result.run(drain=180.0)
    return {
        "dispatcher": dispatcher,
        "reclaimed": reclaimed,
        "outcomes": outcomes,
    }


@functools.lru_cache(maxsize=1)
def replicates():
    return [
        {
            "round-robin": run_policy("round-robin", seed),
            "cost": run_policy("cost", seed),
            "sla": run_policy("sla", seed),
            "node-kill": run_node_kill(seed),
        }
        for seed in SEEDS
    ]


def test_exp18_placement_beats_round_robin(benchmark):
    runs = replicates()
    outcome = runs[0]
    chart = ascii_bar_chart(
        {
            name: outcome[name]["oltp_p95"]
            for name in ("round-robin", "cost", "sla")
        },
        title=(
            f"EXP18 — OLTP p95 by placement policy, seed {SEEDS[0]} "
            f"(4 nodes, SLA {OLTP_P95_SLA:.0f}s)"
        ),
        unit="s",
    )
    lines = [chart, ""]
    for name in ("round-robin", "cost", "sla"):
        row = outcome[name]
        lines.append(
            f"{name:>12}: oltp_p95={row['oltp_p95']:.3f}s "
            f"done={row['completions']}/{row['arrivals']} "
            f"rej={row['rejections']}"
        )
    dispatcher = outcome["cost"]["dispatcher"]
    lines += ["", dispatcher.metrics.rollup_table(dispatcher.sim.now)]

    p95 = {
        name: [run[name]["oltp_p95"] for run in runs]
        for name in ("round-robin", "cost", "sla")
    }
    (breaches, sla_holds, sla_wins, _cost_holds, _cost_wins), tally = seed_tally(
        SEEDS,
        [
            # round-robin keeps landing OLTP behind BI monsters: SLA breached
            ("round-robin breaches the SLA",
             [value > OLTP_P95_SLA for value in p95["round-robin"]]),
            # load-aware placement holds the objective under the same mix
            ("sla placement holds the SLA",
             [value <= OLTP_P95_SLA for value in p95["sla"]]),
            ("sla placement beats round-robin",
             [ours < theirs for ours, theirs in zip(p95["sla"], p95["round-robin"])]),
            ("cost placement holds the SLA",
             [value <= OLTP_P95_SLA for value in p95["cost"]]),
            ("cost placement beats round-robin",
             [ours < theirs for ours, theirs in zip(p95["cost"], p95["round-robin"])]),
        ],
    )
    tally.append(
        "  OLTP p95 by seed, round-robin / cost / sla (s): "
        + ", ".join(
            f"{rr:.3f} / {cost:.3f} / {sla:.3f}"
            for rr, cost, sla in zip(p95["round-robin"], p95["cost"], p95["sla"])
        )
    )
    write_result("exp18_cluster_placement", "\n".join(lines + [""] + tally))

    assert breaches >= MAJORITY
    assert sla_holds >= MAJORITY
    assert sla_wins >= MAJORITY
    # the two cost-placement claims are counts above, not assertions:
    # they do not replicate (docstring)

    benchmark.pedantic(
        lambda: dispatcher.metrics.rollup("oltp"), rounds=3, iterations=1
    )


def test_exp18_node_kill_conserves_queries(benchmark):
    kills = [run["node-kill"] for run in replicates()]
    outcome = kills[0]
    dispatcher = outcome["dispatcher"]
    now = dispatcher.sim.now
    lanes = dispatcher.metrics.timeline_lanes(now)
    (reclaimed,), tally = seed_tally(
        SEEDS,
        [
            # the crash actually cost the node work (all of it came back:
            # conservation is asserted at every seed below)
            ("crash reclaimed >= 1 in-flight query",
             [sum(kill["reclaimed"]) >= 1 for kill in kills]),
        ],
    )
    tally.append(
        "  reclaimed / arrivals by seed: "
        + ", ".join(
            f"{sum(kill['reclaimed'])} / "
            f"{kill['dispatcher'].arrivals}"
            for kill in kills
        )
    )
    lines = [
        ascii_cluster_timeline(
            lanes, now,
            title=f"EXP18 — n1 killed at t=30s, seed {SEEDS[0]} (x = down)",
        ),
        "",
        f"reclaimed={sum(outcome['reclaimed'])} "
        f"resubmissions={dispatcher.resubmissions} "
        f"arrivals={dispatcher.arrivals} "
        f"completions={dispatcher.completions} "
        f"rejections={dispatcher.rejections}",
        "",
    ]
    write_result("exp18_cluster_failover", "\n".join(lines + tally))

    assert reclaimed >= MAJORITY
    for kill in kills:
        dispatcher, outcomes = kill["dispatcher"], kill["outcomes"]
        # zero lost completions: every arrival terminates exactly once
        assert dispatcher.completions + dispatcher.rejections == dispatcher.arrivals
        assert dispatcher.rejections == 0
        assert dispatcher.outstanding_work() == 0
        assert sum(outcomes.values()) == dispatcher.arrivals
        duplicates = [qid for qid, count in outcomes.items() if count > 1]
        assert duplicates == []

    dispatcher = kills[0]["dispatcher"]
    benchmark.pedantic(
        lambda: dispatcher.metrics.timeline_lanes(now), rounds=3, iterations=1
    )
