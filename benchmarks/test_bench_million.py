"""Smoke and determinism checks for the million-query macro-scenario.

The full >= 1M run and the CI slice are the bench gate's
``million_query`` row (``python -m benchmarks.perf --only million_query``,
``--mode full`` for the macro-run); these tests pin the scenario's
plumbing at a tiny scale so ``pytest benchmarks/`` stays fast:

* shards are seeded deterministically (same digest run-to-run),
* different shards differ (the shard axis actually varies the seed),
* the reduced result matches the shard-order digest-of-digests,
* an undersized event budget raises instead of silently truncating.
"""

import pytest

from benchmarks._scenarios import build_manager, drive
from benchmarks.perf.scenarios import (
    _million_spec,
    million_event_budget,
    reduce_shards,
    run_million_query_shard,
)
from repro.core.manager import FCFSDispatcher
from repro.engine.simulator import Simulator
from repro.errors import SimulationBudgetExceeded
from repro.parallel.digest import combine
from repro.workloads.generator import Scenario

TINY = 0.004  # -> 5s horizon shards, a few hundred queries each


def test_shard_is_deterministic():
    first = run_million_query_shard(scale=TINY, shard=0)
    second = run_million_query_shard(scale=TINY, shard=0)
    assert first == second
    assert first["completed"] > 0
    assert first["submitted"] >= first["completed"]


def test_shards_differ_by_seed():
    a = run_million_query_shard(scale=TINY, shard=0)
    b = run_million_query_shard(scale=TINY, shard=1)
    assert a["digest"] != b["digest"]


def test_reduce_matches_digest_of_digests():
    shards = [run_million_query_shard(scale=TINY, shard=s) for s in (0, 1)]
    reduced = reduce_shards(shards)
    assert reduced["submitted"] == sum(s["submitted"] for s in shards)
    assert reduced["digest"] == combine(str(s["digest"]) for s in shards)


def test_event_budget_is_generous():
    # the committed budget must never clip a healthy run
    result = run_million_query_shard(scale=TINY, shard=0)
    assert int(result["events"]) < million_event_budget(TINY) // 3


def test_undersized_budget_raises_instead_of_truncating():
    sim = Simulator(seed=23)
    manager = build_manager(sim, scheduler=FCFSDispatcher(max_concurrency=32))
    scenario = Scenario(specs=(_million_spec(),), horizon=5.0)
    with pytest.raises(SimulationBudgetExceeded) as excinfo:
        drive(manager, scenario, max_events=50)
    assert excinfo.value.budget == 50
    assert excinfo.value.fired == 50
