"""Tests for trace replay and A/B comparison."""

import statistics
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.characterization.static import (
    AttributePredicate,
    StaticCharacterizer,
    WorkloadDefinition,
)
from repro.core.manager import FCFSDispatcher, WorkloadManager
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.scheduling.queues import MultiQueueScheduler
from repro.parallel.digest import outcome_digest
from repro.workloads.generator import Scenario, bi_workload, oltp_workload
from repro.workloads import replay as replay_module
from repro.workloads.replay import ab_compare, record_run, schedule_replay
from repro.workloads.traces import QueryLog

from tests.conftest import make_query

MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)


def _plain(sim):
    return WorkloadManager(sim, machine=MACHINE)


def _managed(sim):
    return WorkloadManager(
        sim,
        machine=MACHINE,
        scheduler=MultiQueueScheduler(per_workload_mpl={"bi": 1}),
    )


def _scenario(horizon=40.0):
    return Scenario(
        specs=(oltp_workload(rate=4.0), bi_workload(rate=0.15)),
        horizon=horizon,
    )


class TestScheduleReplay:
    def test_replay_preserves_stream(self, sim):
        manager = WorkloadManager(sim, machine=MACHINE)
        for offset in (0.0, 1.0, 2.5):
            query = make_query(cpu=0.2, io=0.0, sql="wl:q")
            sim.schedule_at(offset, lambda q=query: manager.submit(q))
        manager.run(5.0, drain=10.0)
        log = manager.query_log

        replay_sim = Simulator(seed=9)
        replay_manager = WorkloadManager(replay_sim, machine=MACHINE)
        queries = schedule_replay(replay_sim, replay_manager, log)
        replay_manager.run(5.0, drain=10.0)
        assert len(queries) == 3
        assert [q.submit_time for q in queries] == [0.0, 1.0, 2.5]
        assert all(q.state is QueryState.COMPLETED for q in queries)

    def test_replayed_queries_are_fresh_objects(self, sim):
        manager = WorkloadManager(sim, machine=MACHINE)
        original = make_query(cpu=0.2, io=0.0)
        manager.submit(original)
        manager.run(0.0, drain=5.0)
        replay_sim = Simulator(seed=3)
        replay_manager = WorkloadManager(replay_sim, machine=MACHINE)
        queries = schedule_replay(replay_sim, replay_manager, manager.query_log)
        assert queries[0].query_id != original.query_id
        assert queries[0].true_cost == original.true_cost


class TestRecordRun:
    def test_record_run_produces_log(self):
        manager = record_run(_plain, _scenario(), seed=5)
        assert len(manager.query_log) > 50
        assert manager.metrics.stats_for("oltp").completions > 50


class TestAbCompare:
    def test_candidate_sees_identical_stream(self, monkeypatch):
        replayed = []

        def recording_replay(sim, manager, log):
            queries = schedule_replay(sim, manager, log)
            replayed.extend(queries)
            return queries

        monkeypatch.setattr(replay_module, "schedule_replay", recording_replay)
        baseline, candidate = ab_compare(_plain, _managed, _scenario(), seed=6)
        # the candidate replays every request the baseline *logged*
        # (queries still in flight at the baseline's window end have no
        # terminal record and are not replayed), each at its recorded time
        log = baseline.query_log
        assert len(replayed) == len(log)
        assert [q.submit_time for q in replayed] == log.arrival_schedule()
        # the manager's own total also counts wait-die resubmissions, so
        # it is bounded by the replayed stream, not equal to it
        restarts = sum(q.restarts for q in replayed)
        assert len(replayed) <= candidate.submitted_count <= len(replayed) + restarts
        base_oltp = baseline.metrics.stats_for("oltp")
        cand_oltp = candidate.metrics.stats_for("oltp")
        assert base_oltp.completions > 0
        assert cand_oltp.completions > 0

    def test_candidate_policy_changes_outcomes(self):
        # Throttling BI to 1 concurrent helps OLTP's tail — as a tendency
        # over request streams, not at every one: where no two BI queries
        # overlap the policies differ only by replay jitter (a few ms
        # either way), so the claim is over seeds, not at one.
        base_p95s, cand_p95s = [], []
        for seed in range(6, 11):
            baseline, candidate = ab_compare(
                _plain, _managed, _scenario(), seed=seed
            )
            base_p95s.append(
                baseline.metrics.stats_for("oltp").percentile_response_time(95)
            )
            cand_p95s.append(
                candidate.metrics.stats_for("oltp").percentile_response_time(95)
            )
        helped = sum(c <= b + 1e-9 for b, c in zip(base_p95s, cand_p95s))
        assert helped >= 3, list(zip(base_p95s, cand_p95s))
        assert statistics.median(cand_p95s) <= statistics.median(base_p95s)

    def test_the_replay_resolves_the_baselines_sessions(self):
        # a "who" rule must classify a replayed request as it classified
        # the recorded one: the candidate resolves the baseline's sessions
        def classified(sim):
            return WorkloadManager(
                sim,
                machine=MACHINE,
                characterizer=StaticCharacterizer(
                    [
                        WorkloadDefinition(
                            workload="payroll",
                            who=(AttributePredicate("application", "payroll"),),
                        )
                    ]
                ),
            )

        scenario = Scenario(
            specs=(oltp_workload(rate=4.0, application="payroll"), bi_workload(rate=0.15)),
            horizon=30.0,
        )
        baseline, candidate = ab_compare(classified, classified, scenario, seed=6)

        def classes(manager):  # each session's requests land in one workload
            return {(record.session_id, record.workload) for record in manager.query_log}

        assert sum(record.workload == "payroll" for record in baseline.query_log) > 50
        assert classes(candidate) == classes(baseline)

    def test_ab_is_deterministic(self):
        first = ab_compare(_plain, _managed, _scenario(), seed=11)
        second = ab_compare(_plain, _managed, _scenario(), seed=11)
        assert (
            first[1].metrics.stats_for("oltp").mean_response_time()
            == second[1].metrics.stats_for("oltp").mean_response_time()
        )


# (cpu, io, arrival offset) — offsets are deduplicated by the strategy
# so the replay's submission order is uniquely determined by time.
replay_row_strategy = st.tuples(
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=20.0),
)


class TestReplayDeterminismProperty:
    """Property: a recorded trace, round-tripped through its JSONL
    serialization and replayed through the *same* policy, reproduces
    the original run's completion order and outcome digest exactly."""

    @staticmethod
    def _run(sim, log_or_rows):
        manager = WorkloadManager(
            sim,
            machine=MACHINE,
            scheduler=FCFSDispatcher(max_concurrency=2),
            control_period=1.0,
        )
        if isinstance(log_or_rows, QueryLog):
            schedule_replay(sim, manager, log_or_rows)
        else:
            for cpu, io, offset in log_or_rows:
                query = make_query(cpu=cpu, io=io, sql="wl:q")
                sim.schedule_at(offset, lambda q=query: manager.submit(q))
        manager.run(horizon=25.0, drain=500.0)
        return manager

    @given(
        st.lists(
            replay_row_strategy,
            min_size=1,
            max_size=12,
            unique_by=lambda row: row[2],
        )
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_replay_reproduces_order_and_digest(self, rows):
        original = self._run(Simulator(seed=2), rows)
        log = original.query_log
        # with the generous drain, every request reached a terminal state
        assert len(log) == len(rows)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            log.to_jsonl(path)
            loaded = QueryLog.from_jsonl(path)
        assert list(loaded) == list(log)

        replayed = self._run(Simulator(seed=2), loaded)

        def stream(manager):
            return [
                (r.submit_time, r.start_time, r.end_time, r.final_state)
                for r in manager.query_log
            ]

        # record order is completion order; it must match tuple-for-tuple
        assert stream(replayed) == stream(original)
        assert outcome_digest(replayed) == outcome_digest(original)
