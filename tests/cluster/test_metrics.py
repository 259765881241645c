"""Cluster-metrics tests: rollups, tables, timeline lanes."""

import numpy as np
import pytest

from repro.cluster import ClusterDispatcher, ClusterNode, make_policy
from repro.core.metrics import WorkloadStats
from repro.engine.simulator import Simulator
from repro.reporting.figures import ascii_cluster_timeline
from repro.scenarios import get_policy, get_scenario, run_scenario

from tests.conftest import make_query


def _run_cluster(seed=5, count=2, queries=8):
    sim = Simulator(seed=seed)
    nodes = [ClusterNode(sim, name=f"n{i}", mpl=2) for i in range(count)]
    dispatcher = ClusterDispatcher(
        sim, nodes, placement=make_policy("round-robin")
    )
    for index in range(queries):
        query = make_query(cpu=0.5, io=0.2, sql="oltp:q")
        sim.schedule_at(0.2 * index, lambda q=query: dispatcher.submit(q))
    dispatcher.run(2.0, drain=60.0)
    return sim, dispatcher


class TestRollup:
    def test_rollup_merges_across_nodes(self):
        sim, dispatcher = _run_cluster()
        roll = dispatcher.metrics.rollup("oltp")
        assert roll.completions == 8
        per_node = sum(
            node.manager.metrics.stats_for("oltp").completions
            for node in dispatcher.nodes
        )
        assert per_node == 8  # nothing double counted
        assert roll.mean_response_time() > 0.0
        assert roll.percentile_response_time(95.0) >= 0.0
        assert roll.mean_queue_delay() is not None

    def test_empty_workload_rollup_is_none(self):
        sim, dispatcher = _run_cluster(queries=0)
        roll = dispatcher.metrics.rollup("ghost")
        assert roll.completions == 0
        assert roll.mean_response_time() is None

    def test_empty_merge_has_no_statistics(self):
        merged = WorkloadStats.merged([WorkloadStats("a"), WorkloadStats("a")], "a")
        assert merged == WorkloadStats("a")
        assert merged.mean_response_time() is None
        assert merged.percentile_response_time(95.0) is None
        assert merged.mean_queue_delay() is None
        assert merged.mean_velocity() is None
        assert merged.throughput(10.0, 5.0) == 0.0

    def test_node_placement_counts_sum_to_the_rollup_total(self):
        sim, dispatcher = _run_cluster()
        assert sum(node.placed_count for node in dispatcher.nodes) == 8
        assert "8 placements" in dispatcher.metrics.rollup_table(sim.now)


def _rollup_oracle(nodes, workload):
    """The hand-rolled rollup ``WorkloadStats.merged`` replaced: series
    extended in node order, reduced with numpy.  Lives only here, as the
    reference the merge is compared with bit for bit."""
    completions = rejections = kills = 0
    response_times, queue_delays = [], []
    for node in nodes:
        stats = node.manager.metrics.stats_for(workload)
        completions += stats.completions
        rejections += stats.rejections
        kills += stats.kills
        response_times.extend(stats.response_times)
        queue_delays.extend(stats.queue_delays)
    mean = p95 = queue_delay = None
    if response_times:
        arr = np.asarray(response_times, dtype=float)
        mean = float(np.mean(arr))
        p95 = float(np.percentile(arr, 95.0))
    if queue_delays:
        queue_delay = float(np.mean(np.asarray(queue_delays)))
    return completions, rejections, kills, mean, p95, queue_delay


class TestMergeOracle:
    @pytest.fixture(scope="class")
    def dispatcher(self):
        # 4 nodes, two of them crashed mid-run: crash kills are recorded
        return run_scenario(
            get_scenario("churn"), get_policy("baseline"), seed=42
        ).dispatcher

    @pytest.mark.parametrize("workload", ["red/oltp", "blue/bi", "ghost"])
    def test_rollup_is_bit_identical_to_the_oracle(self, dispatcher, workload):
        roll = dispatcher.metrics.rollup(workload)
        assert (
            roll.completions,
            roll.rejections,
            roll.kills,
            roll.mean_response_time(),
            roll.percentile_response_time(95.0),
            roll.mean_queue_delay(),
        ) == _rollup_oracle(dispatcher.nodes, workload)
        assert roll.workload == workload
        assert (roll.completions > 0) == (workload != "ghost")

    def test_merged_throughput_is_the_sum_of_the_parts(self, dispatcher):
        parts = [n.manager.metrics.stats_for("red/oltp") for n in dispatcher.nodes]
        assert all(part.completions for part in parts)
        merged = WorkloadStats.merged(parts, "red/oltp")
        assert merged.completion_times == sorted(merged.completion_times)
        now = dispatcher.sim.now
        for window in (0.6 * now, 0.9 * now, 2 * now):
            total = sum(part.throughput(window, now) for part in parts)
            assert total > 0.0
            assert merged.throughput(window, now) == pytest.approx(total)


class TestRendering:
    def test_rollup_table_mentions_workloads_and_nodes(self):
        sim, dispatcher = _run_cluster()
        table = dispatcher.metrics.rollup_table(sim.now)
        assert "oltp" in table
        assert "n0=" in table and "n1=" in table
        assert "CLUSTER ROLLUP" in table

    def test_timeline_lanes_shapes(self):
        sim, dispatcher = _run_cluster()
        lanes = dispatcher.metrics.timeline_lanes(sim.now, bins=32)
        assert set(lanes) == {"n0", "n1"}
        assert all(len(lane) == 32 for lane in lanes.values())

    def test_timeline_marks_crashed_interval(self):
        sim, dispatcher = _run_cluster()
        node = dispatcher.node("n1")
        dispatcher.crash_node(node)
        lanes = dispatcher.metrics.timeline_lanes(sim.now + 10.0, bins=32)
        assert "x" in lanes["n1"]
        assert "x" not in lanes["n0"]

    def test_ascii_cluster_timeline_renders(self):
        sim, dispatcher = _run_cluster()
        lanes = dispatcher.metrics.timeline_lanes(sim.now, bins=16)
        art = ascii_cluster_timeline(lanes, sim.now)
        assert "n0 |" in art and "n1 |" in art
        assert "0s" in art

    def test_ascii_cluster_timeline_validates_input(self):
        with pytest.raises(ValueError):
            ascii_cluster_timeline({}, 10.0)
        with pytest.raises(ValueError):
            ascii_cluster_timeline({"a": "##", "b": "###"}, 10.0)
