"""The determinism contract: parallel == serial, bit for bit.

The hypothesis property drives randomly-shaped task grids through the
runner at 1, 2 and 4 workers and requires identical ordered digests —
worker count and completion order must be unobservable in the reduced
output.  The cluster test does the same with the real scenario task
and the user-facing rollup table.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel import make_task, run_tasks
from repro.scenarios.sweep import rollup_table, run_scenario_matrix, scenario_task
from tests.parallel.helpers import quick_task

small_grids = st.dictionaries(
    keys=st.sampled_from(["alpha", "beta", "gamma"]),
    values=st.lists(
        st.integers(min_value=0, max_value=99), min_size=1, max_size=3, unique=True
    ),
    max_size=2,
)
seed_lists = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=3, unique=True
)


@given(grid=small_grids, seeds=seed_lists)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_parallel_digests_equal_serial_for_any_sweep(grid, seeds):
    tasks = [
        make_task(quick_task, seed=seed, **dict(zip(grid, point)))
        for point in itertools.product(*grid.values())
        for seed in seeds
    ]
    serial = run_tasks(tasks, workers=1)
    two = run_tasks(tasks, workers=2)
    four = run_tasks(tasks, workers=4)
    assert serial.digest == two.digest == four.digest
    assert (
        [o.task.key for o in serial.outcomes]
        == [o.task.key for o in two.outcomes]
        == [o.task.key for o in four.outcomes]
    )


def test_cluster_sweep_rollup_is_worker_count_independent():
    kwargs = dict(
        scenarios=["cluster_overload"],
        policies=["push/round-robin", "push/least"],
        seeds=(42, 43),
        nodes=3,
        horizon=8.0,
        mpl=2,
    )
    serial = run_scenario_matrix(workers=1, **kwargs)
    parallel = run_scenario_matrix(workers=2, **kwargs)
    assert serial.digest == parallel.digest
    assert rollup_table(serial) == rollup_table(parallel)
    # per-run payloads (minus wall timings) are identical too
    for a, b in zip(serial.values, parallel.values):
        sa = {k: v for k, v in a.items() if k != "task_wall_s"}
        sb = {k: v for k, v in b.items() if k != "task_wall_s"}
        assert sa == sb


def test_sweep_row_and_cluster_rollup_agree_on_response_aggregates():
    """One percentile definition: a ``scenario`` task row reports the
    mean, p95 and measured in-flight that ``ClusterMetrics.rollup`` and
    the dispatcher give for an in-process run of the same spec and seed
    (what the ``python -m repro cluster`` table prints)."""
    from repro.scenarios import get_policy, get_scenario, run_scenario

    spec, policy = get_scenario("cluster_overload", horizon=20.0), get_policy("push/cost")
    row = scenario_task(seed=42, spec=spec, policy=policy, drain=5.0)
    dispatcher = run_scenario(spec, policy, seed=42, drain=5.0).dispatcher
    (section,) = row["tenants"].values()
    assert set(section["workloads"]) == {"oltp", "bi"}
    for workload, stats in section["workloads"].items():
        roll = dispatcher.metrics.rollup(workload)
        assert stats["p95"] == roll.percentile_response_time(95.0)
        assert stats["mean"] == roll.mean_response_time()
    # the short drain leaves BI scans running: in-flight is not trivially 0
    assert row["in_flight"] == dispatcher.outstanding_work() > 0
    assert row["arrivals"] == row["completed"] + row["rejected"] + row["in_flight"]
