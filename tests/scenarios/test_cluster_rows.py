"""The cluster gate rows over ``run_scenario``: continuity and conservation.

The bespoke EXP18 runner is gone; what it computed is pinned here against
the entry it recorded in ``BENCH_core.json``, so the one remaining runner
is held to the old one's exact outcome stream.
"""

import json

from benchmarks.perf import gate
from benchmarks.perf.scenarios import cluster_row
from repro.scenarios import get_policy, get_scenario, run_scenario
from repro.scenarios.sweep import scenario_matrix_tasks, scenario_task


def _killed_n1_run(horizon=12.0, drain=212.0):
    spec = get_scenario(
        "cluster_overload", nodes=4, horizon=horizon, crashes=((0.45, "n1", 0.7),)
    )
    return run_scenario(spec, get_policy("push/cost"), seed=19, drain=drain)


def test_run_scenario_reproduces_the_committed_ci_cluster_entry():
    committed = json.loads(gate.BASELINE_PATH.read_text())["ci"]["cluster"]
    row = cluster_row(_killed_n1_run())
    gated = {key: row[key] for key in committed if key not in gate.ADVISORY}
    assert gated == {k: v for k, v in committed.items() if k not in gate.ADVISORY}
    # what the bespoke runner recorded is still gated (a re-record adds
    # whatever else ``cluster_row`` reports: ``rejected``, ``arrivals``)
    assert set(gated) >= {
        "digest", "submitted", "completed", "events", "resubmitted", "sim_time"
    }
    assert row["invariants"] == {"conserved": True}


def test_conservation_is_measured_so_a_dropped_completion_breaks_it():
    result = _killed_n1_run(horizon=6.0, drain=2.0)
    assert result.dispatcher.outstanding_work() > 0  # not trivially drained
    assert cluster_row(result)["invariants"]["conserved"]
    result.dispatcher.completions -= 1
    assert not cluster_row(result)["invariants"]["conserved"]


def test_one_task_runs_every_cluster_scenario():
    assert {task.fn for task in scenario_matrix_tasks()} == {scenario_task}
    assert gate.runs.run_cluster_row in {row.runner for row in gate.ROWS}
