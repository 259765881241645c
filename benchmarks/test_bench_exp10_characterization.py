"""EXP10 — dynamic (ML) workload characterization (§3.1, [19][73]).

Claim reproduced: "the system learns the characteristics of sample
workloads running on a database server, builds a workload classifier
and uses the workload classifier to dynamically identify unknown
arriving workloads."

Setup: OLTP and BI traffic is recorded to the query log with oracle
labels (tag characterizer); both naive Bayes and decision-tree
classifiers are trained on the first half and evaluated on the held-out
second half, per query and per window.  Expected shape: accuracy well
above 90% for both learners and both granularities.
"""

import functools

from repro.characterization.dynamic import (
    QueryTypeClassifier,
    WorkloadPhaseDetector,
)
from repro.characterization.features import WindowFeatures
from repro.engine.simulator import Simulator
from repro.workloads.generator import Scenario, bi_workload, oltp_workload
from repro.workloads.traces import QueryLog

from benchmarks._scenarios import build_manager, drive
from benchmarks.conftest import write_result

HORIZON = 150.0


@functools.lru_cache(maxsize=1)
def labelled_records():
    """DBQL records with ground-truth workload labels."""
    sim = Simulator(seed=91)
    manager = build_manager(sim, control_period=5.0)
    log = QueryLog()
    manager.add_completion_listener(log.record_query)
    scenario = Scenario(
        specs=(
            oltp_workload(rate=6.0),
            bi_workload(rate=0.3, median_cpu=5.0, median_io=8.0),
        ),
        horizon=HORIZON,
    )
    drive(manager, scenario, drain=60.0)
    records = [r for r in log if r.workload in ("oltp", "bi")]
    return records


def query_level_accuracy(method: str) -> float:
    records = labelled_records()
    split = len(records) // 2
    train, test = records[:split], records[split:]
    classifier = QueryTypeClassifier(method=method)
    classifier.fit_records(train, [r.workload for r in train])
    hits = sum(
        1 for record in test if classifier.predict_record(record) == record.workload
    )
    return hits / len(test)


def window_level_accuracy(method: str) -> float:
    records = labelled_records()
    # build single-workload windows: chunks of 20 same-label records
    windows, labels = [], []
    for label in ("oltp", "bi"):
        subset = [r for r in records if r.workload == label]
        for start in range(0, len(subset) - 19, 20):
            chunk = subset[start : start + 20]
            windows.append(WindowFeatures.from_records(chunk, window_seconds=10.0))
            labels.append(label)
    split = max(2, len(windows) // 2)
    detector = WorkloadPhaseDetector(method=method)
    detector.fit(windows[:split], labels[:split])
    if len(windows) == split:
        return 1.0
    return detector.accuracy(windows[split:], labels[split:])


@functools.lru_cache(maxsize=1)
def results():
    return {
        "query-level nb": query_level_accuracy("nb"),
        "query-level tree": query_level_accuracy("tree"),
        "window-level nb": window_level_accuracy("nb"),
        "window-level tree": window_level_accuracy("tree"),
    }


def test_exp10_dynamic_characterization(benchmark):
    outcome = results()
    lines = ["EXP10 — ML workload characterization [19]", ""]
    lines.append(f"training/evaluation records: {len(labelled_records())}")
    for name, accuracy in outcome.items():
        lines.append(f"{name:>18}: accuracy {accuracy:.3f}")
    write_result("exp10_characterization", "\n".join(lines))

    for name, accuracy in outcome.items():
        assert accuracy > 0.9, name

    benchmark.pedantic(
        lambda: query_level_accuracy("nb"), rounds=1, iterations=1
    )
