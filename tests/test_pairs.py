"""``benchmarks/pairs.py``'s reducer, on fabricated ledger output.

No ledger runs here: the records are what ``measure`` would collect from
ledger runs whose standard output ends with their JSON object.
"""

import json

import pytest

from benchmarks import pairs

END_TO_END = [
    {"name": "us_per_completion", "better": "lower"},
    {"name": "completed_share", "better": "higher"},
]


def _stdout(us, share, correct=True):
    final = {
        "correct": correct,
        "attempted": 100,
        "failed": 0,
        "metrics": {
            "us_per_completion": {"value": us, "unit": "us"},
            "completed_share": {"value": share, "unit": "share"},
        },
    }
    return "== closed_mpl96  seed 8\n   digest ab\n" + json.dumps(final) + "\n"


def _records(ref_us, change_us, workload="closed_mpl96"):
    records = []
    for seed, (ref, change) in enumerate(zip(ref_us, change_us), start=1):
        for side, us in (("ref", ref), ("change", change)):
            result = pairs.last_json(_stdout(us, 0.98))
            records.append({"workload": workload, "side": side, "seed": seed, "result": result})
    return records


def test_last_json_reads_the_final_object():
    assert pairs.last_json(_stdout(75.0, 0.98))["metrics"]["us_per_completion"]["value"] == 75.0
    assert pairs.last_json("no object here\n") is None


def test_a_clear_gain_is_better_in_every_pair_and_beyond_the_iqr():
    ref = [75.6, 72.3, 76.0, 75.2, 74.9, 75.8, 73.9, 76.4, 75.0, 74.1]
    change = [62.3, 62.0, 63.4, 61.5, 62.8, 63.0, 61.9, 62.2, 62.6, 63.1]
    rows = pairs.reduce(_records(ref, change), END_TO_END)
    us = next(row for row in rows if row["metric"] == "us_per_completion")
    assert us["better"] == 10 and us["pairs"] == 10 and us["beyond_iqr"]
    assert us["ref"][1] == pytest.approx(75.1) and us["change"][1] == pytest.approx(62.45)
    assert us["delta"] < -0.16
    share = next(row for row in rows if row["metric"] == "completed_share")
    assert share["better"] == 0 and not share["beyond_iqr"]  # equal is not better


def test_noise_is_neither_better_nor_beyond_the_iqr():
    ref = [70.0, 80.0, 72.0, 78.0]
    change = [79.0, 71.0, 77.0, 73.0]
    (us, _) = pairs.reduce(_records(ref, change), END_TO_END)
    assert us["better"] == 2 and not us["beyond_iqr"]
    text = pairs.format_rows([us])
    assert "closed_mpl96" in text and " 2/4" in text and text.rstrip().endswith("no")


def test_pairs_join_by_seed_and_a_failed_run_is_reported():
    records = _records([75.0, 74.0], [62.0, 61.0])
    records.append(
        {"workload": "closed_mpl96", "side": "ref", "seed": 3, "result": {"correct": False}}
    )
    (us, _) = pairs.reduce(records, END_TO_END)
    assert us["pairs"] == 2  # seed 3 has no change run
    assert pairs.failures(records) == ["closed_mpl96 ref seed 3"]


def test_a_run_that_is_not_correct_is_not_folded():
    records = _records([75.0, 74.0, 73.0], [62.0, 61.0, 90.0])
    records[-1]["result"] = pairs.last_json(_stdout(90.0, 0.98, correct=False))
    (us, _) = pairs.reduce(records, END_TO_END)
    assert us["pairs"] == 2 and us["better"] == 2
    assert pairs.failures(records) == ["closed_mpl96 change seed 3"]


def test_quartiles_match_the_ledger_summary():
    values = [72.3, 73.9, 74.1, 74.9, 75.0, 75.2, 75.6, 75.8, 76.0, 76.4]
    q1, median, q3 = pairs.quartiles(values)
    assert (q1, median, q3) == pytest.approx((74.05, 75.1, 75.85))
