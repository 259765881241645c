"""The bench gate's ``check`` and baseline handling, on synthetic dicts.

No scenario runs here: ``run_row`` is replaced where ``main`` is driven,
so these tests pin only what decides the exit status.
"""

import copy
import json

import pytest

from benchmarks.perf import gate

DIGEST = "ab" * 32

ENTRY = {
    "digest": DIGEST,
    "submitted": 10,
    "completed": 9,
    "events": 40,
    "sim_time": 105.60000000000001,
    "wall_s": 1.0,
}


def _result(**overrides):
    result = dict(ENTRY, invariants={"conserved": True})
    result.update(overrides)
    return result


def _check(results, committed, declared=None):
    lines = []
    declared = list(results) if declared is None else declared
    return gate.check(results, committed, declared, log=lines.append), lines


def test_equal_result_passes():
    ok, _ = _check({"r": _result()}, {"r": ENTRY})
    assert ok


def test_digest_mismatch_fails_naming_the_row():
    flipped = "ba" + DIGEST[2:]
    ok, lines = _check({"r": _result(digest=flipped)}, {"r": ENTRY})
    assert not ok
    assert any("FAIL r: digest" in line for line in lines)


@pytest.mark.parametrize("counter", ["submitted", "completed", "events", "sim_time"])
def test_any_counter_mismatch_fails(counter):
    ok, lines = _check({"r": _result(**{counter: ENTRY[counter] + 1})}, {"r": ENTRY})
    assert not ok
    assert any(f"FAIL r: {counter}" in line for line in lines)


def test_committed_counter_the_run_lacks_fails():
    ok, _ = _check({"r": _result()}, {"r": dict(ENTRY, polls=3)})
    assert not ok


def test_missing_committed_entry_fails():
    ok, lines = _check({"r": _result()}, {})
    assert not ok
    assert any("FAIL r: no committed entry" in line for line in lines)


def test_committed_entry_without_digest_fails():
    entry = {k: v for k, v in ENTRY.items() if k != "digest"}
    ok, _ = _check({"r": _result()}, {"r": entry})
    assert not ok


def test_orphan_committed_entry_fails():
    ok, lines = _check({"r": _result()}, {"r": ENTRY, "renamed": ENTRY})
    assert not ok
    assert any("FAIL renamed" in line for line in lines)


def test_unselected_declared_row_is_not_an_orphan():
    ok, _ = _check({"r": _result()}, {"r": ENTRY, "s": ENTRY}, declared=["r", "s"])
    assert ok


def test_failed_invariant_fails():
    ok, lines = _check({"r": _result(invariants={"conserved": False})}, {"r": ENTRY})
    assert not ok
    assert any("invariant conserved" in line for line in lines)


def test_wall_ten_times_recorded_passes_with_advisory_line():
    ok, lines = _check({"r": _result(wall_s=10.0)}, {"r": ENTRY})
    assert ok
    assert any("10.00x" in line for line in lines)
    assert any("advisory" in line for line in lines)


@pytest.fixture
def fake_gate(tmp_path, monkeypatch):
    """``main`` over a temporary baseline, with ``run_row`` stubbed."""
    path = tmp_path / "BENCH_core.json"
    baseline = {
        "ci": {row.name: ENTRY for row in gate.ROWS if "ci" in row.params},
        "full": {"high_mpl": ENTRY},
        "history": {"note": "kept"},
    }
    path.write_text(json.dumps(baseline))
    monkeypatch.setattr(gate, "BASELINE_PATH", path)
    monkeypatch.setattr(
        gate, "run_row", lambda row, mode, workers=1: _result(completed=7)
    )
    return path, baseline


def test_main_exit_status_follows_check(fake_gate, capsys):
    assert gate.main(["--only", "cluster"]) == 1
    assert "FAIL cluster: completed 7 != committed 9" in capsys.readouterr().out


def test_update_baseline_writes_only_the_rows_and_mode_it_ran(fake_gate):
    path, before = fake_gate
    assert gate.main(["--only", "cluster", "--update-baseline"]) == 0
    after = json.loads(path.read_text())
    expected = copy.deepcopy(before)
    expected["ci"]["cluster"] = dict(ENTRY, completed=7)
    assert after == expected
    assert gate.main(["--only", "cluster"]) == 0


def test_update_baseline_prints_what_it_overwrites(fake_gate, capsys, monkeypatch):
    """The re-baseline evidence is read from the entry being replaced:
    old → new digest, and every gated counter that moved, by name."""
    short, flipped = DIGEST[:12], "ba" + DIGEST[2:]
    assert gate.main(["--only", "cluster", "--update-baseline"]) == 0
    assert f"  cluster: {short} → {short}  completed 9 → 7" in capsys.readouterr().out
    monkeypatch.setattr(
        gate, "run_row", lambda row, mode, workers=1: _result(digest=flipped, completed=7)
    )
    assert gate.main(["--only", "cluster", "--update-baseline"]) == 0
    assert f"  cluster: {short} → {flipped[:12]}  digest only" in capsys.readouterr().out


def test_describe_rerecord_of_an_equal_or_a_new_entry():
    assert gate.describe_rerecord("r", ENTRY, dict(ENTRY, wall_s=9.0)) == (
        f"  r: {DIGEST[:12]} unchanged"
    )
    assert gate.describe_rerecord("r", None, ENTRY) == "  r: new entry"


def test_describe_rerecord_of_an_events_only_move_is_one_line_per_completion():
    assert gate.describe_rerecord("r", ENTRY, dict(ENTRY, events=27)) == (
        f"  r: {DIGEST[:12]} digest unchanged  events 40 → 27 (4.44 → 3.00 per completion)"
    )
    # anything else moving with it, or the digest, keeps the general form
    both = gate.describe_rerecord("r", ENTRY, dict(ENTRY, events=27, submitted=11))
    assert both == f"  r: {DIGEST[:12]} → {DIGEST[:12]}  submitted 10 → 11, events 40 → 27"
    flipped = "ba" + DIGEST[2:]
    moved = gate.describe_rerecord("r", ENTRY, dict(ENTRY, digest=flipped, events=27))
    assert moved == f"  r: {DIGEST[:12]} → {flipped[:12]}  events 40 → 27"


def test_describe_rerecord_names_keys_the_old_entry_did_not_gate():
    old = {k: v for k, v in ENTRY.items() if k not in ("events", "sim_time")}
    flipped = "ba" + DIGEST[2:]
    assert gate.describe_rerecord("r", old, dict(ENTRY, digest=flipped)) == (
        f"  r: {DIGEST[:12]} → {flipped[:12]}  digest only; "
        "newly gated: events=40, sim_time=105.60000000000001"
    )
    assert "polls 3 → dropped" in gate.describe_rerecord("r", dict(ENTRY, polls=3), ENTRY)


def test_unknown_row_is_a_usage_error(fake_gate, capsys):
    path, before = fake_gate
    for argv in (
        ["--only", "matcher_push_256"],  # declared for full only: gating it in ci
        ["--only", "no_such_row"],
        ["--only", "no_such_row", "--update-baseline"],
        ["--mode", "full", "--only", "cluster,no_such_row", "--update-baseline"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            gate.main(argv)
        assert excinfo.value.code == 2, argv
    # re-recording skips a row only the other mode declares, so
    # `make bench-baseline ROWS=matcher_push_256` reaches its full step
    capsys.readouterr()
    assert gate.main(["--only", "matcher_push_256", "--update-baseline"]) == 0
    assert "skipping matcher_push_256: no ci row" in capsys.readouterr().out
    assert json.loads(path.read_text()) == before
    assert gate.main(["--only", "cluster,matcher_push_256", "--update-baseline"]) == 0
    assert json.loads(path.read_text())["ci"]["cluster"] == dict(ENTRY, completed=7)


def test_table_matches_the_committed_file():
    names = [row.name for row in gate.ROWS]
    assert len(set(names)) == len(names)
    baseline = json.loads(gate.BASELINE_PATH.read_text())
    assert set(baseline) == set(gate.MODES) | {"history"}
    in_table = {(row.name, mode) for row in gate.ROWS for mode in row.params}
    in_file = {(name, mode) for mode in gate.MODES for name in baseline[mode]}
    assert in_table == in_file
