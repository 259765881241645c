"""Self-tests of the ledger's own machinery.

Run with ``PYTHONPATH=src:. python -m pytest benchmarks/ledger`` — not
part of tier-1 (``pyproject.toml`` points pytest at ``tests/``).
"""

from __future__ import annotations

import io
import json
import threading
from pathlib import Path

import pytest

from . import calibration, compare, protocol, seams, tracer as tracing, workloads
from .calibration import CALIB_REF_S, END, REPORT, RUN, SETUP, Meter
from .cli import result_line

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    # seam 0 spans [0, 10]; its children: seam 1 [1, 4] and seam 2
    # [5, 9]; seam 1 has a child of seam 2 [2, 3]
    spans = [
        (0, 0.0, 10.0, -1),
        (1, 1.0, 4.0, 0),
        (2, 2.0, 3.0, 1),
        (2, 5.0, 9.0, 0),
    ]
    totals = tracing.self_times(spans)
    assert totals[0] == (10.0 - 3.0 - 4.0, 1)
    assert totals[1] == (3.0 - 1.0, 1)
    assert totals[2] == (1.0 + 4.0, 2)
    # self times add up to the wall the root covers
    assert sum(self_s for self_s, _ in totals.values()) == 10.0


def test_self_time_of_recursive_spans_is_not_double_counted():
    # seam 0 calls itself twice, innermost does 1 s of work
    spans = [(0, 0.0, 6.0, -1), (0, 1.0, 5.0, 0), (0, 2.0, 3.0, 1)]
    assert tracing.self_times(spans) == {0: (2.0 + 3.0 + 1.0, 3)}


def test_self_time_skips_unfinished_spans_and_honours_since():
    spans = [(0, 0.0, 10.0, -1), None, (1, 6.0, 8.0, 0)]
    assert tracing.self_times(spans) == {0: (8.0, 1), 1: (2.0, 1)}
    # a span that started before ``since`` is not tallied, its child is
    assert tracing.self_times(spans, since=5.0) == {1: (2.0, 1)}


def test_wrapped_calls_record_parent_links_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(seams=(), event_seams=(), schedule_at=None,
                            clock=lambda: float(next(ticks)))

    def leaf():
        return "leaf"

    inner = tracer.wrap(leaf, 1)
    outer = tracer.wrap(lambda: (inner(), inner()), 0)
    assert outer() == ("leaf", "leaf")
    (spans,) = tracer.threads()
    assert spans == [(0, 0.0, 5.0, -1), (1, 1.0, 2.0, 0), (1, 3.0, 4.0, 0)]


def test_a_raising_seam_still_closes_its_span():
    tracer = tracing.Tracer(seams=(), event_seams=(), schedule_at=None)

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(boom, 0)()
    (spans,) = tracer.threads()
    assert spans[0][0] == 0 and spans[0][3] == -1
    assert tracer._state.stack == []


# ----------------------------------------------------------------------
# per-thread stacks
# ----------------------------------------------------------------------
def test_each_thread_has_its_own_stack():
    tracer = tracing.Tracer(seams=(), event_seams=(), schedule_at=None)
    inside = threading.Barrier(2, timeout=10)

    def leaf():
        # both threads are inside their outer span at the same time
        inside.wait()

    inner = tracer.wrap(leaf, 1)
    outer = tracer.wrap(inner, 0)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    # main thread (no spans) + two workers, each a root with one child
    per_thread = [spans for spans in tracer.threads() if spans]
    assert len(per_thread) == 2
    for spans in per_thread:
        assert [(s[0], s[3]) for s in spans] == [(0, -1), (1, 0)]


# ----------------------------------------------------------------------
# normalisation
# ----------------------------------------------------------------------
def test_normalisation_formula():
    # the kernel took twice the reference around the segment: the
    # machine runs at half the reference speed, so 2 s read as 1 s
    assert calibration.normalise(2.0, 2 * CALIB_REF_S, 2 * CALIB_REF_S) == (
        pytest.approx(1.0)
    )
    assert calibration.normalise(2.0, 0.020, 0.040) == pytest.approx(
        2.0 * CALIB_REF_S / 0.030
    )


def _meter(marks, pieces, quiet=False):
    """A meter with hand-made marks ``(phase, start, end)`` and pieces
    ``(wall, last mark before)``."""
    meter = Meter(quiet=quiet)
    meter.marks.extend(marks)
    meter.pieces.extend(pieces)
    return meter


def test_each_piece_is_normalised_by_the_two_spins_around_it():
    ref = CALIB_REF_S
    meter = _meter(
        marks=[
            (SETUP, 0.0, ref),                    # reference speed
            (RUN, 1.0 + ref, 1.0 + 2 * ref),
            # the host halves its speed while the run's first two pieces
            # are at work: the spin after them takes twice as long
            (RUN, 3.0 + 2 * ref, 3.0 + 4 * ref),
            (REPORT, 7.0 + 4 * ref, 7.0 + 6 * ref),
            (END, 8.0 + 6 * ref, 8.0 + 8 * ref),
        ],
        pieces=[(1.0, 0), (1.5, 1), (0.5, 1), (4.0, 2), (1.0, 3)],
    )
    pieces = meter.normalised_pieces()
    assert [phase for phase, _ in pieces] == [SETUP, RUN, RUN, RUN, REPORT]
    assert [value for _, value in pieces] == pytest.approx(
        [1.0, 1.5 / 1.5, 0.5 / 1.5, 4.0 / 2.0, 1.0 / 2.0]
    )
    seconds = calibration.phase_seconds(pieces)
    assert seconds[RUN] == pytest.approx(2.0 / 1.5 + 2.0)
    assert meter.began(RUN) == pytest.approx(1.0 + ref)
    assert meter.spins() == pytest.approx([ref, ref, 2 * ref, 2 * ref, 2 * ref])
    # one spin time for the whole repetition replaces the marks' own
    assert calibration.phase_seconds(meter.normalised_pieces(2 * ref))[RUN] == (
        pytest.approx(3.0)
    )


def test_laps_cut_pieces_and_only_marks_spin():
    meter = Meter()
    meter.mark(SETUP)
    meter.mark(RUN)
    meter.lap()
    meter.lap()
    meter.respin()        # a spin, no boundary
    meter.lap()
    meter.mark(END)
    assert [phase for phase, _, _ in meter.marks] == [SETUP, RUN, RUN, END]
    # set-up, three laps, and the stretch from the last lap to the end
    assert [mark for _, mark in meter.pieces] == [0, 1, 1, 2, 2]
    assert all(spin > CALIB_REF_S / 5 for spin in meter.spins())
    # no piece holds a spin
    assert sum(wall for wall, _ in meter.pieces) < min(meter.spins())


def test_a_quiet_meter_does_not_spin_and_needs_a_spin_time():
    meter = Meter(quiet=True)
    meter.mark(SETUP)
    meter.mark(END)
    (_, start, end), _ = meter.marks
    assert end - start < CALIB_REF_S / 5 and meter.spins() == []
    assert not meter.due()      # ever: the counted repetition counts calls
    with pytest.raises(ValueError):
        meter.normalised_pieces()
    assert meter.normalised_pieces(CALIB_REF_S)[0][1] > 0.0


def _quiet_marks(setup=1.0, run=(1.5, 0.5), report=1.0):
    """A quiet meter with one set-up piece, the given run pieces and
    one report piece, in whole seconds at reference speed."""
    walls = [setup, *run, report]
    marks, clock = [(SETUP, 0.0, 0.0)], setup
    marks.append((RUN, clock, clock))
    clock += sum(run)
    marks.append((REPORT, clock, clock))
    clock += report
    marks.append((END, clock, clock))
    pieces = [(setup, 0), *((wall, 1) for wall in run), (report, 2)]
    assert len(pieces) == len(walls)
    return _meter(marks, pieces, quiet=True)


def _result(**changes):
    fields = dict(digest="d", submitted=10, completed=8, rejected=1, killed=0,
                  in_flight=1, events=5)
    fields.update(changes)
    return workloads.Result(**fields)


def test_the_undisturbed_cost_takes_every_piece_at_its_fastest_repetition():
    reps = [
        protocol.Repetition(_result(), _quiet_marks(run=run, report=report),
                            CALIB_REF_S)
        for run, report in (((1.5, 0.9), 1.0), ((2.5, 0.5), 1.2), ((1.6, 0.6), 3.0))
    ]
    assert [rep.run_s for rep in reps] == pytest.approx([2.4, 3.0, 2.2])
    # with each repetition three times, every choice of 7 of the 9 holds
    # a copy of each piece's fastest; no repetition was this fast as a
    # whole, and the set-up piece is left out
    assert protocol.undisturbed(reps * 3) == pytest.approx(1.5 + 0.5 + 1.0)


def test_the_expected_minimum_does_not_depend_on_how_many_values_there_are():
    from itertools import combinations

    values = [5.0, 3.0, 9.0, 4.0, 7.0, 6.0, 8.0, 3.5, 10.0]
    brute = [min(chosen) for chosen in combinations(values, 7)]
    assert protocol.expected_minimum(values, 7) == pytest.approx(sum(brute) / len(brute))
    assert protocol.expected_minimum(values[:7], 7) == min(values[:7])
    assert protocol.expected_minimum(values, 1) == pytest.approx(sum(values) / len(values))


def test_repetition_metrics_follow_from_the_marks():
    result = _result()
    rep = protocol.Repetition(result, _quiet_marks(), CALIB_REF_S)
    assert (rep.setup_s, rep.run_s, rep.report_s) == pytest.approx((1.0, 2.0, 1.0))
    assert rep.us_per_completion == pytest.approx(3e6 / 8)
    assert rep.raw_wall_s == 4.0
    assert result.balanced and result.failed == 0


def test_verify_names_what_differs():
    def result(**changes):
        fields = dict(digest="d", submitted=10, completed=9, rejected=0,
                      killed=0, in_flight=1, events=20)
        fields.update(changes)
        return workloads.Result(**fields)

    assert protocol.verify([result(), result()]) == []
    problems = protocol.verify(
        [result(), result(digest="e"), result(events=21), result(in_flight=0)]
    )
    assert [p.split(":")[0] for p in problems] == [
        "repetition 1", "repetition 2", "repetition 3"
    ]
    assert "digest" in problems[0] and "events" in problems[1]
    assert "conservation" in problems[2]


# ----------------------------------------------------------------------
# tracing the real program
# ----------------------------------------------------------------------
def test_traced_digest_equals_untraced_and_patches_are_undone():
    # a spinning meter, as in the timed repetitions
    untraced = workloads.closed_mpl8(9, Meter(), horizon=0.2)
    meter = Meter(quiet=True)
    tracer = tracing.Tracer()
    tracer.install()
    sites = [(owner, name, original) for owner, name, original, _ in tracer._patched]
    assert sites and all(vars(o)[n] is not orig for o, n, orig in sites)
    try:
        traced = workloads.closed_mpl8(9, meter, horizon=0.2)
    finally:
        tracer.uninstall()
    # every patched attribute is the very object it was before
    assert all(vars(o)[n] is orig for o, n, orig in sites)
    assert traced.digest == untraced.digest
    assert traced.counters == untraced.counters
    assert tracer.missing == [] and tracer.missing_targets == []

    totals = tracer.totals()
    assert set(totals) == set(tracing.seam_names())
    completed = traced.completed
    assert completed > 0
    assert totals["engine.event.milestone"][1] == completed
    assert totals["workloads.make_query"][1] == traced.submitted
    assert totals["engine.simulator.loop"][1] == workloads.SlicedSimulator.FINE_SLICES
    assert totals["backends.driver.execute"] == (0.0, 0)
    assert totals["cluster.matcher.offer"] == (0.0, 0)
    assert tracer.scheduled >= traced.events
    # the seams' self times account for the traced run + report wall
    rep = protocol.Repetition(traced, meter, CALIB_REF_S)
    assert protocol.coverage(rep, tracer) > 0.9


def test_a_seam_that_no_longer_resolves_is_reported_not_raised(tmp_path):
    table = (
        ("gone.module", ("repro.no_such_module:Thing.method",)),
        ("gone.class", ("repro.cluster.matcher:NoSuchClass.offer",)),
        ("gone.method", ("repro.cluster.matcher:Matcher.no_such_method",)),
        ("gone.function", ("repro.parallel.digest:no_such_function",)),
        ("half.gone", (
            "repro.cluster.matcher:Matcher.offer",
            "repro.cluster.matcher:Matcher.no_such_method",
        )),
    )
    tracer = tracing.Tracer(seams=table, event_seams=seams.EVENT_SEAMS,
                            schedule_at="repro.engine.simulator:Simulator.gone")
    with tracer:
        result = workloads.closed_mpl8(9, Meter(quiet=True), horizon=0.05)
    assert result.balanced
    assert tracer.missing[:4] == ["gone.module", "gone.class", "gone.method",
                                  "gone.function"]
    # without schedule_at no fired action can be named: event seams go too
    assert "engine.event.milestone" in tracer.missing
    assert "half.gone" not in tracer.missing
    assert "repro.cluster.matcher:Matcher.no_such_method" in tracer.missing_targets
    totals = tracer.totals()
    assert totals["gone.class"] is None and totals["half.gone"] == (0.0, 0)
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path, {"workload": "slice"})
    header = json.loads(path.read_text().splitlines()[0])
    assert header["missing_seams"] == tracer.missing


def test_missing_seams_read_null_in_the_ledger_and_zero_for_a_driver():
    reps = [
        protocol.Repetition(
            workloads.Result(digest="d", submitted=4, completed=4, rejected=0,
                             killed=0, in_flight=0, events=8),
            _quiet_marks(), CALIB_REF_S,
        )
    ]
    tracer = tracing.Tracer(schedule_at="repro.engine.simulator:Simulator.gone")
    tracer.missing.append("cluster.matcher.offer")
    layers = protocol.per_layer(reps, reps[0], tracer, counted_calls=None)
    assert set(layers) == set(protocol.per_layer_units())
    assert layers["cluster.matcher.offer.self_us"] is None
    assert layers["host.calls_per_completion"] is None
    assert layers["engine.simulator.events_per_completion"] == 2.0
    entry = {"per_layer": layers, "problems": [], "attempted": 4, "failed": 0}
    line = json.loads(result_line(entry, trace=True))
    assert line["metrics"]["cluster.matcher.offer.self_us"]["value"] == 0.0
    assert line["correct"] is True


def test_trace_file_round_trips_to_the_same_self_times(tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        workloads.closed_mpl8(9, Meter(quiet=True), horizon=0.05)
    path = tmp_path / "trace.jsonl"
    written = tracer.write_jsonl(path, {"workload": "slice"})
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["columns"] == ["thread", "id", "parent", "seam", "start_us", "end_us"]
    assert written == len(lines) - 1
    rows = [json.loads(line) for line in lines[1:]]
    spans = [None] * (max(row[1] for row in rows) + 1)
    for thread, ident, parent, seam, start_us, end_us in rows:
        assert thread == 0
        spans[ident] = (seam, start_us, end_us, parent)
    from_file = tracing.self_times(spans)
    in_memory = tracing.self_times(tracer.threads()[0])
    assert {k: v[1] for k, v in from_file.items()} == {
        k: v[1] for k, v in in_memory.items()
    }
    milestone = header["seams"].index("engine.event.milestone")
    assert from_file[milestone][0] == pytest.approx(
        in_memory[milestone][0] * 1e6, rel=0.01, abs=1.0
    )


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _ledger(us=(96.0, 100.0, 104.0), setup=0.010, rss=50.0, failed=0.01,
            layer=40.0, workload="closed_mpl8", digest="d"):
    def exact(value):
        return {"value": value, "median": value, "q1": value, "q3": value, "n": 1}

    return {"workloads": {workload: {
        "digest": digest, "completed": 100, "events": 200,
        "end_to_end": {
            # the value (undisturbed cost) sits a little under the median
            "us_per_completion": {"value": 0.97 * us[1], "q1": us[0],
                                  "median": us[1], "q3": us[2], "n": 9},
            "setup_s": exact(setup),
            "peak_rss_mb": exact(rss),
            "failed_share": exact(failed),
        },
        "per_layer": {"workloads.make_query.self_us": layer,
                      "workloads.make_query.calls": 1.0,
                      "cluster.matcher.offer.self_us": None},
    }}}


def _verdicts(a, b):
    rows, _ = compare.compare(a, b)
    return {row["metric"]: row["verdict"] for row in rows}


def test_compare_same_code_is_ok():
    assert set(_verdicts(_ledger(), _ledger()).values()) == {"ok"}


def test_compare_worse_needs_separated_quartiles():
    base = _ledger()
    # +30 %, quartile ranges apart: a resolved regression
    assert _verdicts(base, _ledger(us=(125.0, 130.0, 135.0)))["us_per_completion"] == "worse"
    # +12 % median but the ranges overlap: cannot tell
    assert _verdicts(base, _ledger(us=(100.0, 112.0, 120.0)))["us_per_completion"] == "unresolved"
    # medians within the bound, spread wider than the bound
    assert _verdicts(base, _ledger(us=(80.0, 101.0, 125.0)))["us_per_completion"] == "unresolved"
    # a gain is never "worse"
    assert _verdicts(base, _ledger(us=(60.0, 62.0, 64.0)))["us_per_completion"] == "ok"


def test_compare_bounds_per_metric():
    base = _ledger()
    # set-up may move 25 % or 0.02 s, whichever is more
    assert _verdicts(base, _ledger(setup=0.029))["setup_s"] == "ok"
    assert _verdicts(base, _ledger(setup=0.031))["setup_s"] == "worse"
    assert _verdicts(base, _ledger(rss=56.0))["peak_rss_mb"] == "worse"
    # failed_share is exact on a simulator workload ...
    assert _verdicts(base, _ledger(failed=0.0101))["failed_share"] == "worse"
    # ... and has 0.001 of slack on sqlite_replay
    sqlite_a = _ledger(workload="sqlite_replay", failed=0.0)
    assert _verdicts(sqlite_a, _ledger(workload="sqlite_replay", failed=0.0005))["failed_share"] == "ok"
    assert _verdicts(sqlite_a, _ledger(workload="sqlite_replay", failed=0.002))["failed_share"] == "worse"


def test_compare_files_prints_rows_and_movers_and_exits_nonzero(tmp_path):
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(_ledger()))
    path_b.write_text(json.dumps(_ledger(us=(125.0, 130.0, 135.0), layer=70.0, digest="e")))
    out = io.StringIO()
    assert compare.compare_files(path_a, path_b, out=out) == 1
    text = out.getvalue()
    assert "worse" in text and "digest DIFFERS" in text
    assert "workloads.make_query.self_us" in text and "(+30.00)" in text
    out = io.StringIO()
    assert compare.compare_files(path_a, path_a, out=out) == 0
    assert "worse" not in out.getvalue()


# ----------------------------------------------------------------------
# the committed contract
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_package():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["paths"] == ["benchmarks/ledger"]
    assert (ROOT / doc["command"][1]).is_file()
    units = protocol.per_layer_units()
    assert len(units) == 98 and len(tracing.seam_names()) == 43
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(units.items())
    end_to_end = {m["name"]: m for m in doc["end_to_end"]}
    assert set(end_to_end) == {"us_per_completion", "setup_s", "peak_rss_mb",
                               "completed_share"}
    for name in ("us_per_completion", "setup_s", "peak_rss_mb"):
        assert end_to_end[name]["unit"] == protocol.END_TO_END_UNITS[name]
        # the driver's bound must also hold this sandbox's ten-seed
        # spread, so it may be wider than --compare's, never tighter
        assert end_to_end[name]["bound"] >= compare.BOUNDS[name][0]


def test_cluster_spec_is_committed_and_loads():
    from repro.scenarios import load_scenario_file

    spec = load_scenario_file(workloads.SPEC_DIR / "cluster_256.json")
    assert (spec.nodes, spec.mpl, spec.horizon) == (256, 2, 2.0)
    assert [tenant.name for tenant in spec.tenants] == ["web", "analytics"]
    assert spec.chaos.crash_waves == 3 and len(spec.chaos.degrade) == 128
