"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestFigure:
    def test_figure(self, capsys):
        assert main(["figure"]) == 0
        out = capsys.readouterr().out
        assert "FIGURE 1" in out
        assert "Execution Control" in out

    def test_figure_annotated(self, capsys):
        assert main(["figure", "--annotate"]) == 0
        assert "Class definitions" in capsys.readouterr().out


class TestTables:
    def test_all_tables(self, capsys):
        assert main(["tables"]) == 0
        assert capsys.readouterr().out.count("TABLE ") == 5

    @pytest.mark.parametrize("which", ["1", "2", "3", "4", "5"])
    def test_single_table(self, which, capsys):
        assert main(["tables", which]) == 0
        assert f"TABLE {which}" in capsys.readouterr().out

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["tables", "9"])


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--seed", "7", "--horizon", "10"]) == 0
        out = capsys.readouterr().out
        assert "oltp" in out
        assert "xput" in out


class TestCluster:
    def test_cluster_runs_and_prints_rollup_and_timeline(self, capsys):
        code = main(
            ["cluster", "--nodes", "2", "--seed", "7", "--horizon", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "CLUSTER ROLLUP" in out
        assert "CLUSTER TIMELINE" in out
        assert "n0 |" in out and "n1 |" in out
        assert "oltp" in out

    def test_cluster_kill_node(self, capsys):
        code = main(
            [
                "cluster",
                "--nodes", "2",
                "--policy", "round-robin",
                "--seed", "7",
                "--horizon", "10",
                "--kill-node", "n1",
                "--kill-at", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "killing n1" in out
        assert "x" in out  # down interval marked on the timeline

    def test_cluster_kill_unknown_node_is_one_line_and_exit_2(self, capsys):
        code = main(["cluster", "--nodes", "2", "--kill-node", "n9"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "unknown node 'n9'" in err and "n0" in err and "n1" in err

    def test_cluster_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--policy", "dartboard"])


class TestBadInput:
    @pytest.mark.parametrize(
        "argv,names",
        [
            (["sweep", "--policies", "dartboard"], "dartboard"),
            (["sweep", "--horizon", "-1", "--workers", "2"], "horizon"),
            (["cluster", "--nodes", "2", "--kill-node", "n1", "--kill-at", "-3"], "n1"),
            (["cluster", "--horizon", "0"], "horizon"),
            (["cluster", "--horizon", "0", "--kill-node", "n1"], "horizon"),
            (["cluster", "--kill-node", "n1", "--kill-at", "9", "--recover-at", "9"],
             "recover"),
            # the seconds the user typed, not fractions of the horizon
            (["cluster", "--kill-node", "n1", "--kill-at", "100", "--horizon", "30"],
             "at t=100s: must be in [0, 30]s"),
            (["cluster", "--kill-node", "n1", "--kill-at", "10", "--recover-at", "5",
              "--horizon", "30"], "at t=10s must recover later, not at t=5s"),
            (["scenario", "run", "--policy", "push/dartboard"], "dartboard"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_one_error_line_exit_2_no_traceback(self, argv, names, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"{argv[0]} error: ") and names in err

    @pytest.mark.parametrize(
        "verb,argv",
        [
            # a seed numpy cannot take, on every verb that takes one
            ("demo", "--seed -1"),
            ("cluster", "--seed -1"),
            ("scenario", "run --seed -1"),
            ("backend", "run --seed -1"),
            ("backend", "compare --seed -1"),
            ("sweep", "--seeds 42 -1"),
            ("scenario", "sweep --seeds -1"),
            # a horizon that would simulate nothing
            ("demo", "--horizon -1"),
            ("demo", "--horizon 0"),
            # unknown names and missing files
            ("scenario", "run --name nope"),
            ("scenario", "run --policy nope"),
            ("backend", "run --workloads nope"),
            ("scenario", "run --spec {tmp}/missing.json"),
            ("backend", "calibrate --trace-in {tmp}/missing.jsonl"),
            # an unwritable output fails before the run, not after it
            ("backend", "run --horizon 1 --trace-out {tmp}/no-such-dir/t.jsonl"),
            ("backend", "compare --horizon 1 --trace-out {tmp}/no-such-dir/t.jsonl"),
            # out-of-range numbers
            ("backend", "run --horizon 1 --time-scale 0"),
            ("backend", "compare --horizon 1 --time-scale 0"),
            ("backend", "run --horizon 1 --rows 0"),
            ("backend", "run --horizon 1 --mpl 0"),
            ("backend", "run --horizon 1 --max-rate -1"),
            ("backend", "run --horizon 1 --sleep-fraction 1.5"),
            ("sweep", "--workers 0"),
            ("scenario", "sweep --workers 0"),
            ("cluster", "--nodes 0"),
        ],
        ids=lambda value: value.split("{")[0].strip(),
    )
    def test_bad_input_corpus(self, verb, argv, tmp_path, capsys):
        try:
            code = main([verb, *argv.format(tmp=tmp_path).split()])
        except SystemExit as exited:  # argparse rejected it before the verb ran
            code = exited.code
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert code == 2
        assert len(errors) == 1 and verb in errors[0], err
        assert "Traceback" not in err


class TestClassify:
    def test_classify_known_features(self, capsys):
        code = main(
            ["classify", "acts_at_runtime", "pauses_running_request"]
        )
        assert code == 0
        assert "Request Throttling" in capsys.readouterr().out

    def test_classify_unknown_feature(self, capsys):
        assert main(["classify", "not_a_feature"]) == 2
        assert "unknown feature" in capsys.readouterr().out

    def test_classify_unmatched_set(self, capsys):
        assert main(["classify", "uses_thresholds"]) == 1
        assert "no taxonomy class" in capsys.readouterr().out

    def test_features_listing(self, capsys):
        assert main(["features"]) == 0
        assert "ACTS_AT_RUNTIME" in capsys.readouterr().out


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBackend:
    RUN_FLAGS = [
        "backend",
        "run",
        "--workloads", "oltp",
        "--horizon", "5",
        "--time-scale", "0.002",
        "--seed", "3",
        "--mpl", "2",
        "--rows", "1000",
    ]

    def test_run_executes_and_reports(self, capsys):
        assert main(self.RUN_FLAGS) == 0
        out = capsys.readouterr().out
        assert "planned statements on sqlite" in out
        assert "completed" in out
        assert "mean_rt" in out

    def test_run_writes_a_trace_and_calibrate_consumes_it(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(self.RUN_FLAGS + ["--trace-out", str(trace)]) == 0
        assert trace.exists()
        out = capsys.readouterr().out
        assert "trace records" in out

        assert main(
            ["backend", "calibrate", "--trace-in", str(trace),
             "--time-scale", "0.002"]
        ) == 0
        out = capsys.readouterr().out
        assert "fitted" in out
        assert "mean |service error|" in out

    def test_calibrate_requires_a_trace(self, capsys):
        assert main(["backend", "calibrate"]) == 2
        assert "--trace-in" in capsys.readouterr().out

    def test_compare_prints_policy_deltas(self, capsys):
        code = main(
            [
                "backend", "compare",
                "--workloads", "oltp",
                "--horizon", "4",
                "--time-scale", "0.002",
                "--seed", "5",
                "--mpl", "2",
                "--rows", "1000",
                "--cost-limit", "1.0",
                "--sleep-fraction", "0.5",
                "--throttle-workloads", "oltp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy: admission" in out
        assert "policy: throttling" in out
        assert "calibration" in out

    def test_unknown_workload_rejected(self, capsys):
        # a bad-input exit 2, not SystemExit(str) and exit 1
        assert main(["backend", "run", "--workloads", "webscale"]) == 2
        assert "unknown workload 'webscale'" in capsys.readouterr().err

    def test_rejects_unknown_verb(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["backend", "explode"])
