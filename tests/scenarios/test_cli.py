"""`python -m repro scenario ...`: happy paths and exit-code contract.

Invalid input — unknown scenario names, malformed spec files, a YAML
spec without PyYAML installed — must produce a one-line error on
stderr and exit code 2, never a traceback.
"""

import json

import pytest

from repro.cli import main
from repro.scenarios.matrix import policy_names, scenario_names


class TestScenarioList:
    def test_lists_scenarios_and_policies(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
        for name in policy_names():
            assert name in out


class TestScenarioRun:
    def test_run_prints_detail_and_digest(self, capsys):
        code = main(
            [
                "scenario", "run",
                "--name", "noisy_neighbor",
                "--policy", "quotas",
                "--seed", "7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "noisy_neighbor" in out
        assert "acme" in out
        assert "digest" in out

    def test_run_from_spec_file(self, capsys, tmp_path):
        from repro.scenarios.matrix import get_scenario

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(get_scenario("diurnal_mix").as_dict()))
        assert main(["scenario", "run", "--spec", str(path)]) == 0
        assert "diurnal_mix" in capsys.readouterr().out


class TestScenarioSweepAndReport:
    ARGS = ["--scenarios", "noisy_neighbor", "--policies", "baseline,quotas"]

    def test_sweep_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code = main(
            ["scenario", "sweep", *self.ARGS, "--json", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["digest"]
        assert len(payload["results"]) == 4  # 2 policies x (run + companion)

    def test_report_from_sweep_json(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        assert (
            main(["scenario", "sweep", *self.ARGS, "--json", str(out_path)])
            == 0
        )
        capsys.readouterr()
        report_path = tmp_path / "report.md"
        code = main(
            [
                "scenario", "report",
                "--json", str(out_path),
                "--out", str(report_path),
            ]
        )
        assert code == 0
        report = report_path.read_text()
        assert "Scenario survival matrix" in report
        assert "noisy_neighbor" in report


class TestExitCodes:
    def _fails_cleanly(self, capsys, argv, needle):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert f"{argv[0]} error:" in captured.err
        assert needle in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_scenario(self, capsys):
        self._fails_cleanly(
            capsys, ["scenario", "run", "--name", "nope"], "unknown scenario"
        )

    def test_unknown_policy(self, capsys):
        self._fails_cleanly(
            capsys, ["scenario", "run", "--policy", "nope"], "unknown policy"
        )

    def test_unknown_sweep_names(self, capsys):
        self._fails_cleanly(
            capsys,
            ["scenario", "sweep", "--scenarios", "nope"],
            "unknown scenario 'nope'",
        )

    def test_sweep_resolves_every_name_run_and_list_know(self, capsys):
        argv = "scenario sweep --scenarios cluster_overload --policies push/cost"
        assert main([*argv.split(), "--seeds", "42", "43"]) == 0
        assert "2 runs" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["sweep", "report"])
    def test_unwritable_output_fails_before_any_run(
        self, capsys, tmp_path, monkeypatch, verb
    ):
        import repro.scenarios.sweep as sweep_module

        def no_run(*args, **kwargs):
            raise AssertionError("a task ran before the output path check")

        monkeypatch.setattr(sweep_module, "run_tasks", no_run)
        flag = "--json" if verb == "sweep" else "--out"
        self._fails_cleanly(
            capsys,
            ["scenario", verb, flag, str(tmp_path / "no-such-dir" / "x")],
            "cannot write",
        )

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],  # AttributeError at the parent
            {"results": 7},  # TypeError
            {"results": [{"scenario": "churn"}]},  # KeyError: 'policy'
            {"ci": {}, "history": []},  # silently "(no results)", exit 0
        ],
        ids=["list", "results-not-a-list", "row-without-policy", "no-results-key"],
    )
    def test_report_rejects_json_of_the_wrong_shape(self, capsys, tmp_path, payload):
        path = tmp_path / "results.json"
        path.write_text(json.dumps(payload))
        self._fails_cleanly(
            capsys, ["scenario", "report", "--json", str(path)], "malformed results"
        )

    def test_report_renders_an_empty_results_list(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"digest": "", "results": []}))
        assert main(["scenario", "report", "--json", str(path)]) == 0
        assert "(no results)" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["directory", "binary"])
    def test_unreadable_spec_file(self, capsys, tmp_path, kind):
        path = tmp_path / "spec.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\x7fELF\xd0\xff")
        self._fails_cleanly(
            capsys, ["scenario", "run", "--spec", str(path)], "unreadable"
        )

    @pytest.mark.parametrize(
        "argv", [["sweep", "--workers", "-3"], ["scenario", "sweep", "--workers", "0"]]
    )
    def test_workers_must_be_positive(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "not a positive integer" in capsys.readouterr().err

    def test_missing_spec_file(self, capsys, tmp_path):
        self._fails_cleanly(
            capsys,
            ["scenario", "run", "--spec", str(tmp_path / "nope.json")],
            "not found",
        )

    def test_malformed_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        self._fails_cleanly(
            capsys, ["scenario", "run", "--spec", str(path)], "malformed"
        )

    def test_spec_missing_required_fields(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"name": "x"}))
        self._fails_cleanly(
            capsys, ["scenario", "run", "--spec", str(path)], "malformed"
        )

    def test_yaml_without_pyyaml(self, capsys, tmp_path, monkeypatch):
        import builtins

        real_import = builtins.__import__

        def fake_import(name, *args, **kwargs):
            if name == "yaml":
                raise ImportError("No module named 'yaml'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", fake_import)
        path = tmp_path / "spec.yaml"
        path.write_text("name: x")
        self._fails_cleanly(
            capsys, ["scenario", "run", "--spec", str(path)], "PyYAML"
        )

    def test_report_from_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        self._fails_cleanly(
            capsys, ["scenario", "report", "--json", str(path)], "malformed"
        )

    def test_report_from_missing_json(self, capsys, tmp_path):
        self._fails_cleanly(
            capsys,
            ["scenario", "report", "--json", str(tmp_path / "nope.json")],
            "not found",
        )

    @pytest.mark.parametrize(
        "argv, needle",
        [
            ("backend calibrate --trace-in {tmp}/missing.jsonl", "not found"),
            ("backend calibrate --trace-in {tmp}/partial.jsonl", ":1: record lacks field"),
            ("backend run --workloads nope", "unknown workload 'nope'"),
        ],
        ids=["missing-trace", "trace-line-without-field", "unknown-workload"],
    )
    def test_bad_backend_input(self, capsys, tmp_path, argv, needle):
        (tmp_path / "partial.jsonl").write_text('{"query_id": 1}\n')
        self._fails_cleanly(capsys, argv.format(tmp=tmp_path).split(), needle)


def test_sweep_table_is_the_committed_golden(capsys):
    """`python -m repro sweep` over the one expander prints the table the
    deleted policy-sweep stack printed, byte for byte, but for the
    seed-43 `push/cost` digest: a node's estimated-work sum now resets
    to exactly 0 when it idles, which moved one placement tie-break."""
    argv = "sweep --policies cost,least --seeds 42 43 --workers 2"
    assert main([*argv.split(), "--horizon", "10", "--nodes", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == GOLDEN_SWEEP.splitlines()
    assert lines[-1].startswith("4 runs in ")
    assert lines[-1].endswith("(2 workers); sweep digest 39d4297026196250…")


GOLDEN_SWEEP = """\
Sweeping 2 placement policies × 2 seeds (4 runs, 2 workers, 3 nodes, 10s horizon)...

policy                  seed   done   rej resub oltp p95  bi mean  digest
-------------------------------------------------------------------------
push/cost                 42    296     0     0    0.064        -  324479cab28b…
push/cost                 43    289     0     0    0.138    8.826  32103891fc94…
push/least                42    296     0     0    0.064        -  f97d0a2c513d…
push/least                43    289     0     0    0.053    8.826  266c92e432f6…
-------------------------------------------------------------------------
push/cost (all)            2    585     0     0    0.138        -  worst-seed p95
push/least (all)           2    585     0     0    0.064        -  worst-seed p95

"""
