"""Survival report rendering: leakage math, grid cells, full report."""

from repro.reporting.survival import (
    render_scenario_detail,
    render_survival_matrix,
    tenant_leakage,
)
from repro.scenarios.report import survival_report_from_results
from repro.scenarios.sweep import run_scenario_matrix


def _summary(scenario, policy, *, exclude_noisy=False, p95=1.0, sla_met=1):
    return {
        "scenario": scenario,
        "policy": policy,
        "seed": 42,
        "exclude_noisy": exclude_noisy,
        "tenants": {
            "quiet": {
                "intake": 100,
                "completed": 100,
                "rejected": 0,
                "killed": 0,
                "in_flight": 0,
                "noisy": False,
                "share": 1.0,
                "quota": None,
                "quota_rejections": 0,
                "sla_met": sla_met,
                "sla_total": 1,
                "workloads": {
                    "oltp": {
                        "completions": 100,
                        "node_rejections": 0,
                        "kills": 0,
                        "mean": p95 / 2,
                        "p95": p95,
                        "sla": {
                            "average_target": 0.5,
                            "p95_target": 2.0,
                            "importance": 3,
                            "met": bool(sla_met),
                        },
                    }
                },
            },
            "hog": {
                "intake": 10,
                "completed": 8,
                "rejected": 2,
                "killed": 0,
                "in_flight": 0,
                "noisy": True,
                "share": 1.0,
                "quota": 4,
                "quota_rejections": 2,
                "sla_met": 0,
                "sla_total": 0,
                "workloads": {
                    "bi": {
                        "completions": 8,
                        "node_rejections": 0,
                        "kills": 0,
                        "mean": 4.0,
                        "p95": 9.0,
                        "sla": None,
                    }
                },
            },
        },
        "digest": "d" * 64,
    }


class TestLeakage:
    def test_ratio_against_companion(self):
        with_noise = _summary("s", "baseline", p95=6.0)
        without = _summary("s", "baseline", exclude_noisy=True, p95=2.0)
        leak = tenant_leakage(with_noise, without)
        assert leak["quiet"] == 3.0
        assert leak["hog"] is None  # noisy tenants have no leakage

    def test_no_companion_means_none(self):
        leak = tenant_leakage(_summary("s", "baseline"), None)
        assert leak == {"quiet": None, "hog": None}


class TestRendering:
    def test_matrix_cells_show_sla_and_leak(self):
        ok = _summary("s", "full", p95=0.5, sla_met=1)
        bad = _summary("s", "baseline", p95=9.0, sla_met=0)
        cells = {("s", "baseline"): bad, ("s", "full"): ok}
        leakage = {
            ("s", "baseline"): {"quiet": 302.1, "hog": None},
            ("s", "full"): {"quiet": 1.0, "hog": None},
        }
        grid = render_survival_matrix(["s"], ["baseline", "full"], cells, leakage)
        assert "0/1 SLA BREACH, leak 302.10x" in grid
        assert "1/1 SLA OK, leak 1.00x" in grid

    def test_detail_table_lists_every_tenant(self):
        detail = render_scenario_detail(
            _summary("s", "baseline"), {"quiet": 1.5, "hog": None}
        )
        assert "quiet" in detail
        assert "hog (noisy)" in detail
        assert "1.50x" in detail
        assert "quota-rej" in detail


class TestEndToEndReport:
    def test_report_from_live_slice(self):
        """A real one-scenario sweep renders with leakage and digest."""
        result = run_scenario_matrix(
            scenarios=["noisy_neighbor"],
            policies=["baseline", "full-isolation"],
            workers=1,
        )
        report = survival_report_from_results(
            result.values, digest=result.digest
        )
        assert "# Scenario survival matrix (seed 42)" in report
        assert result.digest in report
        assert "noisy_neighbor × baseline" in report
        assert "noisy_neighbor × full-isolation" in report
        assert "BREACH" in report  # baseline breaches the victim SLA
        assert "1/1 SLA OK" in report  # isolation holds it
        assert "leak" in report

    def test_empty_results_render_placeholder(self):
        assert "(no results)" in survival_report_from_results([])
