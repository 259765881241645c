"""Scenario execution: isolation effect, conservation, determinism."""

import json

import pytest

from repro.scenarios.matrix import get_policy, get_scenario
from repro.scenarios.runner import run_scenario, summarize_run
from repro.scenarios.spec import (
    ArrivalSpec,
    PolicyConfig,
    ScenarioSpec,
    SLASpec,
    TenantSpec,
    WorkloadPattern,
)

BASELINE = PolicyConfig(name="baseline")
QUOTAS = PolicyConfig(name="quotas", cluster_quotas=True)
FULL = PolicyConfig(
    name="full",
    node_shares=True,
    cluster_quotas=True,
    queue_shares=True,
    dispatch="pull",
)


def _small_noisy_spec(horizon=20.0):
    """A fast noisy-neighbor scenario: victim OLTP vs a heavy hog."""
    return ScenarioSpec(
        name="mini_noisy",
        horizon=horizon,
        nodes=2,
        mpl=4,
        tenants=(
            TenantSpec(
                name="victim",
                share=3.0,
                workloads=(
                    WorkloadPattern(
                        kind="oltp",
                        arrival=ArrivalSpec(kind="open", rate=6.0),
                        priority=3,
                        sla=SLASpec(average=0.5, p95=2.0, importance=3),
                    ),
                ),
            ),
            TenantSpec(
                name="hog",
                share=1.0,
                quota=4,
                noisy=True,
                workloads=(
                    WorkloadPattern(
                        kind="bi",
                        arrival=ArrivalSpec(kind="open", rate=1.0),
                        priority=1,
                        params=(
                            ("median_cpu", 4.0),
                            ("median_io", 6.0),
                            ("sigma", 0.5),
                        ),
                    ),
                ),
            ),
        ),
    )


class TestIsolationEffect:
    def test_isolation_holds_sla_baseline_breaches(self):
        """The PR's acceptance pin: under the committed noisy_neighbor
        scenario, the well-behaved tenant's SLA is breached at baseline
        but met under full isolation."""
        spec = get_scenario("noisy_neighbor")
        base = summarize_run(run_scenario(spec, get_policy("baseline")))
        full = summarize_run(run_scenario(spec, get_policy("full-isolation")))
        victim_base = base["tenants"]["acme"]
        victim_full = full["tenants"]["acme"]
        assert victim_base["sla_total"] >= 1
        assert victim_base["sla_met"] < victim_base["sla_total"]
        assert victim_full["sla_met"] == victim_full["sla_total"]

    @pytest.mark.parametrize(
        "policy, met", [("baseline", False), ("full-isolation", True)]
    )
    def test_sla_sections_equal_the_hand_compared_ones(self, policy, met):
        """The ``sla`` section is ``ServiceLevelAgreement.evaluate`` over
        the rollup.  Expected values were recorded from the runner that
        compared mean and p95 with the targets itself (PR 19's parent)."""
        summary = summarize_run(
            run_scenario(get_scenario("noisy_neighbor"), get_policy(policy))
        )
        acme, hog = summary["tenants"]["acme"], summary["tenants"]["hog"]
        assert acme["workloads"]["oltp"]["sla"] == {
            "average_target": 0.5,
            "p95_target": 2.0,
            "importance": 3,
            "met": met,
        }
        assert (acme["sla_met"], acme["sla_total"]) == (int(met), 1)
        assert hog["workloads"]["bi"]["sla"] is None
        assert (hog["sla_met"], hog["sla_total"]) == (0, 0)

    def test_sla_with_no_completions_is_not_met(self):
        summary = summarize_run(run_scenario(_small_noisy_spec(horizon=0.01), BASELINE))
        victim = summary["tenants"]["victim"]
        assert victim["workloads"]["oltp"]["completions"] == 0
        assert victim["workloads"]["oltp"]["sla"]["met"] is False
        assert (victim["sla_met"], victim["sla_total"]) == (0, 1)

    def test_quotas_cap_noisy_admissions(self):
        spec = _small_noisy_spec()
        base = summarize_run(run_scenario(spec, BASELINE, seed=7))
        capped = summarize_run(run_scenario(spec, QUOTAS, seed=7))
        assert base["tenants"]["hog"]["quota_rejections"] == 0
        hog = capped["tenants"]["hog"]
        # quota holds: never more than `quota` hog queries outstanding,
        # so overflow shows up as quota rejections
        assert hog["quota_rejections"] > 0
        assert hog["rejected"] >= hog["quota_rejections"]

    def test_victim_p95_improves_under_full_isolation(self):
        spec = _small_noisy_spec()
        base = summarize_run(run_scenario(spec, BASELINE, seed=11))
        full = summarize_run(run_scenario(spec, FULL, seed=11))
        p95_base = base["tenants"]["victim"]["workloads"]["oltp"]["p95"]
        p95_full = full["tenants"]["victim"]["workloads"]["oltp"]["p95"]
        assert p95_base is not None and p95_full is not None
        assert p95_full <= p95_base


class TestConservation:
    @pytest.mark.parametrize("policy", [BASELINE, QUOTAS, FULL])
    def test_ledger_balances_after_drain(self, policy):
        result = run_scenario(_small_noisy_spec(), policy, seed=3, drain=400.0)
        for tenant in ("victim", "hog"):
            ledger = result.tenant_ledger(tenant)
            assert ledger["intake"] == (
                ledger["completed"] + ledger["rejected"] + ledger["killed"]
            ), (tenant, ledger)
            assert ledger["in_flight"] == 0

    def test_ledger_balances_under_churn(self):
        """Crash waves resubmit work internally; the client-visible
        ledger still balances exactly."""
        result = run_scenario(
            get_scenario("churn"),
            get_policy("full-isolation"),
            seed=5,
            drain=400.0,
        )
        assert result.dispatcher.resubmissions > 0
        for tenant in ("red", "blue"):
            ledger = result.tenant_ledger(tenant)
            assert ledger["in_flight"] == 0, (tenant, ledger)


class TestDeterminism:
    def test_same_seed_same_digest(self):
        spec = _small_noisy_spec()
        a = run_scenario(spec, FULL, seed=9).digest()
        b = run_scenario(spec, FULL, seed=9).digest()
        assert a == b

    def test_different_seed_different_digest(self):
        spec = _small_noisy_spec()
        a = run_scenario(spec, FULL, seed=9).digest()
        b = run_scenario(spec, FULL, seed=10).digest()
        assert a != b

    def test_summary_is_json_serializable(self):
        summary = summarize_run(
            run_scenario(_small_noisy_spec(horizon=8.0), BASELINE)
        )
        round_tripped = json.loads(json.dumps(summary))
        assert round_tripped["digest"] == summary["digest"]

