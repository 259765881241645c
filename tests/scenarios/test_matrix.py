"""The committed scenario × policy matrix: shape, names, round-trips."""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.matrix import (
    MATRIX_POLICIES,
    MATRIX_SCENARIOS,
    get_policy,
    get_scenario,
    policy_names,
    scenario_names,
)
from repro.scenarios.spec import ScenarioSpec


class TestMatrixShape:
    def test_at_least_six_scenarios_four_policies(self):
        assert len(MATRIX_SCENARIOS) >= 6
        assert len(MATRIX_POLICIES) >= 4

    def test_names_unique(self):
        assert len(set(scenario_names())) == len(MATRIX_SCENARIOS)
        assert len(set(policy_names())) == len(MATRIX_POLICIES)

    def test_matrix_covers_noisy_and_chaotic_scenarios(self):
        assert any(spec.has_noisy for spec in MATRIX_SCENARIOS)
        assert any(spec.chaos.active for spec in MATRIX_SCENARIOS)

    def test_policy_grid_spans_the_controls(self):
        """Baseline arms nothing; at least one policy arms everything."""
        by_name = {policy.name: policy for policy in MATRIX_POLICIES}
        base = by_name["baseline"]
        assert not (
            base.node_shares or base.cluster_quotas or base.queue_shares
        )
        assert any(
            policy.node_shares and policy.cluster_quotas and policy.queue_shares
            for policy in MATRIX_POLICIES
        )

    def test_every_scenario_declares_an_sla(self):
        """The survival matrix needs at least one SLA per scenario."""
        for spec in MATRIX_SCENARIOS:
            slas = [
                pattern.sla
                for tenant in spec.tenants
                for pattern in tenant.workloads
                if pattern.sla is not None and pattern.sla.has_goals
            ]
            assert slas, spec.name


class TestLookup:
    def test_lookup_round_trips(self):
        for name in scenario_names():
            assert get_scenario(name).name == name
        for name in policy_names():
            assert get_policy(name).name == name

    def test_unknown_names_list_choices(self):
        with pytest.raises(ConfigurationError, match="diurnal_mix"):
            get_scenario("nope")
        with pytest.raises(ConfigurationError, match="baseline"):
            get_policy("nope")
        for name in ("push/dartboard", "shove/cost", "pull/cost/extra"):
            with pytest.raises(ConfigurationError, match="round-robin"):
                get_policy(name)

    def test_placement_only_policy_resolves_by_its_description(self):
        policy = get_policy("pull/cost")
        assert (policy.dispatch, policy.placement) == ("pull", "cost")
        assert policy.describe() == "pull/cost [none]"

    def test_cluster_scenarios_take_builder_params(self):
        spec = get_scenario(
            "cluster_overload", nodes=3, horizon=9.0, crashes=((0.5, "n2", None),)
        )
        assert (spec.nodes, spec.horizon, spec.tenants) == (3, 9.0, ())
        assert [p.effective_label for p in spec.workloads] == ["oltp", "bi"]
        assert spec.chaos.crashes == ((0.5, "n2", None),)
        stress = get_scenario("matcher_stress", nodes=8, horizon=10.0)
        assert stress.speeds == (1.0, 1.0, 0.7, 0.4)
        assert stress.workloads[0].arrival.phases == ((3.5, 192.0), (5.0, 48.0))


class TestSerialization:
    @pytest.mark.parametrize(
        "spec", MATRIX_SCENARIOS, ids=[s.name for s in MATRIX_SCENARIOS]
    )
    def test_every_matrix_scenario_round_trips(self, spec):
        assert ScenarioSpec.from_dict(spec.as_dict()) == spec
