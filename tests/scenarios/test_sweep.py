"""Matrix sweep over repro.parallel: ordering, digest stability, and
the hypothesis-pinned invariants (conservation under churn, digest
stability across seeds and worker counts)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.matrix import get_policy, get_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.sweep import (
    index_results,
    run_scenario_matrix,
    scenario_matrix_tasks,
)

SLICE = dict(scenarios=["noisy_neighbor"], policies=["baseline", "quotas"])


class TestTaskExpansion:
    def test_order_is_deterministic(self):
        assert scenario_matrix_tasks() == scenario_matrix_tasks()

    def test_noisy_scenarios_get_companion_tasks(self):
        tasks = scenario_matrix_tasks(**SLICE)
        # per policy: the matrix run then its leakage companion
        assert len(tasks) == 4
        params = [dict(task.params) for task in tasks]
        assert params[0].get("exclude_noisy") is None
        assert params[1]["exclude_noisy"] is True

    def test_quiet_scenarios_have_no_companions(self):
        tasks = scenario_matrix_tasks(
            scenarios=["diurnal_mix"], policies=["baseline"]
        )
        assert len(tasks) == 1

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario 'nope'"):
            scenario_matrix_tasks(scenarios=["nope"])
        with pytest.raises(ConfigurationError, match="unknown policy 'nope'"):
            scenario_matrix_tasks(policies=["nope"])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            scenario_matrix_tasks(seeds=())

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            scenario_matrix_tasks(**SLICE, seeds=(42, 42))

    def test_params_forwarded_to_every_task_and_validated_once(self):
        tasks = scenario_matrix_tasks(
            ["cluster_overload"], ["push/cost", "pull/cost"], nodes=3, horizon=8.0
        )
        for task in tasks:
            assert task.kwargs["nodes"] == 3
            assert task.kwargs["horizon"] == 8.0
        # the builder that will run them checks them, in the parent
        with pytest.raises(ConfigurationError, match="horizon"):
            scenario_matrix_tasks(["cluster_overload"], ["push/cost"], horizon=-1.0)


class TestReplication:
    """ROADMAP item 6's one command: EXP18's three placements over seeds
    is the same expander over ``cluster_overload``."""

    POLICIES = ["push/round-robin", "push/cost", "push/sla"]
    SEEDS = (42, 43, 44)

    def test_order_is_scenario_policy_seed_with_no_companions(self):
        tasks = scenario_matrix_tasks(["cluster_overload"], self.POLICIES, self.SEEDS)
        assert [(t.kwargs["policy"], t.seed) for t in tasks] == [
            (policy, seed) for policy in self.POLICIES for seed in self.SEEDS
        ]
        assert all(t.kwargs["scenario"] == "cluster_overload" for t in tasks)
        assert not any("exclude_noisy" in t.kwargs for t in tasks)

    def test_digest_is_worker_stable_and_rows_equal_the_sweep_verbs(self, capsys):
        from repro.cli import main
        from repro.scenarios.sweep import rollup_table

        kwargs = dict(
            scenarios=["cluster_overload"],
            policies=self.POLICIES,
            seeds=(42, 43),
            nodes=3,
            horizon=8.0,
        )
        serial = run_scenario_matrix(**kwargs, workers=1)
        assert serial.digest == run_scenario_matrix(**kwargs, workers=2).digest
        argv = "sweep --policies round-robin,cost,sla --seeds 42 --workers 1"
        assert main([*argv.split(), "--nodes", "3", "--horizon", "8"]) == 0
        printed = capsys.readouterr().out
        seed_42 = [
            row for row in rollup_table(serial).splitlines() if " 42 " in row
        ]
        assert len(seed_42) == 3
        for row in seed_42:
            assert row in printed


class TestDigestStability:
    def test_worker_count_does_not_change_digest(self):
        serial = run_scenario_matrix(**SLICE, workers=1)
        parallel = run_scenario_matrix(**SLICE, workers=3)
        assert serial.digest == parallel.digest
        assert [v["digest"] for v in serial.values] == [
            v["digest"] for v in parallel.values
        ]

    def test_index_results_keys(self):
        result = run_scenario_matrix(**SLICE, workers=1)
        indexed = index_results(result.values)
        assert ("noisy_neighbor", "baseline", 42, False) in indexed
        assert ("noisy_neighbor", "baseline", 42, True) in indexed
        assert ("noisy_neighbor", "quotas", 42, False) in indexed


class TestHypothesisInvariants:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_per_tenant_conservation_under_churn(self, seed):
        """intake == completed + rejected + killed for every tenant,
        for any seed, even while crash waves churn the nodes."""
        result = run_scenario(
            get_scenario("churn"),
            get_policy("full-isolation"),
            seed=seed,
            drain=2000.0,
        )
        for tenant in ("red", "blue"):
            ledger = result.tenant_ledger(tenant)
            assert ledger["in_flight"] == 0, (seed, tenant, ledger)
            assert ledger["intake"] == (
                ledger["completed"] + ledger["rejected"] + ledger["killed"]
            )

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_run_digest_is_seed_stable(self, seed):
        """The same (scenario, policy, seed) always produces the same
        digest — reruns are bit-stable for arbitrary seeds."""
        spec = get_scenario("flash_crowd")
        policy = get_policy("quotas")
        first = run_scenario(spec, policy, seed=seed).digest()
        second = run_scenario(spec, policy, seed=seed).digest()
        assert first == second

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_sweep_digest_worker_stable_for_any_seed(self, seed):
        """The matrix rollup digest does not depend on worker count,
        whatever the seed replication."""
        kwargs = dict(
            scenarios=["utility_storm"], policies=["baseline"], seeds=[seed]
        )
        assert (
            run_scenario_matrix(**kwargs, workers=1).digest
            == run_scenario_matrix(**kwargs, workers=2).digest
        )
