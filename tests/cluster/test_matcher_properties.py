"""Property tests for the dispatch substrate at 64 nodes.

The ISSUE-level invariants, stated over randomized seeds/shapes:

* **conservation under churn** — for *both* binding policies, every
  query submitted to the 64-node matcher scenario with deterministic
  crash/recover waves is accounted for exactly once:
  completed + rejected + in-flight == arrivals;
* **pull digests are seed-stable** — the same seed reproduces the same
  outcome digest, different seeds diverge;
* **pull digests are worker-count-stable** — running seed replications
  through the parallel runtime with 1 or 2 workers reduces to the same
  rollup digest.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel import make_task, run_tasks
from repro.parallel.digest import dispatcher_digest
from repro.scenarios import get_policy, get_scenario, run_scenario, scenario_task

NODES = 64


def _run(seed, dispatch, horizon=6.0):
    spec = get_scenario(
        "matcher_stress",
        nodes=NODES,
        horizon=horizon,
        oltp_rate_per_node=2.0,  # keep each hypothesis example cheap
        bi_rate=0.5,
    )
    return run_scenario(
        spec, get_policy(f"{dispatch}/cost"), seed=seed, drain=2.0 * horizon
    ).dispatcher


def _conserved(dispatcher):
    in_flight = dispatcher.outstanding_work()
    return (
        dispatcher.completions + dispatcher.rejections + in_flight
        == dispatcher.arrivals
    )


class TestConservationUnderChurn:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_pull_conserves_every_query(self, seed):
        dispatcher = _run(seed, "pull")
        assert _conserved(dispatcher)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_push_conserves_every_query(self, seed):
        dispatcher = _run(seed, "push")
        assert _conserved(dispatcher)


class TestPullSeedStability:
    def test_same_seed_bit_identical(self):
        assert dispatcher_digest(_run(37, "pull")) == dispatcher_digest(
            _run(37, "pull")
        )

    def test_different_seeds_diverge(self):
        assert dispatcher_digest(_run(37, "pull")) != dispatcher_digest(
            _run(38, "pull")
        )


class TestWorkerCountStability:
    @pytest.mark.parametrize("dispatch", ["push", "pull"])
    def test_digest_rollup_identical_for_any_worker_count(self, dispatch):
        def rollup(workers):
            tasks = [
                make_task(
                    scenario_task,
                    seed=seed,
                    key=str(seed),
                    spec=get_scenario(
                        "matcher_stress",
                        nodes=NODES,
                        horizon=4.0,
                        oltp_rate_per_node=1.0,
                        bi_rate=0.25,
                    ),
                    policy=get_policy(f"{dispatch}/cost"),
                    drain=8.0,
                )
                for seed in (3, 4)
            ]
            return run_tasks(tasks, workers=workers).digest

        assert rollup(1) == rollup(2)
