"""RunTask / make_task: derived keys, parameters, pickling."""

from __future__ import annotations

import pickle

from repro.parallel import make_task


class TestMakeTask:
    def test_derives_sorted_key(self):
        task = make_task("cluster", seed=7, policy="cost", nodes=4)
        assert task.key == "cluster[nodes=4;policy=cost;seed=7]"
        assert task.kwargs == {"policy": "cost", "nodes": 4}
        assert task.seed == 7

    def test_float_values_keep_full_precision_in_key(self):
        a = make_task("r", horizon=0.1)
        b = make_task("r", horizon=0.1000000001)
        assert a.key != b.key

    def test_explicit_key_wins(self):
        task = make_task("r", seed=1, key="mine", x=2)
        assert task.key == "mine"

    def test_describe_mentions_runner_params_and_seed(self):
        text = make_task("cluster", seed=3, policy="sla").describe()
        assert "cluster(" in text
        assert "policy=sla" in text
        assert "seed=3" in text

    def test_task_is_picklable_and_roundtrips(self):
        task = make_task("m:fn", seed=9, rate=30.0, policy="least")
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.kwargs == task.kwargs

