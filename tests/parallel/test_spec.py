"""RunTask / make_task: derived keys, parameters, pickling."""

from __future__ import annotations

import pickle

from repro.parallel import make_task
from tests.parallel.helpers import quick_task


class TestMakeTask:
    def test_derives_sorted_key(self):
        task = make_task(quick_task, seed=7, policy="cost", nodes=4)
        assert task.key == "quick_task[nodes=4;policy=cost;seed=7]"
        assert task.params == {"policy": "cost", "nodes": 4}
        assert task.fn is quick_task
        assert task.seed == 7

    def test_float_values_keep_full_precision_in_key(self):
        a = make_task(quick_task, horizon=0.1)
        b = make_task(quick_task, horizon=0.1000000001)
        assert a.key != b.key

    def test_explicit_key_wins(self):
        task = make_task(quick_task, seed=1, key="mine", x=2)
        assert task.key == "mine"

    def test_task_is_picklable_and_roundtrips(self):
        task = make_task(quick_task, seed=9, rate=30.0, policy="least")
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.fn is quick_task  # sent by reference
        assert clone.params == task.params
