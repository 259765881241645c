"""run_tasks: the serial path, the pool path, one run per task, failure isolation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.parallel import make_task, run_tasks
from tests.parallel.helpers import (
    always_fail,
    dies,
    not_a_dict,
    quick_task,
    unpicklable_result,
)


def quick_tasks(n):
    return [make_task(quick_task, seed=i, x=i * 10) for i in range(n)]


class TestSerialPath:
    def test_single_worker_runs_in_process(self):
        result = run_tasks(quick_tasks(4), workers=1)
        assert result.workers == 1
        assert not result.fell_back_serial  # serial by request, not fallback
        assert [o.task.seed for o in result.outcomes] == [0, 1, 2, 3]
        assert all(o.ok for o in result.outcomes)

    def test_single_task_stays_in_process_even_with_workers(self):
        result = run_tasks(quick_tasks(1), workers=4)
        assert result.workers == 1
        assert result.outcomes[0].ok

    def test_duplicate_keys_rejected(self):
        tasks = [make_task(quick_task, seed=1), make_task(quick_task, seed=1)]
        with pytest.raises(ConfigurationError, match="duplicate task keys"):
            run_tasks(tasks, workers=1)

    def test_failure_raises_its_first_error(self, tmp_path):
        tally = tmp_path / "attempts"
        tasks = [make_task(always_fail, seed=5, tally=str(tally))] + quick_tasks(1)
        with pytest.raises(ParallelExecutionError, match="broken runner"):
            run_tasks(tasks, workers=1)
        assert len(tally.read_text().splitlines()) == 1  # run once, never retried

    def test_runner_must_return_dict(self):
        with pytest.raises(ParallelExecutionError, match="expected a result"):
            run_tasks([make_task(not_a_dict, seed=1), make_task(not_a_dict, seed=2)], workers=1)


class TestPoolPath:
    def test_parallel_matches_serial_values_and_digest(self):
        tasks = quick_tasks(8)
        serial = run_tasks(tasks, workers=1)
        parallel = run_tasks(tasks, workers=2)
        assert parallel.digest == serial.digest
        stripped = [
            {k: v for k, v in value.items() if k != "task_wall_s"}
            for value in parallel.values
        ]
        assert stripped == [
            {k: v for k, v in value.items() if k != "task_wall_s"}
            for value in serial.values
        ]

    def test_unsupported_start_method_falls_back_serially(self, monkeypatch):
        # a platform that cannot start a pool: same tasks, run in place
        monkeypatch.setattr("repro.parallel.runner._make_pool", lambda workers: None)
        result = run_tasks(quick_tasks(3), workers=2)
        assert result.fell_back_serial
        assert all(o.ok for o in result.outcomes)
        assert result.digest == run_tasks(quick_tasks(3), workers=1).digest

    def test_failure_in_the_pool_runs_once(self, tmp_path):
        tally = tmp_path / "attempts"
        failing = make_task(always_fail, seed=1, tally=str(tally))
        with pytest.raises(ParallelExecutionError) as raised:
            run_tasks([failing] + quick_tasks(2), workers=2)
        assert "1 task(s) failed: " in str(raised.value)
        assert failing.key in str(raised.value)
        assert len(tally.read_text().splitlines()) == 1

    def test_pool_has_no_more_workers_than_shards(self, monkeypatch):
        # a ``fork`` pool starts all its workers at the first submit
        asked = []

        def record(workers):
            asked.append(workers)
            return None

        monkeypatch.setattr("repro.parallel.runner._make_pool", record)
        result = run_tasks(quick_tasks(3), workers=64)
        assert asked == [3]
        assert result.workers == 3
        assert result.fell_back_serial

    @pytest.mark.parametrize("fn", [unpicklable_result, dies])
    def test_shard_level_failure_names_the_task(self, fn):
        """An unpicklable result or a dead worker loses the whole shard;
        it surfaces as the task's own error naming the task, never as
        a raw AttributeError / BrokenProcessPool."""
        broken = make_task(fn, seed=1)
        with pytest.raises(ParallelExecutionError) as raised:
            run_tasks([broken] + quick_tasks(2), workers=2)
        assert broken.key in str(raised.value)
