"""Tests for QueryLog JSON Lines serialization (trace capture files)."""

import json

import pytest

from repro.core.manager import WorkloadManager
from repro.engine.query import CostVector, QueryState, StatementType
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.workloads.traces import QueryLog, QueryLogRecord

from tests.conftest import make_query


def _record(query_id=1, **overrides):
    fields = dict(
        query_id=query_id,
        workload="oltp",
        statement_type=StatementType.WRITE,
        priority=3,
        submit_time=1.25,
        start_time=1.5,
        end_time=2.75,
        final_state=QueryState.COMPLETED,
        estimated_cost=CostVector(0.5, 0.25, 10.0, 2, 100),
        true_cost=CostVector(0.6, 0.3, 12.0, 3, 110),
        session_id=7,
        sql="oltp:update",
        plan_operators=4,
    )
    fields.update(overrides)
    return QueryLogRecord(**fields)


class TestRecordSerialization:
    def test_round_trip_is_exact(self):
        record = _record()
        assert QueryLogRecord.from_dict(record.as_dict()) == record

    def test_none_fields_survive(self):
        record = _record(
            start_time=None,
            end_time=None,
            final_state=QueryState.REJECTED,
            workload=None,
            session_id=None,
        )
        assert QueryLogRecord.from_dict(record.as_dict()) == record

    def test_dict_is_json_safe(self):
        # enums as strings, costs as nested objects
        data = json.loads(json.dumps(_record().as_dict()))
        assert data["statement_type"] == "WRITE"
        assert data["final_state"] == "completed"
        assert data["true_cost"]["cpu_seconds"] == 0.6


class TestLogSerialization:
    def test_to_jsonl_round_trips(self, tmp_path):
        log = QueryLog()
        log.append(_record(1))
        log.append(_record(2, final_state=QueryState.KILLED))
        log.append(_record(3, start_time=None, end_time=None,
                           final_state=QueryState.REJECTED))
        path = tmp_path / "trace.jsonl"
        assert log.to_jsonl(path) == 3
        loaded = QueryLog.from_jsonl(path)
        assert list(loaded) == list(log)

    def test_one_record_per_line(self, tmp_path):
        log = QueryLog()
        for i in range(5):
            log.append(_record(i))
        path = tmp_path / "trace.jsonl"
        log.to_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            assert json.loads(line)["sql"] == "oltp:update"

    def test_blank_lines_are_skipped(self, tmp_path):
        log = QueryLog()
        log.append(_record(1))
        path = tmp_path / "trace.jsonl"
        log.to_jsonl(path)
        path.write_text(path.read_text() + "\n\n   \n")
        assert len(QueryLog.from_jsonl(path)) == 1

    def test_simulator_log_round_trips(self, tmp_path):
        sim = Simulator(seed=4)
        manager = WorkloadManager(
            sim,
            machine=MachineSpec(cpu_capacity=2.0, disk_capacity=2.0),
        )
        log = QueryLog()
        manager.add_completion_listener(log.record_query)
        for offset in (0.0, 0.5, 1.0):
            query = make_query(cpu=0.2, io=0.1, sql="wl:q")
            sim.schedule_at(offset, lambda q=query: manager.submit(q))
        manager.run(2.0, drain=20.0)
        path = tmp_path / "sim.jsonl"
        assert log.to_jsonl(path) == 3
        loaded = QueryLog.from_jsonl(path)
        assert list(loaded) == list(log)


class TestMalformedTrace:
    """Bad input is one ConfigurationError naming the file and line."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found or unreadable"):
            QueryLog.from_jsonl(tmp_path / "missing.jsonl")

    @pytest.mark.parametrize(
        "line, needle",
        [
            ("{broken", "malformed JSON"),
            ('{"query_id": 1}', "lacks field 'statement_type'"),
            (json.dumps({**_record().as_dict(), "statement_type": "NOPE"}), "invalid record"),
            (json.dumps({**_record().as_dict(), "true_cost": 3}), "invalid record"),
            ("[1, 2]", "invalid record"),
            # int() would truncate these and float() accept those: no silent repair
            (json.dumps({**_record().as_dict(), "query_id": 1.7}), "query_id 1.7 is not an"),
            (json.dumps({**_record().as_dict(), "priority": 2.9}), "priority 2.9 is not an"),
            (
                json.dumps(
                    {**_record().as_dict(), "true_cost": {"cpu_seconds": 1.0, "lock_count": 2.7}}
                ),
                "lock_count 2.7 is not an integer",
            ),
            (json.dumps({**_record().as_dict(), "submit_time": "nan"}), "submit_time 'nan' is not"),
            (json.dumps({**_record().as_dict(), "end_time": -5}), "end_time -5.0 precedes"),
        ],
        ids=[
            "not-json",
            "missing-field",
            "bad-enum",
            "cost-not-an-object",
            "not-an-object",
            "fractional-id",
            "fractional-priority",
            "fractional-lock-count",
            "nan-time",
            "end-before-submit",
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, line, needle):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(_record().as_dict()) + "\n\n" + line + "\n")
        with pytest.raises(ConfigurationError, match=needle) as raised:
            QueryLog.from_jsonl(path)
        assert f"{path}:3:" in str(raised.value)
