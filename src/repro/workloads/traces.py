"""Query log (DBQL-style) recording and JSON Lines trace files.

Teradata's Workload Analyzer recommends workload definitions "by
analyzing the data of database query log (DBQL)" (paper §4.1.3), and the
dynamic-characterization techniques of §3.1 learn from observed request
streams.  This module provides the log those components consume: an
append-only record of each request's final disposition.  A simulator
run writes one only when a caller attaches it to the manager
(``manager.add_completion_listener(log.record_query)``); a real-DBMS run
(:mod:`repro.backends.runner`) always writes its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.engine.query import CostVector, Query, QueryState, StatementType
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class QueryLogRecord:
    """One DBQL row: what a request was and how it fared."""

    query_id: int
    workload: Optional[str]
    statement_type: StatementType
    priority: int
    submit_time: float
    start_time: Optional[float]
    end_time: Optional[float]
    final_state: QueryState
    estimated_cost: CostVector
    true_cost: CostVector
    session_id: Optional[int]
    sql: str = ""
    plan_operators: int = 1

    @property
    def response_time(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time

    @property
    def completed(self) -> bool:
        return self.final_state is QueryState.COMPLETED

    def as_dict(self) -> dict:
        """JSON-serializable form (see :meth:`QueryLog.to_jsonl`)."""
        return {
            "query_id": self.query_id,
            "workload": self.workload,
            "statement_type": self.statement_type.value,
            "priority": self.priority,
            "submit_time": self.submit_time,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "final_state": self.final_state.value,
            "estimated_cost": _cost_to_dict(self.estimated_cost),
            "true_cost": _cost_to_dict(self.true_cost),
            "session_id": self.session_id,
            "sql": self.sql,
            "plan_operators": self.plan_operators,
        }

    @staticmethod
    def from_dict(data: dict) -> "QueryLogRecord":
        """The record ``data`` describes; a fractional integer field, a
        non-finite time or an end before the submission raises
        ``ValueError``."""
        record = QueryLogRecord(
            query_id=_whole("query_id", data["query_id"]),
            workload=data.get("workload"),
            statement_type=StatementType(data["statement_type"]),
            priority=_whole("priority", data["priority"]),
            submit_time=_time("submit_time", data["submit_time"]),
            start_time=_opt_time("start_time", data.get("start_time")),
            end_time=_opt_time("end_time", data.get("end_time")),
            final_state=QueryState(data["final_state"]),
            estimated_cost=_cost_from_dict(data["estimated_cost"]),
            true_cost=_cost_from_dict(data["true_cost"]),
            session_id=data.get("session_id"),
            sql=data.get("sql", ""),
            plan_operators=_whole("plan_operators", data.get("plan_operators", 1)),
        )
        if record.end_time is not None and record.end_time < record.submit_time:
            raise ValueError(
                f"end_time {record.end_time} precedes submit_time {record.submit_time}"
            )
        return record


def _cost_to_dict(cost: CostVector) -> dict:
    return {
        "cpu_seconds": cost.cpu_seconds,
        "io_seconds": cost.io_seconds,
        "memory_mb": cost.memory_mb,
        "lock_count": cost.lock_count,
        "rows": cost.rows,
    }


def _cost_from_dict(data: dict) -> CostVector:
    return CostVector(
        cpu_seconds=float(data.get("cpu_seconds", 0.0)),
        io_seconds=float(data.get("io_seconds", 0.0)),
        memory_mb=float(data.get("memory_mb", 0.0)),
        lock_count=_whole("lock_count", data.get("lock_count", 0)),
        rows=_whole("rows", data.get("rows", 0)),
    )


def _whole(name: str, value) -> int:
    """``value`` as an int; a number with a fractional part is invalid,
    where ``int`` would truncate it."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


def _time(name: str, value) -> float:
    time = float(value)
    if not math.isfinite(time):
        raise ValueError(f"{name} {value!r} is not finite")
    return time


def _opt_time(name: str, value) -> Optional[float]:
    return None if value is None else _time(name, value)


class QueryLog:
    """Append-only query log, one record per terminal request."""

    def __init__(self) -> None:
        self._records: List[QueryLogRecord] = []

    def record_query(self, query: Query) -> QueryLogRecord:
        """Append a record snapshotting ``query``'s final disposition."""
        record = QueryLogRecord(
            query_id=query.query_id,
            workload=query.workload_name,
            statement_type=query.statement_type,
            priority=query.priority,
            submit_time=query.submit_time if query.submit_time is not None else 0.0,
            start_time=query.start_time,
            end_time=query.end_time,
            final_state=query.state,
            estimated_cost=query.estimated_cost,
            true_cost=query.true_cost,
            session_id=query.session_id,
            sql=query.sql,
            plan_operators=len(query.plan),
        )
        self._records.append(record)
        return record

    def append(self, record: QueryLogRecord) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def records(
        self,
        workload: Optional[str] = None,
        completed_only: bool = False,
    ) -> List[QueryLogRecord]:
        """Filtered view of the log."""
        out = []
        for record in self._records:
            if workload is not None and record.workload != workload:
                continue
            if completed_only and not record.completed:
                continue
            out.append(record)
        return out

    # ------------------------------------------------------------------
    # serialization (JSON Lines, one record per line)
    # ------------------------------------------------------------------
    def to_jsonl(self, path: Union[str, Path]) -> int:
        """Write the log as JSON Lines; returns the record count.

        The format is append-friendly and tool-friendly (``jq``, pandas
        ``read_json(lines=True)``): one self-contained record object per
        line, enum fields as their string values, costs as nested
        objects.  :meth:`from_jsonl` round-trips exactly.
        """
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(json.dumps(record.as_dict(), sort_keys=True))
                handle.write("\n")
        return len(self._records)

    @staticmethod
    def from_jsonl(path: Union[str, Path]) -> "QueryLog":
        """Load a log written by :meth:`to_jsonl` (blank lines skipped).

        A missing or unreadable file, a line that is not JSON, and a
        record with a missing or invalid field (a fractional integer, a
        non-finite time, an end before its submission) each raise one
        :class:`~repro.errors.ConfigurationError` naming the path (and
        the line number).
        """
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as error:
            raise ConfigurationError(
                f"trace file not found or unreadable: {path} ({error})"
            ) from None
        log = QueryLog()
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                log.append(QueryLogRecord.from_dict(json.loads(line)))
            except json.JSONDecodeError as error:
                raise ConfigurationError(f"{path}:{number}: malformed JSON ({error})") from None
            except KeyError as error:
                raise ConfigurationError(f"{path}:{number}: record lacks field {error}") from None
            except (AttributeError, TypeError, ValueError) as error:
                raise ConfigurationError(f"{path}:{number}: invalid record ({error})") from None
        return log
