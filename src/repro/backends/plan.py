"""Deterministic statement planning: workload specs → executable SQL.

The planner is the determinism boundary of the backend subsystem.  It
consumes the *same* :class:`~repro.workloads.models.WorkloadSpec`
objects the simulator consumes — same arrival processes, same request
classes, same cost distributions — and pre-draws the entire statement
stream with a seeded generator: arrival instants, request classes, cost
vectors (which the optimizer's estimates equal) and the concrete
backend-neutral :class:`~repro.backends.base.Operation` each statement
executes.
Classes and costs come from the one column draw the simulator's
generator reads (:meth:`WorkloadSpec.draw
<repro.workloads.models.WorkloadSpec.draw>`), taken once per spec for
all of its arrivals.

Everything *after* the plan (wall-clock timings, thread interleavings,
lock conflicts) is real and therefore non-deterministic; everything
*in* the plan is bit-reproducible and digest-gated, which is what lets
a simulator run and a real run answer the question "same requests,
different engine — how do the metrics move?".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import sha256
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import Operation, OpKind
from repro.engine.query import CostVector, Query, StatementType
from repro.errors import ConfigurationError
from repro.workloads.models import ClosedArrivals, WorkloadSpec

#: Operation keys are drawn from ``[0, KEY_SPACE)``; the plan digest
#: hashes it, so a plan says which key space its operations address.
KEY_SPACE = 10_000


@dataclass(frozen=True)
class PlannedStatement:
    """One pre-drawn request: when it arrives, what it runs, what the
    optimizer believed about it."""

    index: int
    submit_at: float
    workload: str
    request_class: str
    statement_type: StatementType
    priority: int
    estimated_cost: CostVector
    true_cost: CostVector
    op: Operation
    sql_label: str

    def make_query(self) -> Query:
        """A fresh :class:`Query` for this statement (sim or real run)."""
        return Query(
            true_cost=self.true_cost,
            estimated_cost=self.estimated_cost,
            statement_type=self.statement_type,
            priority=self.priority,
            workload_name=self.workload,
            sql=self.sql_label,
        )


@dataclass(frozen=True)
class StatementPlan:
    """An ordered, fully pre-drawn statement stream."""

    statements: Tuple[PlannedStatement, ...]
    horizon: float
    seed: int

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self):
        return iter(self.statements)

    def digest(self) -> str:
        """SHA-256 over every planned field — the determinism gate.

        Each statement is one ``struct`` pack, its text fields (label,
        statement type, operation kind) encoded once per distinct triple.
        """
        packers = {}
        parts = [struct.pack("<dqq", self.horizon, self.seed, KEY_SPACE)]
        for s in self.statements:
            op, est, true = s.op, s.estimated_cost, s.true_cost
            shape = (s.sql_label, s.statement_type, op.kind)
            if shape not in packers:
                text = s.sql_label.encode("utf-8") + s.statement_type.value.encode("ascii")
                kind = op.kind.value.encode("ascii")
                layout = f"<qd{len(text)}sq{'dddqq' * 2}{len(kind)}sqq"
                packers[shape] = (struct.Struct(layout).pack, text, kind)
            pack, text, kind = packers[shape]
            parts.append(pack(
                s.index, s.submit_at, text, s.priority,
                est.cpu_seconds, est.io_seconds, est.memory_mb, est.lock_count, est.rows,
                true.cpu_seconds, true.io_seconds, true.memory_mb, true.lock_count, true.rows,
                kind, op.key, op.span,
            ))
        return sha256(b"".join(parts)).hexdigest()


def _operation_for(
    statement_type: StatementType, true_cost: CostVector, key: int
) -> Operation:
    """Map a drawn request onto a backend operation.

    The touched-row ``span`` grows linearly with the spec's sampled
    demand (200 rows per cost-second), so heavy BI draws
    become genuinely heavier SQL — the property calibration later
    exploits to fit cost models with non-trivial slopes.
    """
    work = true_cost.total_work
    span = max(1, min(KEY_SPACE, int(work * 200.0)))
    if statement_type in (StatementType.WRITE, StatementType.DML):
        return Operation(OpKind.POINT_WRITE, key=key, span=min(span, 64))
    if statement_type in (StatementType.UTILITY, StatementType.DDL, StatementType.LOAD):
        return Operation(OpKind.MAINTENANCE, key=key, span=1)
    if work >= 1.0:  # a read of a cost-second or more scans a range
        return Operation(OpKind.RANGE_AGG, key=key, span=span)
    return Operation(OpKind.POINT_READ, key=key, span=1)


def plan_statements(
    specs: Sequence[WorkloadSpec],
    horizon: float,
    seed: int = 0,
    max_statements: Optional[int] = None,
) -> StatementPlan:
    """Pre-draw the full statement stream for ``specs`` over ``horizon``.

    Per-spec draws use independent child seeds (``[seed, spec_index]``)
    so adding a workload never perturbs another workload's stream; each
    stream is consumed column by column — arrival instants, the request
    columns of :meth:`WorkloadSpec.draw`, operation keys.  The
    merged stream is ordered by arrival time with (spec, arrival) order
    breaking ties — the same order a simulator event heap would realize.

    The optimizer is perfect (estimates equal true costs), so admission
    decisions match bit-for-bit between sim and real runs.
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    drawn = []
    for spec_index, spec in enumerate(specs):
        if isinstance(spec.arrivals, ClosedArrivals):
            raise ConfigurationError(
                f"workload {spec.name!r} uses closed arrivals, which need "
                "completion feedback; backend plans support open/batch "
                "arrival processes"
            )
        rng = np.random.default_rng([seed, spec_index])
        arrivals = spec.arrivals.arrival_times(rng, horizon)
        n = len(arrivals)
        columns = spec.draw(rng, n)
        keys = rng.integers(0, KEY_SPACE, size=n).tolist()
        for arrival_index, (
            submit_at,
            (request_class, *cost, _fractions),
            key,
        ) in enumerate(zip(arrivals, zip(*columns), keys)):
            true_cost = CostVector(*cost)
            op = _operation_for(request_class.statement_type, true_cost, key)
            drawn.append(
                (
                    float(submit_at),
                    spec_index,
                    arrival_index,
                    spec,
                    request_class,
                    true_cost,
                    op,
                )
            )
    drawn.sort(key=lambda item: (item[0], item[1], item[2]))
    if max_statements is not None:
        drawn = drawn[:max_statements]
    statements = tuple(
        PlannedStatement(
            index=index,
            submit_at=submit_at,
            workload=spec.name,
            request_class=request_class.name,
            statement_type=request_class.statement_type,
            priority=spec.priority,
            estimated_cost=true_cost,
            true_cost=true_cost,
            op=op,
            sql_label=f"{spec.name}:{request_class.name}",
        )
        for index, (
            submit_at,
            _spec_index,
            _arrival_index,
            spec,
            request_class,
            true_cost,
            op,
        ) in enumerate(drawn)
    )
    return StatementPlan(statements=statements, horizon=horizon, seed=seed)
