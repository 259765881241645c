"""Tests for deterministic statement planning."""

import dataclasses
import json
import struct
from hashlib import sha256

import pytest

from benchmarks.perf import gate
from repro.backends.base import Operation, OpKind
from repro.backends.plan import KEY_SPACE, StatementPlan, plan_statements
from repro.engine.query import CostVector, QueryPlan, StatementType, split_query
from repro.errors import ConfigurationError
from repro.workloads.generator import bi_workload, oltp_workload
from repro.workloads.models import ClosedArrivals


def _plan(seed=0, horizon=20.0, **kwargs):
    return plan_statements(
        [oltp_workload(), bi_workload(rate=0.5)],
        horizon=horizon,
        seed=seed,
        **kwargs,
    )


class TestDeterminism:
    def test_same_seed_same_digest(self):
        assert _plan(seed=5).digest() == _plan(seed=5).digest()

    def test_different_seed_different_digest(self):
        assert _plan(seed=5).digest() != _plan(seed=6).digest()

    def test_statements_identical_across_draws(self):
        first, second = _plan(seed=7), _plan(seed=7)
        assert first.statements == second.statements

    def test_adding_a_workload_preserves_existing_streams(self):
        # child seeds are per-spec, so spec 0's draws never move
        alone = plan_statements([oltp_workload()], horizon=10.0, seed=3)
        mixed = plan_statements(
            [oltp_workload(), bi_workload()], horizon=10.0, seed=3
        )
        oltp_alone = [s.true_cost for s in alone if s.workload == "oltp"]
        oltp_mixed = [s.true_cost for s in mixed if s.workload == "oltp"]
        assert oltp_alone == oltp_mixed


def _reference_digest(plan):
    """The digest as one ``sha256.update`` per field, the form it was
    first written in: the packed digest must hash the same bytes."""
    h = sha256()
    h.update(struct.pack("<dqq", plan.horizon, plan.seed, KEY_SPACE))
    for s in plan.statements:
        h.update(struct.pack("<qd", s.index, s.submit_at))
        h.update(s.sql_label.encode("utf-8"))
        h.update(s.statement_type.value.encode("ascii"))
        h.update(struct.pack("<q", s.priority))
        for cost in (s.estimated_cost, s.true_cost):
            h.update(
                struct.pack(
                    "<dddqq",
                    cost.cpu_seconds,
                    cost.io_seconds,
                    cost.memory_mb,
                    cost.lock_count,
                    cost.rows,
                )
            )
        h.update(s.op.kind.value.encode("ascii"))
        h.update(struct.pack("<qq", s.op.key, s.op.span))
    return h.hexdigest()


class TestDigest:
    def test_packed_digest_hashes_the_per_field_bytes(self):
        plan = _plan(seed=4, horizon=60.0)
        utility = dataclasses.replace(
            plan.statements[0],
            index=len(plan),
            statement_type=StatementType.UTILITY,
            sql_label="maintenance:vacuum \u00e9",
            estimated_cost=CostVector(0.5, 0.25, 12.0, 3, 7),
            op=Operation(OpKind.MAINTENANCE, key=9, span=1),
        )
        mixed = StatementPlan(
            statements=plan.statements + (utility,), horizon=60.0, seed=4
        )
        kinds = {s.op.kind for s in mixed}
        assert {OpKind.POINT_READ, OpKind.POINT_WRITE, OpKind.MAINTENANCE} <= kinds
        assert mixed.digest() == _reference_digest(mixed)
        assert StatementPlan((), 1.0, 0).digest() == _reference_digest(
            StatementPlan((), 1.0, 0)
        )

    @pytest.mark.parametrize("mode", ["ci", "full"])
    def test_the_gates_backend_plan_digest_holds(self, mode):
        row = next(row for row in gate.ROWS if row.name == "backend")
        committed = json.loads(gate.BASELINE_PATH.read_text())[mode]["backend"]
        plan = plan_statements(
            [oltp_workload(), bi_workload()],
            horizon=row.params[mode]["horizon"],
            seed=row.seed,
        )
        assert (plan.digest(), len(plan)) == (
            committed["plan_digest"],
            committed["statements"],
        )


class TestPlanShape:
    def test_ordered_by_arrival(self):
        plan = _plan()
        submits = [s.submit_at for s in plan]
        assert submits == sorted(submits)

    def test_indices_are_dense(self):
        plan = _plan()
        assert [s.index for s in plan] == list(range(len(plan)))

    def test_max_statements_truncates(self):
        full = _plan(seed=2)
        cut = _plan(seed=2, max_statements=10)
        assert len(cut) == 10
        assert cut.statements == full.statements[:10]

    def test_operations_match_statement_types(self):
        for statement in _plan(horizon=40.0):
            if statement.statement_type in (
                StatementType.WRITE,
                StatementType.DML,
            ):
                assert statement.op.kind is OpKind.POINT_WRITE
            elif statement.statement_type is StatementType.READ:
                assert statement.op.kind in (
                    OpKind.POINT_READ,
                    OpKind.RANGE_AGG,
                )

    def test_heavy_reads_become_range_scans(self):
        plan = _plan(horizon=60.0)
        heavy = [
            s
            for s in plan
            if s.statement_type is StatementType.READ
            and s.true_cost.total_work >= 1.0
        ]
        assert heavy, "expected at least one heavy BI read in 60s"
        assert all(s.op.kind is OpKind.RANGE_AGG for s in heavy)
        assert all(s.op.span > 1 for s in heavy)

    def test_perfect_optimizer_by_default(self):
        for statement in _plan():
            assert statement.estimated_cost == statement.true_cost

    def test_operation_keys_lie_in_the_key_space(self):
        plan = _plan(horizon=60.0)
        assert all(0 <= s.op.key < KEY_SPACE for s in plan)
        assert all(s.op.span <= KEY_SPACE for s in plan)


class TestValidation:
    def test_closed_arrivals_rejected(self):
        spec = dataclasses.replace(
            oltp_workload(), arrivals=ClosedArrivals(population=2)
        )
        with pytest.raises(ConfigurationError, match="closed arrivals"):
            plan_statements([spec], horizon=10.0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_statements([oltp_workload()], horizon=0.0)


class TestQueryConstruction:
    def test_make_query_copies_plan_fields(self):
        statement = _plan().statements[0]
        query = statement.make_query()
        assert query.true_cost == statement.true_cost
        assert query.estimated_cost == statement.estimated_cost
        assert query.workload_name == statement.workload
        assert query.sql == statement.sql_label
        assert query.priority == statement.priority

    def test_make_query_returns_fresh_objects(self):
        statement = _plan().statements[0]
        assert statement.make_query().query_id != statement.make_query().query_id

    def test_queries_built_without_a_plan_share_one_immutable_plan(self):
        statement = _plan().statements[0]
        first, second = statement.make_query(), statement.make_query()
        shared = QueryPlan.trivial()
        assert first.plan is second.plan is shared
        assert all(piece.plan is shared for piece in split_query(first, 3))
        assert isinstance(shared.operators, tuple)
        assert [(op.name, op.work_fraction) for op in shared] == [("scan", 1.0)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.operators = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.operators[0].work_fraction = 0.5
