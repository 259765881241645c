"""Unit tests for the query model: cost vectors, plans, lifecycle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.query import (
    CostVector,
    PlanOperator,
    Query,
    QueryPlan,
    QueryState,
    split_query,
    tenant_key,
    workload_key,
)
from repro.errors import QueryStateError

from tests.conftest import make_query


class TestCostVector:
    def test_nominal_duration_is_max_of_overlapped_devices(self):
        cost = CostVector(cpu_seconds=3.0, io_seconds=5.0)
        assert cost.nominal_duration == 5.0

    def test_total_work_sums_devices(self):
        cost = CostVector(cpu_seconds=3.0, io_seconds=5.0)
        assert cost.total_work == 8.0

    def test_scaled_scales_time_not_memory(self):
        cost = CostVector(4.0, 2.0, memory_mb=100.0, lock_count=5, rows=10)
        half = cost.scaled(0.5)
        assert half.cpu_seconds == 2.0
        assert half.io_seconds == 1.0
        assert half.memory_mb == 100.0
        assert half.lock_count == 5

    def test_addition(self):
        total = CostVector(1.0, 2.0, 10.0, 1, 5) + CostVector(3.0, 4.0, 20.0, 2, 5)
        assert total.cpu_seconds == 4.0
        assert total.io_seconds == 6.0
        assert total.memory_mb == 30.0
        assert total.lock_count == 3
        assert total.rows == 10

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CostVector().cpu_seconds = 1.0


class TestQueryPlan:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            QueryPlan(operators=(PlanOperator("a", 0.5), PlanOperator("b", 0.6)))

    def test_trivial_plan(self):
        plan = QueryPlan.trivial()
        assert len(plan) == 1
        assert plan.operators[0].work_fraction == 1.0

    def test_uniform_plan(self):
        plan = QueryPlan.uniform(["a", "b", "c", "d"])
        assert len(plan) == 4
        assert sum(op.work_fraction for op in plan) == pytest.approx(1.0)

    def test_operator_at_progress(self):
        plan = QueryPlan.uniform(["a", "b", "c", "d"])
        assert plan.operator_at_progress(0.0) == 0
        assert plan.operator_at_progress(0.3) == 1
        assert plan.operator_at_progress(0.9) == 3
        assert plan.operator_at_progress(1.0) == 3

    def test_progress_at_operator_start(self):
        plan = QueryPlan.uniform(["a", "b", "c", "d"])
        assert plan.progress_at_operator_start(0) == 0.0
        assert plan.progress_at_operator_start(2) == pytest.approx(0.5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_operator_index_consistent_with_boundaries(self, progress):
        plan = QueryPlan.uniform(["a", "b", "c", "d", "e"])
        index = plan.operator_at_progress(progress)
        start = plan.progress_at_operator_start(index)
        assert start <= progress + 1e-9
        if index + 1 < len(plan):
            assert progress < plan.progress_at_operator_start(index + 1) + 1e-9


class TestLifecycle:
    def test_new_query_is_created(self):
        assert make_query().state is QueryState.CREATED

    def test_happy_path_transitions(self):
        query = make_query()
        for state in (
            QueryState.SUBMITTED,
            QueryState.QUEUED,
            QueryState.RUNNING,
            QueryState.COMPLETED,
        ):
            query.transition(state)
        assert query.state.is_terminal

    def test_illegal_transition_rejected(self):
        query = make_query()
        with pytest.raises(QueryStateError):
            query.transition(QueryState.RUNNING)

    def test_terminal_states_are_sticky(self):
        query = make_query()
        query.transition(QueryState.SUBMITTED)
        query.transition(QueryState.REJECTED)
        with pytest.raises(QueryStateError):
            query.transition(QueryState.QUEUED)

    def test_killed_is_final_and_an_aborted_attempt_re_enters(self):
        # a restart ends the attempt ABORTED and the same request
        # re-enters; KILLED is the client's outcome and leads nowhere
        assert Query._ALLOWED[QueryState.KILLED] == set()
        query = make_query()
        query.transition(QueryState.SUBMITTED)
        query.transition(QueryState.QUEUED)
        query.transition(QueryState.RUNNING)
        query.transition(QueryState.ABORTED)
        query.transition(QueryState.SUBMITTED)
        assert query.state is QueryState.SUBMITTED

    def test_suspended_can_rerun(self):
        query = make_query()
        query.transition(QueryState.SUBMITTED)
        query.transition(QueryState.RUNNING)
        query.transition(QueryState.SUSPENDED)
        query.transition(QueryState.RUNNING)
        assert query.state is QueryState.RUNNING

    @pytest.mark.parametrize("state", list(QueryState), ids=lambda s: s.value)
    def test_transition_accepts_exactly_the_allowed_moves(self, state):
        """Every (state, next) pair of the 10 x 10 grid: a move in
        ``Query._ALLOWED`` lands, any other raises naming both states."""
        for new_state in QueryState:
            query = make_query()
            query.state = state
            if new_state in Query._ALLOWED[state]:
                query.transition(new_state)
                assert query.state is new_state
            else:
                message = (
                    f"query {query.query_id}: illegal transition "
                    f"{state.value} -> {new_state.value}"
                )
                with pytest.raises(QueryStateError) as raised:
                    query.transition(new_state)
                assert str(raised.value) == message
                assert query.state is state

    def test_is_terminal_flags(self):
        assert QueryState.COMPLETED.is_terminal
        assert QueryState.REJECTED.is_terminal
        assert QueryState.KILLED.is_terminal
        assert not QueryState.RUNNING.is_terminal
        assert not QueryState.SUSPENDED.is_terminal


class TestTimings:
    def test_response_time(self):
        query = make_query()
        query.submit_time = 1.0
        query.end_time = 5.5
        assert query.response_time == pytest.approx(4.5)

    def test_response_time_none_before_end(self):
        query = make_query()
        query.submit_time = 1.0
        assert query.response_time is None

    def test_queueing_delay(self):
        query = make_query()
        query.submit_time = 1.0
        query.start_time = 3.0
        assert query.queueing_delay == pytest.approx(2.0)

    def test_velocity_one_when_no_delay(self):
        query = make_query(cpu=2.0, io=4.0)
        query.submit_time = 0.0
        query.end_time = 4.0  # nominal duration exactly
        assert query.execution_velocity(now=100.0) == pytest.approx(1.0)

    def test_velocity_half_when_doubled(self):
        query = make_query(cpu=2.0, io=4.0)
        query.submit_time = 0.0
        query.end_time = 8.0
        assert query.execution_velocity(now=100.0) == pytest.approx(0.5)

    def test_velocity_uses_now_while_running(self):
        query = make_query(cpu=0.0, io=4.0)
        query.submit_time = 0.0
        assert query.execution_velocity(now=16.0) == pytest.approx(0.25)

    def test_velocity_capped_at_one(self):
        query = make_query(cpu=10.0, io=10.0)
        query.submit_time = 0.0
        query.end_time = 1.0
        assert query.execution_velocity(now=1.0) == 1.0


class TestSplit:
    def test_split_query_divides_time_costs(self):
        query = make_query(cpu=10.0, io=20.0, sql="big")
        slices = split_query(query, 4)
        assert len(slices) == 4
        for piece in slices:
            assert piece.true_cost.cpu_seconds == pytest.approx(2.5)
            assert piece.true_cost.io_seconds == pytest.approx(5.0)
        total_cpu = sum(p.true_cost.cpu_seconds for p in slices)
        assert total_cpu == pytest.approx(10.0)

    def test_split_one_returns_original(self):
        query = make_query()
        assert split_query(query, 1) == [query]

    def test_split_invalid_pieces(self):
        with pytest.raises(ValueError):
            split_query(make_query(), 0)

    def test_slices_inherit_identity(self):
        query = make_query(priority=3, sql="wl:cls")
        query.workload_name = "wl"
        slices = split_query(query, 2)
        for piece in slices:
            assert piece.priority == 3
            assert piece.workload_name == "wl"
            assert "slice" in piece.sql

    def test_query_ids_unique(self):
        ids = {make_query().query_id for _ in range(100)}
        assert len(ids) == 100


class TestWorkloadTag:
    """The one parser of the generator's ``tenant/workload:class`` tag."""

    @pytest.mark.parametrize(
        "sql, name, key, tenant",
        [
            ("acme/bi:q7", None, "acme/bi", "acme"),
            ("oltp:t1", None, "oltp", None),
            ("oltp:t1", "gold", "gold", None),   # an identified name wins
            ("acme/bi:q7", "", "acme/bi", "acme"),
            ("select 1", None, None, None),      # untagged
            ("", None, None, None),
        ],
    )
    def test_key_and_tenant(self, sql, name, key, tenant):
        query = make_query(sql=sql, workload=name)
        assert workload_key(query) == key
        assert tenant_key(query) == tenant
