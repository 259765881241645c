"""The real-DBMS path's deleted copies, kept here as oracles.

``AdmissionGate`` (the runner's own cost/outstanding gate),
``summarize_log`` (its own response-time reduction) and the threshold
controller's inline comparisons were replaced by one
:meth:`AdmissionPolicy.violation` and one
:meth:`WorkloadStats.from_log`.  Each deleted body lives on below
verbatim, and hypothesis drives old and new through the same inputs.
The threshold copy tracks the live gate's contract since: it lost the
deleted queueing cost limit and names its delays' wait.
"""

from dataclasses import replace
from types import SimpleNamespace
from typing import Optional

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.admission.threshold import ThresholdAdmission
from repro.backends.compare import outcome_metrics
from repro.core.interfaces import AdmissionDecision
from repro.core.metrics import WorkloadStats
from repro.core.policy import AdmissionPolicy, ThresholdAction
from repro.engine.query import CostVector, QueryState, StatementType
from repro.workloads.traces import QueryLog, QueryLogRecord


# ----------------------------------------------------------------------
# oracles: the deleted code
# ----------------------------------------------------------------------
class AdmissionGate:
    def __init__(self, cost_limit=None, max_outstanding=None):
        self.cost_limit = cost_limit
        self.max_outstanding = max_outstanding

    def decide(self, query, outstanding: int) -> Optional[str]:
        if self.cost_limit is not None:
            estimated = query.estimated_cost.total_work
            if estimated > self.cost_limit:
                return (
                    f"estimated cost {estimated:.1f}s exceeds limit "
                    f"{self.cost_limit:.1f}s"
                )
        if self.max_outstanding is not None and outstanding >= self.max_outstanding:
            return f"outstanding limit {self.max_outstanding} reached"
        return None


def summarize_log(log, horizon: float, time_scale: float = 1.0) -> dict:
    states = {state: 0 for state in QueryState}
    response_times = []
    for record in log:
        states[record.final_state] += 1
        if record.completed and record.response_time is not None:
            response_times.append(record.response_time / time_scale)
    completed = states[QueryState.COMPLETED]
    count = len(log)
    if response_times:
        rts = np.asarray(response_times, dtype=np.float64)
        mean_rt = float(rts.mean())
        p50_rt = float(np.percentile(rts, 50))
        p95_rt = float(np.percentile(rts, 95))
    else:
        mean_rt = p50_rt = p95_rt = 0.0
    return {
        "count": count,
        "completed": completed,
        "rejected": states[QueryState.REJECTED],
        "killed": states[QueryState.KILLED],
        "aborted": states[QueryState.ABORTED],
        "throughput": completed / horizon,
        "mean_rt": mean_rt,
        "p50_rt": p50_rt,
        "p95_rt": p95_rt,
        "rejection_rate": states[QueryState.REJECTED] / count if count else 0.0,
    }


class InlineThresholdAdmission(ThresholdAdmission):
    """``ThresholdAdmission.decide`` before the comparisons moved."""

    def decide(self, query, context):
        policy = self.policy_for(query)
        cost_limit = policy.cost_limit_at(context.now)
        if cost_limit is not None:
            estimated = query.estimated_cost.total_work
            if estimated > cost_limit:
                self.cost_rejections += 1
                return AdmissionDecision.reject(
                    f"estimated cost {estimated:.1f}s exceeds limit "
                    f"{cost_limit:.1f}s"
                )
        if policy.max_concurrency is not None:
            scoped = query.workload_name in self.per_workload
            running = (
                self._workload_running(query.workload_name, context)
                if scoped
                else context.engine.running_count
            )
            if running >= policy.max_concurrency:
                if policy.queue_when_full:
                    self.mpl_delays += 1
                    scope = query.workload_name if scoped else None
                    return AdmissionDecision.delay(
                        f"MPL {policy.max_concurrency} reached ({running} running)",
                        None if policy.period_overrides else (self, scope),
                    )
                self.mpl_rejections += 1
                return AdmissionDecision.reject(
                    f"MPL {policy.max_concurrency} reached ({running} running)"
                )
        return AdmissionDecision.accept("within thresholds")


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
COST = st.floats(0.0, 50.0, allow_nan=False) | st.sampled_from([0.0, 1.0, 2.5, 5.0])
LIMIT = st.none() | COST
COUNT = st.integers(0, 8)


def _query(estimated, workload="oltp"):
    return SimpleNamespace(
        estimated_cost=CostVector(cpu_seconds=estimated), workload_name=workload
    )


@settings(max_examples=300, deadline=None)
@given(COST, COUNT, LIMIT, st.none() | COUNT, st.floats(0.0, 1e5, allow_nan=False))
def test_the_runner_rejects_what_the_gate_rejected(
    estimated, outstanding, cost_limit, max_outstanding, at
):
    # the policy `backend --cost-limit/--max-outstanding` builds, and the
    # runner's rule: only a reject verdict rejects
    old = AdmissionGate(cost_limit, max_outstanding).decide(_query(estimated), outstanding)
    policy = AdmissionPolicy(
        reject_over_cost=cost_limit, max_concurrency=max_outstanding, queue_when_full=False
    )
    broken = policy.violation(CostVector(cpu_seconds=estimated).total_work, outstanding, at)
    assert (old is not None) == (broken is not None and broken[1] is ThresholdAction.REJECT)
    if old is not None and "exceeds" in old:
        assert broken[2] == old  # the cost reason was always the same text


WORKLOADS = st.sampled_from(["oltp", "bi", "etl"])
POLICIES = st.builds(
    AdmissionPolicy,
    reject_over_cost=LIMIT,
    max_concurrency=st.none() | COUNT,
    queue_when_full=st.booleans(),
    period_overrides=st.lists(
        st.tuples(st.floats(0, 100), st.floats(0, 100), COST), max_size=2
    ).map(tuple),
    day_length=st.just(100.0),
)


@settings(max_examples=300, deadline=None)
@given(
    POLICIES,
    st.dictionaries(WORKLOADS, POLICIES, max_size=2),
    st.lists(WORKLOADS, max_size=8),
    st.lists(st.tuples(COST, WORKLOADS, st.floats(0.0, 1e4, allow_nan=False)), max_size=6),
)
def test_threshold_admission_decides_and_counts_as_before(default, per_workload, running, asks):
    running_queries = [_query(1.0, workload) for workload in running]
    engine = SimpleNamespace(
        running_count=len(running_queries), running_queries=lambda: running_queries
    )
    old = InlineThresholdAdmission(default, per_workload)
    new = ThresholdAdmission(default, per_workload)
    for estimated, workload, now in asks:
        context = SimpleNamespace(now=now, engine=engine)
        query = _query(estimated, workload)
        decision, expected = new.decide(query, context), old.decide(query, context)
        if expected.wait is not None:  # each gate names its own waits
            expected = replace(expected, wait=(new, expected.wait[1]))
        assert decision == expected
    counters = ("cost_rejections", "mpl_delays", "mpl_rejections")
    assert [getattr(new, c) for c in counters] == [getattr(old, c) for c in counters]


# ----------------------------------------------------------------------
# outcome aggregate
# ----------------------------------------------------------------------
TERMINAL = st.sampled_from(
    [QueryState.COMPLETED, QueryState.REJECTED, QueryState.KILLED, QueryState.ABORTED]
)
TIME = st.floats(0.0, 1e4, allow_nan=False)
RECORDS = st.lists(st.tuples(TERMINAL, TIME, st.none() | TIME), max_size=40)


def _log(rows):
    log = QueryLog()
    cost = CostVector(cpu_seconds=0.1)
    for query_id, (state, submit, span) in enumerate(rows):
        log.append(
            QueryLogRecord(
                query_id=query_id,
                workload="oltp",
                statement_type=StatementType.READ,
                priority=1,
                submit_time=submit,
                start_time=None,
                end_time=None if span is None else submit + span,
                final_state=state,
                estimated_cost=cost,
                true_cost=cost,
                session_id=None,
            )
        )
    return log


@settings(max_examples=300, deadline=None)
@given(
    RECORDS,
    st.floats(1e-3, 1e4, allow_nan=False),
    st.sampled_from([1.0, 0.02, 0.005, 1e-4]) | st.floats(1e-6, 10.0, allow_nan=False),
)
def test_workload_stats_of_a_log_equal_summarize_log(rows, horizon, time_scale):
    log = _log(rows)
    new = outcome_metrics(WorkloadStats.from_log(log, time_scale), horizon)
    assert new == summarize_log(log, horizon, time_scale)  # bit-equal floats
