"""The admission retry re-decides one held request per closed wait.

A DELAY names what its request waits for (``AdmissionDecision.wait``).
Once a retry re-delays one hold under a wait, the later holds under
that wait are carried over undecided.  ``FullSweepManager`` keeps the
retry that re-decided every hold on every exit and tick; the property
below holds the keyed retry to it on generated gate stacks.
"""

from copy import deepcopy
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from benchmarks._scenarios import DEFAULT_MACHINE, build_manager, drive
from repro.admission.base import CompositeAdmission, PriorityExemptAdmission
from repro.admission.conflict_ratio import ConflictRatioAdmission
from repro.admission.indicators import (
    Indicator,
    IndicatorAdmission,
    memory_pressure,
    queue_length,
)
from repro.admission.threshold import ThresholdAdmission
from repro.admission.throughput_feedback import ThroughputFeedbackAdmission
from repro.core.interfaces import AdmissionController, AdmissionOutcome
from repro.core.manager import WorkloadManager
from repro.core.policy import AdmissionPolicy
from repro.engine.query import QueryState, StatementType
from repro.engine.simulator import Simulator
from repro.systems.teradata import (
    ObjectThrottle,
    UtilityThrottle,
    _ObjectThrottleAdmission,
    _UtilityThrottleAdmission,
)
from repro.workloads.generator import Scenario, bi_workload, oltp_workload
from repro.workloads.models import Exponential, OpenArrivals, RequestClass, WorkloadSpec

from tests.conftest import make_query


class FullSweepManager(WorkloadManager):
    """The reference retry: every hold is re-decided at every retry."""

    def _retry_delayed(self) -> None:
        if not self._delayed:
            return
        pending, self._delayed = self._delayed, []
        if self._backlog_listeners:
            self._backlog_changed()
        for query, _ in pending:
            decision = self.admission.decide(query, self)
            if decision.outcome is AdmissionOutcome.REJECT:
                self._reject(query, decision)
            elif decision.outcome is AdmissionOutcome.DELAY:
                self._delayed.append((query, decision))
                if self._backlog_listeners:
                    self._backlog_changed()
            else:
                self.scheduler.enqueue(query, self)
                if self._backlog_listeners:
                    self._backlog_changed()
                self.pump()
        self.pump()
        if self._backlog_listeners:
            self._backlog_changed()


class CountingAdmission(AdmissionController):
    """Counts the decisions its inner gate makes and forwards them."""

    def __init__(self, inner: AdmissionController) -> None:
        self.inner = inner
        self.calls = 0

    def attach(self, context) -> None:
        self.inner.attach(context)

    def notify_exit(self, query, context) -> None:
        self.inner.notify_exit(query, context)

    def decide(self, query, context):
        self.calls += 1
        return self.inner.decide(query, context)


def test_a_standing_mpl_backlog_is_decided_a_bounded_number_of_times():
    # 160 requests/s past an MPL of 4: the full sweep made 261 decisions
    # per completion here, and more the longer the backlog stands
    gate = CountingAdmission(ThresholdAdmission(AdmissionPolicy(max_concurrency=4)))
    manager = build_manager(Simulator(seed=5), admission=gate)
    drive(manager, Scenario(specs=(oltp_workload(rate=160.0),), horizon=10.0), drain=200.0)
    metrics = manager.metrics
    assert sum(metrics.stats_for(name).completions for name in metrics.workloads()) == 1545
    assert gate.calls <= 4 * 1545


# ----------------------------------------------------------------------
# the keyed retry against the full sweep
# ----------------------------------------------------------------------
def _etl_workload() -> WorkloadSpec:
    """Loads of one object and scans of another: two throttled objects."""
    load = RequestClass(
        name="load",
        cpu=Exponential(0.2),
        io=Exponential(0.3),
        statement_type=StatementType.LOAD,
        objects=("sales",),
    )
    scan = RequestClass(
        name="scan",
        cpu=Exponential(0.3),
        io=Exponential(0.2),
        objects=("stock",),
    )
    return WorkloadSpec(
        name="etl",
        request_classes=((load, 0.5), (scan, 0.5)),
        arrivals=OpenArrivals(rate=4.0),
        priority=2,
    )


SCENARIO = Scenario(
    specs=(oltp_workload(rate=50.0), bi_workload(rate=0.5), _etl_workload()),
    horizon=6.0,
)


def _threshold(periodic: bool):
    """An MPL gate, global plus up to two per-workload scopes; with
    ``periodic`` its cost limit tightens at t = 3 s."""
    default = st.builds(
        AdmissionPolicy,
        reject_over_cost=st.none() | st.sampled_from([0.05, 20.0, 60.0]),
        max_concurrency=st.integers(1, 6),
        period_overrides=st.just(((0.0, 3.0, 1000.0),) if periodic else ()),
        day_length=st.just(1000.0),
    )
    scoped = st.dictionaries(
        st.sampled_from(["oltp", "bi", "etl"]),
        st.builds(AdmissionPolicy, max_concurrency=st.integers(0, 2)),
        max_size=2,
    )
    return st.builds(ThresholdAdmission, default, scoped)


DELAYING = st.one_of(
    _threshold(periodic=False),
    st.builds(ConflictRatioAdmission, st.sampled_from([1.0, 1.05, 1.3])),
    st.builds(
        ThroughputFeedbackAdmission,
        initial_mpl=st.integers(1, 6),
        interval=st.sampled_from([1.0, 2.5]),
        step=st.just(1),
    ),
    st.builds(
        _ObjectThrottleAdmission,
        st.lists(
            st.builds(ObjectThrottle, st.sampled_from(["sales", "stock"]), st.integers(1, 2)),
            min_size=1,
            max_size=2,
            unique_by=lambda throttle: throttle.object_name,
        ),
    ),
    st.builds(_UtilityThrottleAdmission, st.builds(UtilityThrottle, st.integers(1, 2))),
    # unkeyed: re-decided at every retry
    st.builds(
        IndicatorAdmission,
        st.just(
            [
                Indicator("memory_pressure", memory_pressure, 0.6),
                Indicator("queue_length", queue_length, 8.0),
            ]
        ),
    ),
)


@st.composite
def _stacks(draw):
    """One or two delaying gates, then optionally a cost limit the
    period moves (unkeyed, and last: no gate behind it can hold a
    request it would now reject), wrapped in a priority exemption and
    behind a static cost gate, each optionally."""
    gates = draw(st.lists(DELAYING, min_size=1, max_size=2))
    if draw(st.booleans()):
        gates.append(draw(_threshold(periodic=True)))
    gate = gates[0] if len(gates) == 1 else CompositeAdmission(gates)
    if draw(st.booleans()):
        gate = PriorityExemptAdmission(gate, draw(st.sampled_from([2, 3])))
    if draw(st.booleans()):
        costs = AdmissionPolicy(reject_over_cost=draw(st.sampled_from([0.1, 30.0])))
        gate = CompositeAdmission([ThresholdAdmission(costs), gate])
    return gate


def _observe(manager_type, gate, seed):
    """Everything a retry's order can move: the decision record, each
    terminal outcome and the counts every backlog ping reads."""
    sim = Simulator(seed=seed)
    counted = CountingAdmission(gate)
    manager = manager_type(sim, machine=DEFAULT_MACHINE, admission=counted)
    base = make_query().query_id  # the run's queries are numbered after it
    pings, outcomes = [], []
    manager.add_backlog_listener(
        lambda: pings.append((sim.now, manager.queued_count, manager.running_count))
    )
    manager.add_completion_listener(
        lambda query: outcomes.append((query.query_id - base, query.state, query.end_time))
    )
    drive(manager, SCENARIO, drain=20.0)
    decisions = [
        replace(event, query_id=event.query_id and event.query_id - base)
        for event in manager.decisions
    ]
    return (decisions, outcomes, pings), counted.calls


@settings(max_examples=30, deadline=None)
@given(_stacks(), st.integers(1, 1000))
def test_the_keyed_retry_decides_as_the_full_sweep(gate, seed):
    reference = deepcopy(gate)
    seen, calls = _observe(WorkloadManager, gate, seed)
    expected, reference_calls = _observe(FullSweepManager, reference, seed)
    assert seen == expected
    assert calls <= reference_calls


def test_a_front_gate_reject_lands_when_the_wait_ahead_reopens():
    """The one documented difference from the full sweep.  A gate in
    front of the delaying gate whose accept can turn into a reject (here
    a cost limit the period tightens at t = 10 s) rejects a carried-over
    hold only once a retry decides it again: after the hold ahead of it
    under the same wait leaves, not at the first retry after t = 10 s."""

    def run(manager_type):
        costs = AdmissionPolicy(
            reject_over_cost=1.0, period_overrides=((0.0, 10.0, 1000.0),), day_length=1000.0
        )
        gate = CompositeAdmission(
            [ThresholdAdmission(costs), ThresholdAdmission(AdmissionPolicy(max_concurrency=1))]
        )
        manager = manager_type(Simulator(seed=1), machine=DEFAULT_MACHINE, admission=gate)
        running, cheap, dear = (make_query(cpu=cpu, io=0.0) for cpu in (20.0, 0.5, 5.0))
        for query in (running, cheap, dear):
            manager.submit(query)
        manager.run(horizon=0.0, drain=60.0)
        assert (running.state, cheap.state, dear.state) == (
            QueryState.COMPLETED,
            QueryState.COMPLETED,
            QueryState.REJECTED,
        )
        return running.end_time, dear.end_time

    freed, rejected = run(WorkloadManager)
    assert freed > 10.0 and rejected == freed
    assert run(FullSweepManager) == (freed, 10.0)
