"""The block draw: ``WorkloadSpec.draw`` against a scalar oracle, and the
generator's row cursor over it.

``draw`` is the one place a request's class, cost and plan split are
sampled, and its column-major order is the determinism contract of
every ``costs:*`` stream.  The oracle here walks that documented order
one scalar draw at a time — ``rng.choice`` for the picks,
``Distribution.sample`` for the costs, scalar ``rng.dirichlet`` for the
splits — and must equal the vectorized draw bit for bit, stream
position included.
"""

import copy
import pickle
import random
from dataclasses import astuple
from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.plan import plan_statements
from repro.core.manager import WorkloadManager
from repro.engine.query import PlanOperator, QueryPlan
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.parallel.digest import outcome_digest
from repro.workloads import generator as generator_module
from repro.workloads.generator import (
    Scenario,
    WorkloadGenerator,
    bi_workload,
    oltp_workload,
)
from repro.workloads.models import (
    BatchArrivals,
    ClosedArrivals,
    Constant,
    Exponential,
    LogNormal,
    OpenArrivals,
    RequestClass,
    Uniform,
    WorkloadSpec,
)

BLOCK = generator_module._BLOCK_ROWS

_OPERATORS = ("scan", "join", "sort", "aggregate", "hash-build", "fetch")

_positive = st.floats(min_value=1e-3, max_value=500.0)
distributions = st.one_of(
    st.builds(Constant, st.floats(min_value=0.0, max_value=500.0)),
    st.builds(Exponential, _positive),
    st.builds(
        LogNormal,
        median=_positive,
        sigma=st.floats(min_value=0.0, max_value=2.0),
        cap=st.one_of(st.none(), _positive),
    ),
    st.tuples(_positive, _positive).map(lambda ab: Uniform(min(ab), max(ab))),
)
request_classes = st.builds(
    RequestClass,
    name=st.sampled_from(("a", "b", "c")),
    cpu=distributions,
    io=distributions,
    memory_mb=distributions,
    locks=distributions,
    rows=distributions,
    # 0 operators (the "scan" fallback) up to 9: past numpy's pairwise-sum
    # threshold, so the row-wise renormalisation is compared there too
    plan_shape=st.lists(st.sampled_from(_OPERATORS), max_size=9).map(tuple),
)
mixes = st.lists(st.tuples(request_classes, _positive), min_size=1, max_size=3)


def _spec(mix, name="w", arrivals=OpenArrivals(rate=1.0)):
    return WorkloadSpec(name=name, request_classes=tuple(mix), arrivals=arrivals)


def _reference_draw(spec, rng, n):
    """``n`` rows in the documented column-major order, scalar by scalar."""
    classes = [cls for cls, _ in spec.request_classes]
    weights = np.array([weight for _, weight in spec.request_classes])
    picks = [
        int(rng.choice(len(classes), p=weights / weights.sum())) for _ in range(n)
    ]
    cpu, io, memory, locks, rows, fractions = ([None] * n for _ in range(6))
    for class_index, cls in enumerate(classes):
        members = [row for row, pick in enumerate(picks) if pick == class_index]
        for column, distribution in ((cpu, cls.cpu), (io, cls.io), (memory, cls.memory_mb)):
            for row in members:
                column[row] = max(0.0, distribution.sample(rng))
        for column, distribution in ((locks, cls.locks), (rows, cls.rows)):
            for row in members:
                column[row] = int(round(max(0.0, distribution.sample(rng))))
        alpha = np.full(max(1, len(cls.plan_shape)), 2.0)
        for row in members:
            split = rng.dirichlet(alpha)
            fractions[row] = [float(f) for f in split / split.sum()]
    return ([classes[pick] for pick in picks], cpu, io, memory, locks, rows, fractions)


class TestDrawOracle:
    @given(
        distribution=distributions,
        n=st.sampled_from((0, 1, 7, 300)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sample_n_is_n_sequential_samples(self, distribution, n, seed):
        scalar_rng = np.random.default_rng(seed)
        block_rng = np.random.default_rng(seed)
        block = distribution.sample_n(block_rng, n)
        assert block.shape == (n,)
        assert block.tolist() == [distribution.sample(scalar_rng) for _ in range(n)]
        assert block_rng.bit_generator.state == scalar_rng.bit_generator.state

    @given(
        mix=mixes,
        n=st.sampled_from((1, 7, 300)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_draw_equals_the_scalar_walk_bit_for_bit(self, mix, n, seed):
        spec = _spec(mix)
        oracle_rng = np.random.default_rng(seed)
        draw_rng = np.random.default_rng(seed)
        columns = spec.draw(draw_rng, n)
        expected = _reference_draw(spec, oracle_rng, n)
        assert all(a is b for a, b in zip(columns.request_class, expected[0]))
        assert tuple(columns[1:]) == expected[1:]
        # same stream position: the next block starts where the oracle would
        assert draw_rng.bit_generator.state == oracle_rng.bit_generator.state

    @given(mix=mixes, seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_every_row_builds_a_valid_cost_and_plan(self, mix, seed):
        columns = _spec(mix).draw(np.random.default_rng(seed), 64)
        assert {len(column) for column in columns} == {64}
        for request_class, cpu, io, memory, locks, rows, fractions in zip(*columns):
            assert cpu >= 0.0 and io >= 0.0 and memory >= 0.0
            assert type(locks) is int and locks >= 0
            assert type(rows) is int and rows >= 0
            # draw raised unless every split sums to 1 (1e-6)
            plan = request_class.plan(fractions)
            assert isinstance(plan, QueryPlan)
            assert len(plan) == max(1, len(request_class.plan_shape))
            assert all(type(op.work_fraction) is float for op in plan)


def _stream_rows(spec, seed, count):
    """The first ``count`` rows of the spec's ``costs:`` stream, a block
    at a time — what the k-th query of the spec must be, however made."""
    rng = Simulator(seed=seed).rng(f"costs:{spec.name}")
    blocks = chain.from_iterable(
        zip(*spec.draw(rng, BLOCK)) for _ in range(count // BLOCK + 1)
    )
    return [
        (f"{spec.name}:{cls.name}", tuple(cost), tuple(fractions))
        for cls, *cost, fractions in islice(blocks, count)
    ]


def _as_rows(queries):
    return [
        (q.sql, astuple(q.true_cost), tuple(op.work_fraction for op in q.plan))
        for q in queries
    ]


_MIX = (
    (RequestClass("short", Exponential(0.02), Exponential(0.01)), 3.0),
    (
        RequestClass(
            "long",
            LogNormal(5.0, 0.8),
            Uniform(1.0, 4.0),
            rows=LogNormal(900.0, 1.0),
            plan_shape=("scan", "hash-build", "join", "sort", "aggregate"),
        ),
        1.0,
    ),
)


class TestGeneratorCursor:
    COUNT = BLOCK * 5 // 2      # two and a half blocks

    def _open_driven(self, seed):
        sim = Simulator(seed=seed)
        made = []
        spec = _spec(_MIX, arrivals=BatchArrivals(count=self.COUNT, at=1.0))
        generator = WorkloadGenerator(sim, made.append)
        generator.add(spec)
        generator.start(horizon=10.0)
        sim.run_until(10.0)
        return spec, made

    def _completion_driven(self, seed, order):
        sim = Simulator(seed=seed)
        made, pending = [], []

        def submit(query):
            made.append(query)
            pending.append(query)

        spec = _spec(
            _MIX, arrivals=ClosedArrivals(population=7, think_time=Uniform(0.0, 0.4))
        )
        generator = WorkloadGenerator(sim, submit)
        generator.add(spec)
        generator.start(horizon=1e9)
        clock = 0.0
        while len(made) < self.COUNT:
            clock += 0.25
            sim.run_until(clock)
            order.shuffle(pending)
            for query in pending:
                generator.notify_done(query)
            pending.clear()
        return made[: self.COUNT]

    def test_kth_query_is_row_k_however_it_was_triggered(self):
        spec, by_arrival = self._open_driven(seed=31)
        expected = _stream_rows(spec, seed=31, count=self.COUNT)
        assert len(by_arrival) == self.COUNT
        assert _as_rows(by_arrival) == expected
        for shuffle_seed in (1, 2):
            by_completion = self._completion_driven(31, random.Random(shuffle_seed))
            assert _as_rows(by_completion) == expected

    def test_two_specs_never_share_a_block(self):
        sim = Simulator(seed=8)
        made = []
        a = _spec(_MIX, name="a", arrivals=BatchArrivals(count=BLOCK + 40, at=1.0))
        quick = RequestClass("quick", Exponential(0.02), Constant(0.0))
        b = _spec(((quick, 1.0),), name="b", arrivals=OpenArrivals(rate=60.0))
        generator = WorkloadGenerator(sim, made.append)
        generator.add(a)
        generator.add(b)
        generator.start(horizon=6.0)
        sim.run_until(6.0)
        for spec in (a, b):
            own = [q for q in made if q.sql.startswith(f"{spec.name}:")]
            assert len(own) > BLOCK
            assert _as_rows(own) == _stream_rows(spec, seed=8, count=len(own))

    def test_same_seed_same_outcome_digest(self):
        def run(seed):
            sim = Simulator(seed=seed)
            manager = WorkloadManager(
                sim,
                machine=MachineSpec(cpu_capacity=8, disk_capacity=8, memory_mb=8192),
            )
            closed = _spec(
                _MIX[:1],
                name="closed",
                arrivals=ClosedArrivals(population=6, think_time=Exponential(0.05)),
            )
            scenario = Scenario(specs=(oltp_workload(rate=40.0), closed), horizon=8.0)
            generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
            manager.add_completion_listener(generator.notify_done)
            manager.run(8.0, drain=5.0)
            assert generator.generated_count > 2 * BLOCK
            return outcome_digest(manager)

        assert run(5) == run(5)
        assert run(5) != run(6)


def test_planner_and_simulator_draw_through_the_same_function(monkeypatch):
    calls = []
    original = WorkloadSpec.draw

    def recording_draw(self, rng, n):
        calls.append((self.name, n))
        return original(self, rng, n)

    monkeypatch.setattr(WorkloadSpec, "draw", recording_draw)
    specs = (oltp_workload(rate=20.0), bi_workload(rate=2.0))

    plan = plan_statements(specs, horizon=5.0, seed=3)
    planned = dict(calls)
    assert set(planned) == {"oltp", "bi"}
    assert sum(planned.values()) == len(plan)          # one draw per spec
    calls.clear()

    sim = Simulator(seed=3)
    manager = WorkloadManager(sim)
    Scenario(specs=specs, horizon=5.0).build(
        sim, manager.submit, sessions=manager.sessions
    )
    manager.run(5.0, drain=1.0)
    assert {name for name, _ in calls} == {"oltp", "bi"}
    assert {n for _, n in calls} == {BLOCK}


_BLOCKING = ("sort", "hash-build", "aggregate")


def _checked_plan(request_class, fractions):
    """The plan the class's operators and ``fractions`` make, built and
    checked at once by ``QueryPlan(operators=...)``."""
    names = tuple(request_class.plan_shape) or ("scan",)
    return QueryPlan(
        operators=tuple(
            PlanOperator(name, fraction, request_class.operator_state_mb, name in _BLOCKING)
            for name, fraction in zip(names, fractions)
        )
    )


class _ZeroSplits:
    """A generator whose Dirichlet draws are all zeros: rows no
    renormalization can make sum to 1."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def dirichlet(self, alpha, size):
        return np.zeros((size, len(alpha)))


_PROGRESS = np.linspace(0.0, 1.0, 21).tolist()

#: every way to read a plan
_PLAN_READS = {
    "operators": lambda plan: plan.operators,
    "iter": list,
    "len": len,
    "operator_at_progress": lambda plan: [plan.operator_at_progress(p) for p in _PROGRESS],
    "progress_at_operator_start": lambda plan: [
        plan.progress_at_operator_start(index) for index in range(7)
    ],
    "hash": hash,
    "repr": repr,
}


class TestDrawnPlan:
    """``RequestClass.plan`` builds the drawn split's operators without
    the per-plan sum check; every read equals the checked plan's."""

    CLASSES = (
        _MIX[0][0],                                   # default shape
        _MIX[1][0],                                   # five operators, three blocking
        RequestClass("bare", Constant(1.0), Constant(1.0), plan_shape=()),
        RequestClass("probe", Constant(0.1), Constant(0.1),
                     plan_shape=("index-probe", "update"), operator_state_mb=0.5),
    )

    def _drawn(self, seed=17, n=64):
        spec = _spec([(cls, 1.0) for cls in self.CLASSES])
        rows = list(zip(*spec.draw(np.random.default_rng(seed), n)))
        assert {row[0].name for row in rows} == {cls.name for cls in self.CLASSES}
        return [(cls.plan(fractions), _checked_plan(cls, fractions)) for cls, *_, fractions in rows]

    def test_len_is_the_class_operator_count(self):
        pairs = self._drawn()
        assert {len(drawn) for drawn, _ in pairs} == {1, 2, 3, 5}

    @pytest.mark.parametrize("read", _PLAN_READS.values(), ids=list(_PLAN_READS))
    def test_every_read_equals_the_checked_plan(self, read):
        for drawn, checked in self._drawn():
            assert read(drawn) == read(checked)
            assert drawn == checked and checked == drawn

    def test_copies_equal_the_checked_plan(self):
        for drawn, checked in self._drawn():
            for copied in (pickle.loads(pickle.dumps(drawn)), copy.deepcopy(drawn)):
                assert copied == checked and copied.operators == checked.operators

    def test_draw_checks_every_split_it_hands_out(self):
        spec = _spec([(cls, 1.0) for cls in self.CLASSES])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="sum to"):
            spec.draw(_ZeroSplits(np.random.default_rng(3)), 8)
