"""Tests for workload models, generators and traces."""

import numpy as np
import pytest

from repro.core.manager import WorkloadManager
from repro.engine.query import StatementType
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.workloads.generator import (
    Scenario,
    bi_workload,
    mixed_scenario,
    oltp_workload,
    report_batch_workload,
    utility_workload,
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
from repro.workloads.traces import QueryLog

from tests.conftest import make_query


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestDistributions:
    def test_constant(self):
        assert Constant(3.0).sample(_rng()) == 3.0
        assert Constant(3.0).mean() == 3.0

    def test_exponential_mean(self):
        dist = Exponential(2.0)
        rng = _rng(1)
        values = [dist.sample(rng) for _ in range(5000)]
        assert np.mean(values) == pytest.approx(2.0, rel=0.1)
        assert dist.mean() == 2.0

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            Exponential(0.0)

    def test_lognormal_median_and_cap(self):
        dist = LogNormal(median=10.0, sigma=1.0, cap=50.0)
        rng = _rng(2)
        values = [dist.sample(rng) for _ in range(5000)]
        assert np.median(values) == pytest.approx(10.0, rel=0.15)
        assert max(values) <= 50.0

    def test_lognormal_mean_formula(self):
        dist = LogNormal(median=10.0, sigma=0.5)
        assert dist.mean() == pytest.approx(10.0 * np.exp(0.125))

    def test_uniform(self):
        dist = Uniform(1.0, 3.0)
        rng = _rng(3)
        values = [dist.sample(rng) for _ in range(1000)]
        assert all(1.0 <= v <= 3.0 for v in values)
        assert dist.mean() == 2.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            Uniform(3.0, 1.0)


class TestArrivals:
    def test_open_poisson_rate(self):
        arrivals = OpenArrivals(rate=5.0)
        times = arrivals.arrival_times(_rng(4), horizon=200.0)
        assert len(times) == pytest.approx(1000, rel=0.15)
        assert all(0 <= t < 200.0 for t in times)
        assert times == sorted(times)

    def test_open_phases_modulate_rate(self):
        arrivals = OpenArrivals(rate=10.0, phases=((50.0, 0.0),))
        times = arrivals.arrival_times(_rng(5), horizon=100.0)
        assert all(t < 50.0 + 1.0 for t in times)

    def test_phase_rate_lookup(self):
        arrivals = OpenArrivals(rate=1.0, phases=((10.0, 5.0), (20.0, 2.0)))
        assert arrivals.rate_at(5.0) == 1.0
        assert arrivals.rate_at(15.0) == 5.0
        assert arrivals.rate_at(25.0) == 2.0

    def test_zero_rate_jumps_to_next_phase(self):
        arrivals = OpenArrivals(rate=0.0, phases=((30.0, 10.0),))
        times = arrivals.arrival_times(_rng(6), horizon=40.0)
        assert times
        assert min(times) >= 30.0

    def test_closed_initial_population(self):
        arrivals = ClosedArrivals(population=7)
        times = arrivals.arrival_times(_rng(7), horizon=100.0)
        assert len(times) == 7

    def test_batch_all_at_once(self):
        arrivals = BatchArrivals(count=12, at=5.0)
        assert arrivals.arrival_times(_rng(8), horizon=100.0) == [5.0] * 12

    def test_batch_beyond_horizon_empty(self):
        assert BatchArrivals(count=3, at=200.0).arrival_times(_rng(), 100.0) == []


def _single_class_spec(cls):
    return WorkloadSpec(
        name="w", request_classes=((cls, 1.0),), arrivals=OpenArrivals(rate=1.0)
    )


class TestWorkloadSpec:
    def test_pick_class_respects_weights(self):
        heavy = RequestClass("h", Constant(1.0), Constant(1.0))
        light = RequestClass("l", Constant(0.1), Constant(0.1))
        spec = WorkloadSpec(
            name="w",
            request_classes=((heavy, 9.0), (light, 1.0)),
            arrivals=OpenArrivals(rate=1.0),
        )
        picks = [cls.name for cls in spec.draw(_rng(9), 1000).request_class]
        assert picks.count("h") > 800

    def test_mean_cost_mix_weighted(self):
        a = RequestClass("a", Constant(1.0), Constant(0.0))
        b = RequestClass("b", Constant(3.0), Constant(0.0))
        spec = WorkloadSpec(
            name="w",
            request_classes=((a, 1.0), (b, 1.0)),
            arrivals=OpenArrivals(rate=1.0),
        )
        assert spec.mean_cost().cpu_seconds == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="w", request_classes=(), arrivals=OpenArrivals(1.0))

    def test_request_class_cost_sampling(self):
        cls = RequestClass(
            "c",
            cpu=Constant(1.0),
            io=Constant(2.0),
            memory_mb=Constant(64.0),
            locks=Constant(3.0),
            rows=Constant(500.0),
            statement_type=StatementType.WRITE,
        )
        ((drawn, *cost, _fractions),) = zip(*_single_class_spec(cls).draw(_rng(10), 1))
        assert drawn is cls
        assert cost == [1.0, 2.0, 64.0, 3, 500]

    def test_plan_sampling_sums_to_one(self):
        cls = RequestClass("c", Constant(1.0), Constant(1.0))
        for fractions in _single_class_spec(cls).draw(_rng(11), 5).fractions:
            plan = cls.plan(fractions)
            assert sum(op.work_fraction for op in plan) == pytest.approx(1.0)
            assert len(plan) == len(cls.plan_shape)


class TestBuilders:
    def test_oltp_defaults(self):
        spec = oltp_workload(rate=20.0, priority=3)
        assert spec.priority == 3
        assert spec.arrivals.rate == 20.0
        assert spec.mean_cost().nominal_duration < 0.1

    def test_bi_heavier_than_oltp(self):
        bi = bi_workload()
        oltp = oltp_workload()
        assert bi.mean_cost().total_work > 100 * oltp.mean_cost().total_work

    def test_report_batch(self):
        spec = report_batch_workload(count=25, at=10.0)
        assert isinstance(spec.arrivals, BatchArrivals)
        assert spec.arrivals.count == 25

    def test_utility_statement_type(self):
        spec = utility_workload()
        assert spec.request_classes[0][0].statement_type is StatementType.UTILITY

    def test_mixed_scenario_contents(self):
        scenario = mixed_scenario(horizon=100.0)
        names = {spec.name for spec in scenario.specs}
        assert names == {"oltp", "bi", "reports"}
        assert scenario.spec("oltp").priority == 3
        with pytest.raises(KeyError):
            scenario.spec("nope")


class TestGenerator:
    def test_open_workload_generates_queries(self, sim):
        manager = WorkloadManager(
            sim, machine=MachineSpec(cpu_capacity=8, disk_capacity=8, memory_mb=8192)
        )
        scenario = Scenario(specs=(oltp_workload(rate=10.0),), horizon=20.0)
        generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
        manager.add_completion_listener(generator.notify_done)
        manager.run(20.0, drain=10.0)
        assert generator.generated_count == pytest.approx(200, rel=0.3)
        assert manager.metrics.stats_for("oltp").completions > 100

    def test_closed_workload_resubmits_after_think(self, sim):
        manager = WorkloadManager(
            sim, machine=MachineSpec(cpu_capacity=8, disk_capacity=8, memory_mb=8192)
        )
        quick = RequestClass("q", Constant(0.1), Constant(0.0))
        spec = WorkloadSpec(
            name="closed",
            request_classes=((quick, 1.0),),
            arrivals=ClosedArrivals(population=3, think_time=Constant(0.5)),
        )
        scenario = Scenario(specs=(spec,), horizon=10.0)
        generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
        manager.add_completion_listener(generator.notify_done)
        manager.run(10.0, drain=5.0)
        # each client cycles every ~0.6s for 10s -> ~16 queries each
        assert generator.generated_count > 30

    def test_queries_carry_session_and_tag(self, sim):
        manager = WorkloadManager(sim)
        scenario = Scenario(specs=(oltp_workload(rate=5.0),), horizon=2.0)
        generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
        query = generator.make_query(scenario.spec("oltp"))
        assert query.sql.startswith("oltp:")
        assert manager.sessions.get(query.session_id) is not None

    def test_specs_sharing_a_request_class_keep_their_own_outcomes(self):
        """The label an outcome is filed under names the spec, not
        whichever spec first drew from a shared RequestClass object."""
        sim = Simulator(seed=3)
        manager = WorkloadManager(sim)
        quick = RequestClass("q", Constant(0.01), Constant(0.0))
        specs = tuple(
            WorkloadSpec(
                name=name,
                request_classes=((quick, 1.0),),
                arrivals=OpenArrivals(rate=5.0),
            )
            for name in ("a", "b")
        )
        generator = Scenario(specs=specs, horizon=4.0).build(sim, manager.submit)
        manager.run(4.0, drain=2.0)
        done = {
            name: manager.metrics.stats_for(name).completions
            for name in manager.metrics.workloads()
        }
        assert set(done) == {"a", "b"} and min(done.values()) > 0
        assert sum(done.values()) == generator.generated_count

    def test_deterministic_across_runs(self):
        def run_once():
            sim = Simulator(seed=123)
            manager = WorkloadManager(
                sim,
                machine=MachineSpec(cpu_capacity=8, disk_capacity=8, memory_mb=8192),
            )
            scenario = mixed_scenario(horizon=30.0, oltp_rate=5.0)
            generator = scenario.build(
                sim, manager.submit, sessions=manager.sessions
            )
            manager.add_completion_listener(generator.notify_done)
            manager.run(30.0, drain=10.0)
            stats = manager.metrics.stats_for("oltp")
            return (stats.completions, stats.mean_response_time())

        assert run_once() == run_once()


class TestTraces:
    def test_record_and_filter(self, sim):
        manager = WorkloadManager(sim)
        log = QueryLog()
        manager.add_completion_listener(log.record_query)
        manager.submit(make_query(cpu=0.1, io=0.0, sql="a:q"))
        manager.submit(make_query(cpu=0.1, io=0.0, sql="b:q"))
        manager.run(0.0, drain=5.0)
        assert len(log) == 2
        assert len(log.records(workload="a")) == 1
        assert all(r.completed for r in log.records(completed_only=True))
