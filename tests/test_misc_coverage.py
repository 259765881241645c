"""Breadth coverage for small public surfaces not exercised elsewhere."""

import pytest

from repro.core.interfaces import AdmissionDecision, AdmissionOutcome
from repro.core.manager import WorkloadManager
from repro.engine.resources import MachineSpec
from repro.errors import (
    CapacityError,
    ClassificationError,
    ConfigurationError,
    DbwmError,
    PolicyError,
    QueryStateError,
    SchedulingError,
    SimulationError,
)
from repro.reporting.figures import ascii_bar_chart, ascii_line_chart

from tests.conftest import make_query


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            SimulationError,
            SchedulingError,
            PolicyError,
            ConfigurationError,
            QueryStateError,
            ClassificationError,
            CapacityError,
        ],
    )
    def test_all_derive_from_base(self, error):
        assert issubclass(error, DbwmError)
        with pytest.raises(DbwmError):
            raise error("x")


class TestAdmissionDecisionHelpers:
    def test_accept(self):
        decision = AdmissionDecision.accept("fine")
        assert decision.outcome is AdmissionOutcome.ACCEPT
        assert decision.reason == "fine"

    def test_reject_and_delay(self):
        assert AdmissionDecision.reject().outcome is AdmissionOutcome.REJECT
        assert AdmissionDecision.delay().outcome is AdmissionOutcome.DELAY

    def test_frozen(self):
        decision = AdmissionDecision.accept()
        with pytest.raises(AttributeError):
            decision.reason = "mutated"


class TestContextHelpers:
    def test_importance_of_defaults(self, sim):
        manager = WorkloadManager(sim)
        assert manager.slas.importance_of("unknown") == 1
        assert manager.slas.importance_of(None, default=7) == 7

    def test_context_now_tracks_sim(self, sim):
        manager = WorkloadManager(sim)
        sim.run_until(3.5)
        assert manager.now == 3.5

    def test_outstanding_work(self, sim):
        manager = WorkloadManager(
            sim, machine=MachineSpec(cpu_capacity=2, disk_capacity=2, memory_mb=512)
        )
        manager.submit(make_query(cpu=10.0, io=0.0))
        assert manager.outstanding_work() == 1


class TestChartEdgeCases:
    def test_line_chart_nan_values_skipped(self):
        chart = ascii_line_chart(
            [0, 1, 2], {"series": [1.0, float("nan"), 3.0]}
        )
        assert "series" in chart

    def test_line_chart_all_nan_rejected(self):
        with pytest.raises(ValueError):
            ascii_line_chart([0, 1], {"bad": [float("nan")] * 2})

    def test_line_chart_single_point(self):
        chart = ascii_line_chart([5.0], {"dot": [2.0]})
        assert "dot" in chart

    def test_bar_chart_zero_values(self):
        chart = ascii_bar_chart({"empty": 0.0, "full": 0.0})
        assert "empty" in chart

    def test_bar_chart_negative_values_render(self):
        chart = ascii_bar_chart({"loss": -2.0, "gain": 4.0})
        assert "-2" in chart


class TestMachineSpecEdges:
    def test_custom_capacities_flow_to_engine(self, sim):
        from repro.engine.executor import ExecutionEngine
        from repro.engine.resources import ResourceKind
        from tests.conftest import submitted_query

        engine = ExecutionEngine(
            sim, MachineSpec(cpu_capacity=16.0, disk_capacity=8.0, memory_mb=1.0)
        )
        assert engine.machine.cpu_capacity == 16.0
        assert engine.buffer_pool.capacity_mb == 1.0
        # one query alone keeps one core busy out of sixteen
        engine.start(submitted_query(sim, cpu=2.0, io=0.0, mem=0.0))
        assert engine.utilization(ResourceKind.CPU) == pytest.approx(1 / 16)


class TestPhaseDetectorValidation:
    def test_invalid_method(self):
        from repro.characterization.dynamic import WorkloadPhaseDetector

        with pytest.raises(ValueError):
            WorkloadPhaseDetector(method="kmeans")

    def test_untrained_predict(self):
        from repro.characterization.dynamic import WorkloadPhaseDetector
        from repro.characterization.features import WindowFeatures

        with pytest.raises(RuntimeError):
            WorkloadPhaseDetector().predict(
                WindowFeatures(0, 0, 0, 0, 0, 0)
            )


class TestQueueingModelWithQueueSample:
    def test_limit_uses_queued_queries_in_mix(self, sim):
        from repro.scheduling.mpl import QueueingModelMpl
        from repro.core.manager import WaitQueue

        scheduler = WaitQueue(QueueingModelMpl())
        manager = WorkloadManager(
            sim,
            machine=MachineSpec(cpu_capacity=2, disk_capacity=2, memory_mb=400),
            scheduler=scheduler,
        )
        # heavy-memory queries queue up; the model should see their
        # demands through queued_queries and bound concurrency
        for _ in range(6):
            manager.submit(make_query(cpu=5.0, io=0.0, mem=200.0))
        assert manager.running_count <= 2
        assert scheduler.queued_count() >= 4


class TestSummaryLineVariants:
    def test_includes_all_metrics_when_available(self, sim):
        manager = WorkloadManager(sim)
        manager.submit(make_query(cpu=0.2, io=0.0, sql="wl:q"))
        manager.run(horizon=0.0, drain=2.0)
        line = manager.metrics.summary_line("wl", sim.now)
        for token in ("rt_avg", "rt_p95", "vel", "xput"):
            assert token in line
