"""Regression tests for bugs found during development.

Each test reproduces a specific defect that once existed; the comment
names the failure mode so a reappearance is immediately recognizable.
"""

from repro.core.manager import WorkloadManager
from repro.engine.executor import ExecutionEngine
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec

from tests.conftest import make_query, submitted_query


class TestDenormalDemands:
    """A denormal (≈1e-309) I/O demand overflowed the speed-cap division
    and left the query RUNNING forever at progress 0."""

    def test_denormal_io_completes_instantly(self, sim):
        engine = ExecutionEngine(sim, MachineSpec(2.0, 2.0, 512.0))
        query = submitted_query(sim, cpu=0.0, io=2.2e-309)
        done = []
        engine.on_exit(lambda q, o: done.append(o.value))
        engine.start(query)
        sim.run()
        assert done == ["completed"]
        assert query.state is QueryState.COMPLETED

    def test_denormal_cpu_through_manager(self, sim):
        manager = WorkloadManager(
            sim, machine=MachineSpec(2.0, 2.0, 512.0)
        )
        query = make_query(cpu=1e-300, io=0.0)
        manager.submit(query)
        manager.run(horizon=0.0, drain=1.0)
        assert query.state is QueryState.COMPLETED


class TestSimultaneousCompletionReaping:
    """Queries reaching progress 1.0 during another query's completion
    sync were never reaped (speed 0, no milestone scheduled)."""

    def test_five_identical_queries_all_complete(self, sim):
        engine = ExecutionEngine(sim, MachineSpec(2.0, 1.0, 100.0))
        done = []
        engine.on_exit(lambda q, o: done.append(o.value))
        for _ in range(5):
            engine.start(submitted_query(sim, cpu=0.1, io=1.0, mem=50.0))
        sim.run()
        assert done.count("completed") == 5


class TestBatchDelayedRetry:
    """_retry_delayed admitted the entire delayed backlog against a
    stale running count, blowing through MPL admission limits."""

    def test_mpl_respected_across_retry_sweeps(self, sim):
        from repro.admission.threshold import ThresholdAdmission
        from repro.core.policy import AdmissionPolicy

        admission = ThresholdAdmission(AdmissionPolicy(max_concurrency=2))
        manager = WorkloadManager(
            sim,
            machine=MachineSpec(8.0, 8.0, 8192.0),
            admission=admission,
            control_period=0.5,
        )
        peak = [0]
        original_start = manager.engine.start

        def tracking_start(query, weight=1.0):
            original_start(query, weight)
            peak[0] = max(peak[0], manager.engine.running_count)

        manager.engine.start = tracking_start
        for _ in range(12):
            manager.submit(make_query(cpu=0.4, io=0.0))
        manager.run(horizon=2.0, drain=20.0)
        assert peak[0] <= 2
        assert manager.metrics.stats_for(None).completions == 12


class TestZeroSubmitTimeFalsiness:
    """`submit_time or now` treated a t=0 submission as 'just arrived',
    breaking SJF aging and every elapsed-time computation at t=0."""

    def test_sjf_aging_counts_from_time_zero(self, sim):
        from repro.core.manager import WaitQueue
        from repro.scheduling.queues import shortest_job

        scheduler = WaitQueue(1, key=shortest_job(aging_weight=100.0))
        manager = WorkloadManager(
            sim, machine=MachineSpec(4.0, 4.0, 4096.0), scheduler=scheduler
        )
        manager.submit(make_query(cpu=1.0, io=0.0))          # blocker
        old_big = make_query(cpu=10.0, io=0.0)               # t=0 arrival
        manager.submit(old_big)
        sim.run_until(0.9)
        manager.submit(make_query(cpu=0.5, io=0.0))          # young small
        sim.run_until(1.0)
        assert old_big.state is QueryState.RUNNING

    def test_fuzzy_elapsed_from_time_zero(self, sim):
        from repro.execution.krompass import FuzzyExecutionController

        controller = FuzzyExecutionController(
            long_running_onset=1.0, long_running_full=2.0, max_priority=2
        )
        manager = WorkloadManager(
            sim,
            machine=MachineSpec(4.0, 4.0, 4096.0),
            execution_controllers=[controller],
        )
        hog = make_query(cpu=100.0, io=0.0, priority=1)
        manager.submit(hog)  # starts at t=0.0 exactly
        sim.run_until(3.0)
        assessment = controller.assess(hog, manager)
        assert assessment.long_running == 1.0  # elapsed 3.0 >= full 2.0


class TestServiceClassVsSubclass:
    """Priority aging crashed (KeyError) when a query carried a service
    *class* name (DB2's 'main') instead of a ladder subclass."""

    def test_unknown_service_class_starts_at_ladder_top(self, sim):
        from repro.core.policy import Threshold, ThresholdAction, ThresholdKind
        from repro.execution.reprioritization import PriorityAgingController

        controller = PriorityAgingController(
            thresholds=[
                Threshold(ThresholdKind.ELAPSED_TIME, 1.0, ThresholdAction.DEMOTE)
            ],
            demote_cooldown=0.5,
        )
        manager = WorkloadManager(
            sim,
            machine=MachineSpec(4.0, 4.0, 4096.0),
            execution_controllers=[controller],
        )
        query = make_query(cpu=100.0, io=0.0)
        query.service_class = "main"  # a class, not a subclass
        manager.submit(query)
        manager.run(horizon=3.0, drain=0.0)  # must not raise
        assert query.service_class in ("high", "medium", "low")
        assert query.demotions >= 1
