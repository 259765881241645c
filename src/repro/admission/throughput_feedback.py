"""Adaptive load control by throughput feedback (Heiss & Wagner [26]).

"The approach measures the transaction throughput over time intervals.
If the throughput in the last measurement interval has increased
(compared to the interval before), more transactions are admitted; if
the throughput has decreased, fewer transactions are admitted"
(paper §3.2, Table 2).

This is hill-climbing on the throughput-vs-MPL curve: the controller
keeps an admission limit (MPL), perturbs it in the current direction
each interval, and reverses direction when the measured throughput
drops.  It converges to a neighbourhood of the curve's knee — the
optimal MPL — without a model of the system, which is what the
experiment EXP4 validates against the exhaustive sweep of EXP1.
"""

from __future__ import annotations

from repro.core.classify import Feature
from repro.core.interfaces import AdmissionController, AdmissionDecision
from repro.core.manager import WorkloadManager
from repro.engine.query import Query, QueryState
from repro.scheduling.mpl import FeedbackMpl


class ThroughputFeedbackAdmission(AdmissionController):
    """Hill-climbing MPL controller driven by completion throughput.

    Parameters
    ----------
    initial_mpl, min_mpl, max_mpl:
        Start and bounds of the admission limit.
    interval:
        Measurement-interval length in simulated seconds.
    step:
        MPL change applied each interval.
    hysteresis:
        Relative throughput change below which the controller holds
        its direction (avoids flapping on noise).
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_ARRIVAL,
            Feature.USES_THRESHOLDS,
            Feature.THRESHOLD_ON_PERFORMANCE_METRIC,
            Feature.USES_FEEDBACK_CONTROLLER,
        }
    )

    def __init__(
        self,
        initial_mpl: int = 8,
        min_mpl: int = 1,
        max_mpl: int = 200,
        interval: float = 5.0,
        step: int = 2,
        hysteresis: float = 0.02,
    ) -> None:
        # the scheduler-side climber is the one implementation of the step
        self.climber = FeedbackMpl(initial_mpl, min_mpl, max_mpl, interval, step, hysteresis)
        self.climber.emitter = self
        self.delays = 0  # delays decided; a carried-over hold adds none

    @property
    def mpl(self) -> int:
        """The current admission limit."""
        return self.climber.limit

    def attach(self, context: WorkloadManager) -> None:
        self.climber.attach(context)

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        if context.engine.running_count >= self.mpl:
            self.delays += 1
            return AdmissionDecision.delay(f"feedback MPL {self.mpl} reached", self)
        return AdmissionDecision.accept(f"within feedback MPL {self.mpl}")

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        if query.state is QueryState.COMPLETED:
            self.climber.notify_completion()
