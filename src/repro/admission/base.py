"""Composition helpers for admission controllers.

Workloads with different priorities are associated with different
admission-control policies (paper §2.3), and real facilities stack
several gates (Teradata applies filters *and* throttles).  These
combinators express that without each controller reimplementing it.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.interfaces import AdmissionController, AdmissionDecision, AdmissionOutcome
from repro.core.manager import WorkloadManager
from repro.engine.query import Query


class CompositeAdmission(AdmissionController):
    """Chain of admission gates; the first non-ACCEPT decision wins.

    Mirrors commercial stacking, e.g. Teradata's filters (reject) in
    front of throttles (delay).
    """

    def __init__(self, gates: Sequence[AdmissionController]) -> None:
        if not gates:
            raise ValueError("CompositeAdmission needs at least one gate")
        self.gates = list(gates)

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        for gate in self.gates:
            decision = gate.decide(query, context)
            if decision.outcome is not AdmissionOutcome.ACCEPT:
                return decision
        return AdmissionDecision.accept("all gates passed")

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        for gate in self.gates:
            gate.notify_exit(query, context)

    def attach(self, context: WorkloadManager) -> None:
        for gate in self.gates:
            gate.attach(context)


class PriorityExemptAdmission(AdmissionController):
    """Exempt high-priority requests from an inner gate.

    "A high priority workload usually has higher (less restrictive)
    thresholds, so high priority requests can be guaranteed to be
    admitted" (§2.3).  Requests with priority >= ``exempt_priority``
    bypass ``inner`` entirely.
    """

    def __init__(self, inner: AdmissionController, exempt_priority: int = 3) -> None:
        self.inner = inner
        self.exempt_priority = exempt_priority

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        if query.priority >= self.exempt_priority:
            return AdmissionDecision.accept(
                f"priority {query.priority} exempt from admission control"
            )
        return self.inner.decide(query, context)

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        self.inner.notify_exit(query, context)

    def attach(self, context: WorkloadManager) -> None:
        self.inner.attach(context)
