"""Conflict-ratio admission control (Moenkeberg & Weikum [56], Table 2).

"The conflict ratio is the ratio of the total number of locks that are
held by all transactions in the system and total number of locks held
by active transactions.  If the conflict ratio exceeds a (critical)
threshold, then new transactions are suspended, otherwise they are
admitted" (paper §3.2).

The critical ratio in [56] is ≈1.3: beyond it, most held locks belong
to blocked transactions and admitting more work only deepens the data
contention.  Read-only requests take no locks and pass through.
"""

from __future__ import annotations

from repro.core.classify import Feature
from repro.core.interfaces import AdmissionController, AdmissionDecision
from repro.core.manager import WorkloadManager
from repro.engine.query import Query


class ConflictRatioAdmission(AdmissionController):
    """Suspend new transactions while the conflict ratio is critical."""

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_ARRIVAL,
            Feature.USES_THRESHOLDS,
            Feature.THRESHOLD_ON_PERFORMANCE_METRIC,
        }
    )

    def __init__(self, critical_ratio: float = 1.3) -> None:
        if critical_ratio < 1.0:
            raise ValueError("critical_ratio must be >= 1.0")
        self.critical_ratio = critical_ratio
        self.suspensions = 0  # delays decided; a carried-over hold adds none

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        if query.true_cost.lock_count == 0:
            return AdmissionDecision.accept("read-only request takes no locks")
        ratio = context.engine.conflict_ratio()
        if ratio > self.critical_ratio:
            self.suspensions += 1
            return AdmissionDecision.delay(
                f"conflict ratio {ratio:.2f} exceeds critical "
                f"{self.critical_ratio:.2f}", self
            )
        return AdmissionDecision.accept(f"conflict ratio {ratio:.2f} ok")
