"""Threshold-based admission control on system parameters (Table 2).

The two classic thresholds of §2.3/§3.2:

* **query cost** — "if a newly arriving query has estimated costs
  greater than the threshold, then the query is rejected, otherwise it
  is admitted";
* **MPL** — "if the number of concurrently running requests reaches
  the threshold, then no new requests are admitted".

Both consume the *optimizer's estimates* and the *running count*, never
the true costs, exactly as commercial facilities do.  Per-workload
policies give higher-priority workloads less restrictive thresholds,
and period overrides support day/night operating rules.

This class implements both — the features of the DB2 work-class cost
gates, SQL Server's Query Governor Cost Limit, and Teradata's query
resource filters + object throttles.  The comparisons themselves are
:meth:`AdmissionPolicy.violation`, which the real-DBMS runner
(:class:`~repro.backends.runner.BackendRunner`) calls too.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.classify import Feature
from repro.core.interfaces import AdmissionController, AdmissionDecision
from repro.core.manager import WorkloadManager
from repro.core.policy import AdmissionPolicy, ThresholdAction, ThresholdKind
from repro.engine.query import Query


class ThresholdAdmission(AdmissionController):
    """Cost and MPL thresholds, per workload.

    Parameters
    ----------
    default_policy:
        Applied to workloads with no specific policy; if None, an empty
        :class:`AdmissionPolicy` (no limit: every request is admitted).
    per_workload:
        Workload name → :class:`AdmissionPolicy` overrides.
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_ARRIVAL,
            Feature.USES_THRESHOLDS,
            Feature.THRESHOLD_ON_SYSTEM_PARAMETER,
        }
    )

    def __init__(
        self,
        default_policy: Optional[AdmissionPolicy] = None,
        per_workload: Optional[Mapping[str, AdmissionPolicy]] = None,
    ) -> None:
        self.default_policy = default_policy or AdmissionPolicy()
        self.per_workload: Dict[str, AdmissionPolicy] = dict(per_workload or {})
        # exposed for experiments: decisions made (a carried-over hold adds none)
        self.cost_rejections = 0
        self.mpl_delays = 0
        self.mpl_rejections = 0

    def policy_for(self, query: Query) -> AdmissionPolicy:
        """Resolve the admission policy applying to this request."""
        return self.per_workload.get(query.workload_name, self.default_policy)

    def _workload_running(self, workload: Optional[str], context: WorkloadManager) -> int:
        return sum(
            1
            for q in context.engine.running_queries()
            if q.workload_name == workload
        )

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        policy = self.policy_for(query)
        running = 0
        if policy.max_concurrency is not None:
            # Per-workload MPL if the policy came from a per-workload
            # entry, global otherwise: we count conservatively at the
            # scope the policy was configured for.
            running = (
                self._workload_running(query.workload_name, context)
                if query.workload_name in self.per_workload
                else context.engine.running_count
            )
        broken = policy.violation(query.estimated_cost.total_work, running, context.now)
        if broken is None:
            return AdmissionDecision.accept("within thresholds")
        kind, action, reason = broken
        if action is ThresholdAction.QUEUE:  # only the MPL queues
            self.mpl_delays += 1
            # its scope's MPL, unless the period can turn this hold into a reject
            scope = query.workload_name if query.workload_name in self.per_workload else None
            wait = None if policy.period_overrides else (self, scope)
            return AdmissionDecision.delay(reason, wait)
        if kind is ThresholdKind.CONCURRENCY:
            self.mpl_rejections += 1
        else:
            self.cost_rejections += 1
        return AdmissionDecision.reject(reason)
