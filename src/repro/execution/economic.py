"""Economic-model resource allocation by business importance.

Paper §3.4 / Table 3 ("Policy Driven Resource Allocation", [4][46][78]):
"certain amounts of shared system resources are dynamically allocated
to competing workloads according to the workload's business importance
levels... utility functions are used to guide the dynamic resource
allocation processes, and economic concepts and models are employed to
potentially reduce the complexity of the resource allocation problem."

The market model from [78]: each workload receives *wealth*
proportional to its business importance; resources are auctioned each
period and a workload's purchasing power buys it a matching share.  In
our engine, fair-share weights *are* resource shares, so the effector
simply re-weights every running query such that the workload-level
totals match the wealth ratios — including when the importance policy
changes mid-run (the dynamic response experiment EXP13).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.classify import Feature
from repro.core.interfaces import ExecutionController, decisions_by
from repro.core.manager import WorkloadManager
from repro.engine.query import Query


class EconomicResourceAllocator(ExecutionController):
    """Re-weight running queries so workload shares track importance.

    Parameters
    ----------
    importance:
        Workload → business importance.  Workloads not listed fall back
        to their SLA importance (or 1).  Mutate via
        :meth:`set_importance` to model policy changes at run time.
    min_weight:
        Floor so no query is starved outright (economies with
        zero-wealth agents deadlock; see [78]'s discussion of
        starvation).
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.ACTS_AT_RUNTIME,
            Feature.CHANGES_RUNNING_PRIORITY,
            Feature.REALLOCATES_RESOURCES,
            Feature.USES_UTILITY_FUNCTIONS,
            Feature.USES_ECONOMIC_MODELS,
        }
    )

    def __init__(
        self,
        importance: Optional[Dict[str, int]] = None,
        min_weight: float = 0.05,
    ) -> None:
        self.importance = dict(importance or {})
        self.min_weight = min_weight

    def attach(self, context: WorkloadManager) -> None:
        self._context = context

    def set_importance(self, workload: str, importance: int) -> None:
        """Change the importance policy (takes effect next tick)."""
        if importance < 1:
            raise ValueError("importance must be >= 1")
        self.importance[workload] = importance

    def _importance_of(self, workload: Optional[str], context: WorkloadManager) -> int:
        if workload in self.importance:
            return self.importance[workload]
        return context.slas.importance_of(workload)

    def control(self, context: WorkloadManager) -> None:
        running = context.engine.running_queries()
        if not running:
            return
        by_workload: Dict[str, List[Query]] = {}
        for query in running:
            by_workload.setdefault(query.workload_name or "<unassigned>", []).append(
                query
            )
        # Wealth proportional to importance; each workload spreads its
        # wealth evenly over its running queries.  Total weight is
        # normalized to the number of running queries so absolute
        # weights stay in a sane range.
        wealth = {
            name: float(self._importance_of(name, context))
            for name in by_workload
        }
        total_wealth = sum(wealth.values())
        if total_wealth <= 0:
            return
        snapshot: Dict[str, float] = {}
        for name, queries in by_workload.items():
            share = wealth[name] / total_wealth
            per_query = max(
                self.min_weight, share * len(running) / len(queries)
            )
            snapshot[name] = per_query
            for query in queries:
                if abs(context.engine.weight_of(query.query_id) - per_query) > 1e-9:
                    context.engine.set_weight(query.query_id, per_query)
        context.record(self, "allocate", detail=snapshot)

    def workload_share(self, workload: str) -> Optional[float]:
        """Latest per-query weight assigned to ``workload``."""
        events = decisions_by(self._context.decisions, type(self).__name__, "allocate")
        return events[-1].detail.get(workload) if events else None
