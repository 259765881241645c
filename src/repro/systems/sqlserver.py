"""Microsoft SQL Server Resource/Query Governor model (§4.1.2, [50][51]).

Components mirrored:

* **resource pools** (:class:`ResourcePool`) — MIN/MAX percentages of
  the server's CPU and memory.  "One portion does not overlap with
  other pools, which enables a minimum resource reservation...  The
  other portion is shared with other pools, which supports maximum
  resource consumption."  The sum of MINs cannot exceed 100%.
* **workload groups** (:class:`WorkloadGroup`) — containers for similar
  session requests, each associated with a pool; ``internal`` and
  ``default`` are predefined.
* **classification** — a user-written function evaluated per session,
  returning a workload-group name (errors/unknown → default group).
* **Query Governor Cost Limit** — "the query governor will disallow
  execution of any arriving query that has an estimated execution time
  exceeding the value"; zero disables the limit.

``ResourceGovernorConfig.build()`` compiles to: classifier-function
characterization, threshold-based admission (the governor), and a
:class:`ResourcePoolController` that continuously re-weights running
queries so each pool's realized share respects MIN (reservation) and
MAX (cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.admission.threshold import ThresholdAdmission
from repro.characterization.static import ClassifierFunctionCharacterizer
from repro.core.policy import Threshold, ThresholdAction, ThresholdKind
from repro.execution.cancellation import KillRule, QueryKillController
from repro.core.classify import Feature
from repro.core.interfaces import ExecutionController, ManagerContext
from repro.core.policy import AdmissionPolicy
from repro.engine.query import Query
from repro.engine.sessions import Session
from repro.errors import ConfigurationError
from repro.scheduling.queues import MultiQueueScheduler
from repro.systems.base import SystemBundle


@dataclass(frozen=True)
class ResourcePool:
    """A resource pool with MIN/MAX percentages (CPU; memory alike)."""

    name: str
    min_percent: float = 0.0
    max_percent: float = 100.0

    def __post_init__(self) -> None:
        if not 0 <= self.min_percent <= 100:
            raise ConfigurationError("min_percent must be in [0, 100]")
        if not self.min_percent <= self.max_percent <= 100:
            raise ConfigurationError(
                "max_percent must be in [min_percent, 100]"
            )


@dataclass(frozen=True)
class WorkloadGroup:
    """A workload group bound to a resource pool.

    ``request_max_cpu_time_sec`` mirrors the group option of the same
    name: a request exceeding it raises the *CPU Threshold Exceeded*
    event and is cancelled.
    """

    name: str
    pool: str
    importance: int = 1
    group_max_requests: Optional[int] = None   # per-group MPL
    request_max_cpu_time_sec: Optional[float] = None


ClassifierFn = Callable[[Query, Optional[Session]], Optional[str]]


class ResourcePoolController(ExecutionController):
    """Enforce pool MIN/MAX shares by re-weighting running queries.

    Every control tick the controller computes each pool's target share
    of the machine: start from demand-proportional sharing, then raise
    shares below MIN to MIN and clip shares above MAX to MAX
    (re-normalizing the unconstrained pools) — the semantics of
    reservation plus cap over a shared remainder.  Weights are then set
    so each pool's queries jointly receive the target share.
    """

    TECHNIQUE_FEATURES = frozenset(
        {Feature.ACTS_AT_RUNTIME, Feature.REALLOCATES_RESOURCES}
    )

    def __init__(
        self,
        pools: Sequence[ResourcePool],
        group_to_pool: Dict[str, str],
    ) -> None:
        if sum(p.min_percent for p in pools) > 100.0 + 1e-9:
            raise ConfigurationError("sum of pool MINs exceeds 100%")
        self.pools = {pool.name: pool for pool in pools}
        self.group_to_pool = dict(group_to_pool)

    def _pool_of(self, query: Query) -> str:
        group = query.workload_name or "default"
        return self.group_to_pool.get(group, "default")

    def target_shares(self, demand: Dict[str, int]) -> Dict[str, float]:
        """Pool → share of the machine, honoring MIN/MAX (unit sum)."""
        active = {name: n for name, n in demand.items() if n > 0}
        if not active:
            return {}
        total = sum(active.values())
        shares = {name: n / total for name, n in active.items()}
        # apply MIN floors and MAX caps iteratively
        for _ in range(len(active) + 1):
            fixed: Dict[str, float] = {}
            for name in active:
                pool = self.pools.get(name)
                if pool is None:
                    continue
                if shares[name] * 100.0 < pool.min_percent - 1e-9:
                    fixed[name] = pool.min_percent / 100.0
                elif shares[name] * 100.0 > pool.max_percent + 1e-9:
                    fixed[name] = pool.max_percent / 100.0
            if not fixed:
                break
            free = [name for name in active if name not in fixed]
            remaining = 1.0 - sum(fixed.values())
            free_total = sum(demand[name] for name in free)
            for name, share in fixed.items():
                shares[name] = share
            for name in free:
                if free_total > 0 and remaining > 0:
                    shares[name] = remaining * demand[name] / free_total
                else:
                    shares[name] = 0.0
        return shares

    def control(self, context: ManagerContext) -> None:
        running = context.engine.running_queries()
        if not running:
            return
        by_pool: Dict[str, List[Query]] = {}
        for query in running:
            by_pool.setdefault(self._pool_of(query), []).append(query)
        demand = {name: len(queries) for name, queries in by_pool.items()}
        shares = self.target_shares(demand)
        if not shares:
            return
        for name, queries in by_pool.items():
            share = shares.get(name, 0.0)
            per_query = max(0.02, share * len(running) / len(queries))
            for query in queries:
                if abs(context.engine.weight_of(query.query_id) - per_query) > 1e-9:
                    context.engine.set_weight(query.query_id, per_query)
        context.record(self, "set_shares", detail=shares)


def default_group(query: Query, session: Optional[Session]) -> str:
    """The classifier a configuration without one uses: every request
    goes to the ``default`` group."""
    return "default"


@dataclass
class ResourceGovernorConfig:
    """A full Resource Governor + Query Governor setup."""

    pools: Sequence[ResourcePool] = (ResourcePool("default"),)
    groups: Sequence[WorkloadGroup] = (WorkloadGroup("default", "default"),)
    classifier: Optional[ClassifierFn] = None
    #: Query Governor Cost Limit in estimated-work seconds; 0 disables,
    #: matching the server option's semantics.
    query_governor_cost_limit: float = 0.0

    def build(self) -> SystemBundle:
        pool_names = {pool.name for pool in self.pools}
        for group in self.groups:
            if group.pool not in pool_names:
                raise ConfigurationError(
                    f"group {group.name!r} references unknown pool {group.pool!r}"
                )
        group_names = [group.name for group in self.groups]
        priorities = {group.name: group.importance for group in self.groups}

        characterizer = ClassifierFunctionCharacterizer(
            self.classifier or default_group,
            known_groups=group_names,
            default_group="default",
            priorities=priorities,
        )

        cost_limit = (
            self.query_governor_cost_limit
            if self.query_governor_cost_limit > 0
            else None
        )
        admission = ThresholdAdmission(
            default_policy=AdmissionPolicy(reject_over_cost=cost_limit)
        )

        scheduler = MultiQueueScheduler(
            per_workload_mpl={
                group.name: group.group_max_requests
                for group in self.groups
                if group.group_max_requests is not None
            }
        )

        controller = ResourcePoolController(
            self.pools,
            group_to_pool={group.name: group.pool for group in self.groups},
        )
        controllers = [controller]
        cpu_limited = [
            group
            for group in self.groups
            if group.request_max_cpu_time_sec is not None
        ]
        if cpu_limited:
            # REQUEST_MAX_CPU_TIME_SEC: the "CPU Threshold Exceeded"
            # event, enforced as cancellation of offending requests
            rules = [
                KillRule(
                    threshold=Threshold(
                        ThresholdKind.CPU_TIME,
                        group.request_max_cpu_time_sec,
                        ThresholdAction.STOP_EXECUTION,
                    ),
                    applies_to_workloads=(group.name,),
                )
                for group in cpu_limited
            ]
            controllers.append(QueryKillController(rules))

        return SystemBundle(
            characterizer=characterizer,
            admission=admission,
            scheduler=scheduler,
            execution_controllers=controllers,
            name="Microsoft SQL Server Resource/Query Governor",
        )
