"""The committed scenario × policy matrix the survival report covers.

Six scenario shapes — the multi-tenant consolidation stories the
paper's introduction motivates — crossed with four isolation-policy
configurations, from the free-for-all baseline to full two-tier
isolation.  Everything here is pure data; the sweep
(:mod:`repro.scenarios.sweep`) expands it into deterministic tasks.

Beside the matrix sit the two parameterised single-stream cluster
scenarios, :func:`cluster_overload` (EXP18) and :func:`matcher_stress`
(push vs pull at 64-256 nodes).  :func:`get_scenario` resolves all eight
by name.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.cluster.dispatcher import DISPATCH_MODES
from repro.cluster.placement import POLICY_NAMES
from repro.errors import ConfigurationError
from repro.scenarios.spec import (
    ArrivalSpec,
    ChaosSpec,
    PolicyConfig,
    ScenarioSpec,
    SLASpec,
    TenantSpec,
    WorkloadPattern,
)

#: Matrix-wide horizon: short enough for CI, long enough for diurnal
#: cycles, flash crowds and crash waves to play out.
HORIZON = 60.0

_OLTP_SLA = SLASpec(average=0.5, p95=2.0, importance=3)
_RELAXED_SLA = SLASpec(average=2.0, p95=8.0, importance=2)


def _oltp(
    rate_or_arrival, priority: int = 3, sla: SLASpec = _OLTP_SLA
) -> WorkloadPattern:
    arrival = (
        rate_or_arrival
        if isinstance(rate_or_arrival, ArrivalSpec)
        else ArrivalSpec(kind="open", rate=float(rate_or_arrival))
    )
    return WorkloadPattern(
        kind="oltp", arrival=arrival, priority=priority, sla=sla
    )


def _bi(
    rate: float,
    priority: int = 1,
    sla: Optional[SLASpec] = None,
    **params: object,
) -> WorkloadPattern:
    return WorkloadPattern(
        kind="bi",
        arrival=ArrivalSpec(kind="open", rate=rate),
        priority=priority,
        sla=sla,
        params=tuple(sorted(params.items())),
    )


# ----------------------------------------------------------------------
# the six scenario shapes
# ----------------------------------------------------------------------
def diurnal_mix() -> ScenarioSpec:
    """Two phase-shifted diurnal OLTP tenants plus a steady BI tenant.

    The tenants' peaks interleave — the classic consolidation bet that
    "their peaks won't align" — while the BI tenant grinds along
    underneath.
    """
    return ScenarioSpec(
        name="diurnal_mix",
        description="phase-shifted diurnal OLTP tenants + steady BI",
        horizon=HORIZON,
        nodes=4,
        mpl=6,
        tenants=(
            TenantSpec(
                name="corp",
                share=2.0,
                workloads=(
                    _oltp(
                        ArrivalSpec(
                            kind="diurnal",
                            rate=9.0,
                            amplitude=0.7,
                            period=30.0,
                        )
                    ),
                ),
            ),
            TenantSpec(
                name="euro",
                share=2.0,
                workloads=(
                    _oltp(
                        ArrivalSpec(
                            kind="diurnal",
                            rate=9.0,
                            amplitude=0.7,
                            period=30.0,
                            phase=15.0,
                        )
                    ),
                ),
            ),
            TenantSpec(
                name="lab",
                share=1.0,
                quota=8,
                workloads=(_bi(0.15),),
            ),
        ),
    )


def flash_crowd() -> ScenarioSpec:
    """One tenant's flash crowd against another's steady stream.

    ``shop`` quadruples its rate mid-run (the viral-event spike);
    ``steady`` just wants its SLA to survive the neighbor's surge.
    """
    return ScenarioSpec(
        name="flash_crowd",
        description="mid-run 4x arrival spike on one tenant",
        horizon=HORIZON,
        nodes=4,
        mpl=6,
        tenants=(
            TenantSpec(
                name="shop",
                share=2.0,
                quota=60,
                noisy=True,
                workloads=(
                    _oltp(
                        ArrivalSpec.flash_crowd(
                            rate=8.0,
                            onset=0.4 * HORIZON,
                            end=0.65 * HORIZON,
                            burst=4.0,
                        ),
                        sla=_RELAXED_SLA,
                    ),
                ),
            ),
            TenantSpec(
                name="steady",
                share=2.0,
                workloads=(_oltp(8.0),),
            ),
        ),
    )


def noisy_neighbor() -> ScenarioSpec:
    """The canonical antagonist: a BI flood burying a latency tenant.

    ``hog`` submits multi-second scans fast enough to hold every
    execution slot it can get; ``acme`` runs cheap transactions under a
    tight SLA.  Without isolation the scans own the cluster and acme's
    p95 explodes; with per-tenant reservations and quotas the flood
    saturates hog's own entitlement and acme rides undisturbed.
    """
    return ScenarioSpec(
        name="noisy_neighbor",
        description="BI flood tenant vs latency-SLA victim tenant",
        horizon=HORIZON,
        nodes=4,
        mpl=6,
        tenants=(
            TenantSpec(
                name="acme",
                share=3.0,
                workloads=(_oltp(10.0),),
            ),
            TenantSpec(
                name="hog",
                share=1.0,
                quota=10,
                noisy=True,
                workloads=(
                    _bi(
                        1.2,
                        median_cpu=5.0,
                        median_io=8.0,
                        sigma=0.6,
                        memory_low=100.0,
                        memory_high=400.0,
                    ),
                ),
            ),
        ),
    )


def batch_window() -> ScenarioSpec:
    """A report batch lands mid-run on top of a latency tenant."""
    return ScenarioSpec(
        name="batch_window",
        description="report batch window over steady OLTP",
        horizon=HORIZON,
        nodes=4,
        mpl=6,
        tenants=(
            TenantSpec(
                name="ops",
                share=3.0,
                workloads=(_oltp(10.0),),
            ),
            TenantSpec(
                name="finance",
                share=1.0,
                quota=12,
                noisy=True,
                workloads=(
                    WorkloadPattern(
                        kind="reports",
                        arrival=ArrivalSpec(
                            kind="batch", count=60, at=0.25 * HORIZON
                        ),
                        priority=2,
                        params=(("median_cpu", 2.0), ("median_io", 3.0)),
                    ),
                ),
            ),
        ),
    )


def utility_storm() -> ScenarioSpec:
    """Maintenance utilities (backup-shaped I/O hogs) under OLTP."""
    return ScenarioSpec(
        name="utility_storm",
        description="maintenance utility storm under a latency tenant",
        horizon=HORIZON,
        nodes=4,
        mpl=6,
        tenants=(
            TenantSpec(
                name="prod",
                share=3.0,
                workloads=(_oltp(10.0),),
            ),
            TenantSpec(
                name="dba",
                share=1.0,
                quota=4,
                noisy=True,
                workloads=(
                    WorkloadPattern(
                        kind="utilities",
                        arrival=ArrivalSpec(
                            kind="batch", count=6, at=0.3 * HORIZON
                        ),
                        priority=1,
                        params=(("io_seconds", 20.0),),
                    ),
                ),
            ),
        ),
    )


def churn() -> ScenarioSpec:
    """Node crash waves plus a degrade under a two-tenant mix.

    The chaos tier: rotating crash/recover waves take out a quarter of
    the cluster while one surviving node runs at half speed — the
    resilience story (conservation must hold per tenant through every
    resubmission).
    """
    return ScenarioSpec(
        name="churn",
        description="crash waves + node degrade under a two-tenant mix",
        horizon=HORIZON,
        nodes=4,
        mpl=6,
        tenants=(
            TenantSpec(
                name="red",
                share=2.0,
                workloads=(_oltp(8.0, sla=_RELAXED_SLA),),
            ),
            TenantSpec(
                name="blue",
                share=1.0,
                quota=10,
                workloads=(_bi(0.2),),
            ),
        ),
        chaos=ChaosSpec(
            crash_waves=2,
            kill_fraction=0.25,
            outage=0.15,
            degrade=((0.55, 1, 0.5),),
            degrade_recovery=0.2,
        ),
    )


# ----------------------------------------------------------------------
# the two single-stream cluster scenarios (no tenants)
# ----------------------------------------------------------------------
_BI_SLA = SLASpec(average=120.0, importance=1)

#: Every fourth node markedly slow, another quarter mildly slow: the
#: mix where early binding hurts (work committed to a slow node waits
#: out its backlog) and late binding shines (slow nodes pull less often).
HETEROGENEOUS_SPEEDS = (1.0, 1.0, 0.7, 0.4)


def cluster_overload(
    nodes: int = 4,
    horizon: float = 60.0,
    mpl: int = 2,
    oltp_rate: float = 30.0,
    bi_rate: float = 0.3,
    max_queue_depth: Optional[int] = None,
    crashes: Tuple[Tuple[float, str, Optional[float]], ...] = (),
) -> ScenarioSpec:
    """The EXP18 mix: a fast OLTP stream plus occasional BI monsters.

    The BI stream (~0.3/s of multi-second scans) amounts to roughly one
    :data:`~repro.cluster.node.NODE_MACHINE` node's worth of sustained
    work — enough to saturate one node but leave a 4-node cluster with
    ample headroom.  At the tight per-node MPL placement decides
    everything: blind round-robin keeps landing OLTP behind BI monsters
    that hold the dispatch slots for seconds, while load-aware policies
    steer the cheap stream to whichever nodes are clear.  ``crashes``
    is :attr:`ChaosSpec.crashes` (the node-kill runs).
    """
    return ScenarioSpec(
        name="cluster_overload",
        description="EXP18: OLTP stream + BI monsters, placement decides",
        horizon=horizon,
        nodes=nodes,
        mpl=mpl,
        max_queue_depth=max_queue_depth,
        workloads=(
            _oltp(oltp_rate),
            _bi(
                bi_rate,
                sla=_BI_SLA,
                median_cpu=6.0,
                median_io=10.0,
                sigma=0.8,
                memory_low=150.0,
                memory_high=600.0,
            ),
        ),
        chaos=ChaosSpec(crashes=crashes),
    )


def matcher_stress(
    nodes: int = 64,
    horizon: float = 120.0,
    oltp_rate_per_node: float = 6.0,
    bi_rate: float = 1.0,
) -> ScenarioSpec:
    """The push-vs-pull stress mix: steady load plus a flash crowd.

    A per-node-scaled OLTP stream quadruples between 35% and 50% of the
    horizon — the burst that floods whatever queue structure the binding
    policy keeps — over heterogeneous node speeds and three crash/recover
    waves; a BI stream of multi-second scans rides along so per-class
    shares and slow-node binding both matter.  Push and pull runs of one
    seed see the same arrivals, speeds and faults and differ only in
    *when work binds to capacity*.
    """
    return ScenarioSpec(
        name="matcher_stress",
        description="flash crowd over slow nodes and 3 crash waves",
        horizon=horizon,
        nodes=nodes,
        mpl=2,
        speeds=HETEROGENEOUS_SPEEDS,
        workloads=(
            _oltp(
                ArrivalSpec.flash_crowd(
                    rate=oltp_rate_per_node * nodes,
                    onset=0.35 * horizon,
                    end=0.5 * horizon,
                    burst=4.0,
                )
            ),
            _bi(
                bi_rate,
                sla=_BI_SLA,
                median_cpu=4.0,
                median_io=7.0,
                sigma=0.8,
                memory_low=150.0,
                memory_high=500.0,
            ),
        ),
        chaos=ChaosSpec(crash_waves=3),
    )


_MATRIX_BUILDERS = (
    diurnal_mix,
    flash_crowd,
    noisy_neighbor,
    batch_window,
    utility_storm,
    churn,
)

#: The committed scenario matrix, in report order.
MATRIX_SCENARIOS: Tuple[ScenarioSpec, ...] = tuple(
    builder() for builder in _MATRIX_BUILDERS
)

#: Every scenario :func:`get_scenario` resolves, by builder name.
SCENARIO_BUILDERS: Dict[str, Callable[..., ScenarioSpec]] = {
    builder.__name__: builder
    for builder in (*_MATRIX_BUILDERS, cluster_overload, matcher_stress)
}

#: The committed isolation-policy grid, in report order.
MATRIX_POLICIES: Tuple[PolicyConfig, ...] = (
    PolicyConfig(name="baseline"),
    PolicyConfig(name="node-shares", node_shares=True),
    PolicyConfig(name="quotas", cluster_quotas=True),
    PolicyConfig(
        name="full-isolation",
        node_shares=True,
        cluster_quotas=True,
        queue_shares=True,
        dispatch="pull",
    ),
)


def scenario_names() -> Tuple[str, ...]:
    return tuple(spec.name for spec in MATRIX_SCENARIOS)


def policy_names() -> Tuple[str, ...]:
    return tuple(policy.name for policy in MATRIX_POLICIES)


def get_scenario(name: str, **params: object) -> ScenarioSpec:
    """The scenario ``name`` builds; ``params`` go to its builder (the
    two cluster scenarios take some, the matrix shapes take none)."""
    builder = SCENARIO_BUILDERS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; one of {tuple(SCENARIO_BUILDERS)}"
        )
    return builder(**params)


def get_policy(name: str) -> PolicyConfig:
    """A matrix policy by name, or ``dispatch/placement`` (the string
    :meth:`PolicyConfig.describe` prints): that binding and placement
    with no isolation control armed."""
    for policy in MATRIX_POLICIES:
        if policy.name == name:
            return policy
    dispatch, _, placement = name.partition("/")
    if dispatch in DISPATCH_MODES and placement in POLICY_NAMES:
        return PolicyConfig(name=name, dispatch=dispatch, placement=placement)
    raise ConfigurationError(
        f"unknown policy {name!r}; one of {policy_names()} or "
        f"DISPATCH/PLACEMENT over {DISPATCH_MODES} and {POLICY_NAMES}"
    )
