"""A cluster of one is the server it wraps.

Placement sits one level above scheduling (paper §3.3), so a one-node
push cluster must leave the node's outcome streams exactly as a bare
:class:`~repro.core.manager.WorkloadManager` on the same machine, with
the same scheduler, fed the same request stream, leaves them: the node
draws the server's lock stream and the dispatcher holds nothing back
from the node's scheduler.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.node import NODE_MACHINE
from repro.core.manager import WaitQueue, WorkloadManager
from repro.engine.simulator import Simulator
from repro.parallel.digest import outcome_digest
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    ArrivalSpec,
    PolicyConfig,
    ScenarioSpec,
    TenantSpec,
    WorkloadPattern,
)
from repro.scheduling.queues import TenantShareScheduler
from repro.workloads.generator import Scenario

HORIZON = 12.0

_ARRIVALS = st.one_of(
    st.builds(
        ArrivalSpec,
        kind=st.just("open"),
        rate=st.floats(min_value=0.5, max_value=40.0),
    ),
    st.builds(
        ArrivalSpec,
        kind=st.just("closed"),
        population=st.integers(min_value=1, max_value=12),
        think_time=st.floats(min_value=0.0, max_value=2.0),
    ),
    st.builds(
        ArrivalSpec,
        kind=st.just("batch"),
        count=st.integers(min_value=1, max_value=30),
        at=st.floats(min_value=0.0, max_value=HORIZON / 2),
    ),
    st.builds(
        ArrivalSpec,
        kind=st.just("diurnal"),
        rate=st.floats(min_value=0.5, max_value=20.0),
        period=st.floats(min_value=2.0, max_value=HORIZON),
    ),
)

#: OLTP drawn most: its transactions draw lock items, the stream a node
#: must share with the server it wraps.
_PATTERNS = st.builds(
    WorkloadPattern,
    kind=st.sampled_from(("oltp", "oltp", "oltp", "bi", "reports")),
    arrival=_ARRIVALS,
    priority=st.integers(min_value=1, max_value=4),
)


@st.composite
def _specs(draw):
    def labelled(patterns):
        return tuple(
            WorkloadPattern(p.kind, p.arrival, label=f"w{i}", priority=p.priority)
            for i, p in enumerate(patterns)
        )

    tenants = tuple(
        TenantSpec(
            name=f"t{index}",
            share=draw(st.floats(min_value=0.5, max_value=4.0)),
            workloads=labelled(draw(st.lists(_PATTERNS, min_size=1, max_size=2))),
        )
        for index in range(draw(st.integers(min_value=0, max_value=2)))
    )
    untenanted = labelled(
        draw(st.lists(_PATTERNS, min_size=0 if tenants else 1, max_size=2))
    )
    return ScenarioSpec(
        name="lone",
        tenants=tenants,
        workloads=untenanted,
        horizon=HORIZON,
        nodes=1,
        mpl=draw(st.integers(min_value=1, max_value=6)),
    )


def _bare_server_digest(spec, seed, node_shares):
    """The same stream on a bare manager with the node's scheduler."""
    sim = Simulator(seed=seed)
    shares = spec.shares()
    manager = WorkloadManager(
        sim,
        machine=NODE_MACHINE,
        scheduler=(
            TenantShareScheduler(spec.mpl, shares)
            if node_shares and shares
            else WaitQueue(spec.mpl)
        ),
    )
    generator = Scenario(
        specs=tuple(pattern.build(tenant) for tenant, pattern in spec.patterns()),
        horizon=spec.horizon,
    ).build(sim, manager.submit)
    manager.add_completion_listener(generator.notify_done)
    manager.run(spec.horizon, drain=spec.horizon)
    return outcome_digest(manager)


class TestClusterOfOneIsTheServer:
    @given(
        spec=_specs(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        node_shares=st.booleans(),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_one_node_push_run_equals_the_bare_server(self, spec, seed, node_shares):
        policy = PolicyConfig(name="lone", node_shares=node_shares)
        (node,) = run_scenario(spec, policy, seed=seed).dispatcher.nodes
        assert outcome_digest(node.manager) == _bare_server_digest(spec, seed, node_shares)
