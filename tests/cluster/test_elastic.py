"""Elastic-provisioning tests: scale-up, scale-down, parking."""

import pytest

from repro.cluster import (
    ClusterDispatcher,
    ClusterNode,
    ElasticProvisioner,
    NodeHealth,
    make_policy,
)
from repro.control.controllers import PIController
from repro.core.interfaces import decisions_by
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError

from tests.conftest import make_query


def _cluster(seed=5, active=1, standby=3, mpl=2, max_outstanding=2):
    sim = Simulator(seed=seed)
    nodes = [
        ClusterNode(
            sim,
            name=f"n{i}",
            mpl=mpl,
            max_outstanding=max_outstanding,
            health=NodeHealth.UP if i < active else NodeHealth.STANDBY,
        )
        for i in range(active + standby)
    ]
    dispatcher = ClusterDispatcher(sim, nodes, placement=make_policy("least"))
    return sim, dispatcher


class TestValidation:
    def test_bounds_validated(self):
        _, dispatcher = _cluster()
        with pytest.raises(ConfigurationError):
            ElasticProvisioner(dispatcher, min_nodes=3, max_nodes=2)
        with pytest.raises(ConfigurationError):
            ElasticProvisioner(dispatcher, min_nodes=1, max_nodes=99)

    def test_signal_validated(self):
        _, dispatcher = _cluster()
        with pytest.raises(ConfigurationError):
            ElasticProvisioner(dispatcher, signal="vibes")

    def test_controller_type_validated(self):
        _, dispatcher = _cluster()
        with pytest.raises(ConfigurationError):
            ElasticProvisioner(dispatcher, controller=object())


class TestScaling:
    def test_backlog_activates_standby_nodes(self):
        sim, dispatcher = _cluster()
        provisioner = ElasticProvisioner(
            dispatcher, min_nodes=1, setpoint=0.3, period=1.0
        )
        for _ in range(12):
            dispatcher.submit(make_query(cpu=4.0, io=0.0, sql="bi:q"))
        sim.run_until(10.0)
        assert provisioner.active_count() > 1
        assert decisions_by(
            dispatcher.metrics.decisions, "ElasticProvisioner", "activate"
        )
        provisioner.shutdown()
        dispatcher.shutdown()

    def test_idle_cluster_scales_down_and_parks(self):
        sim, dispatcher = _cluster(active=4, standby=0)
        provisioner = ElasticProvisioner(
            dispatcher, min_nodes=1, setpoint=0.5, period=1.0
        )
        dispatcher.submit(make_query(cpu=0.2, io=0.0, sql="oltp:q"))
        sim.run_until(40.0)
        assert provisioner.active_count() == 1
        parked = [
            n for n in dispatcher.nodes if n.health is NodeHealth.STANDBY
        ]
        assert parked  # drained nodes finished their work and parked
        assert decisions_by(
            dispatcher.metrics.decisions, "ElasticProvisioner", "drain"
        )
        provisioner.shutdown()
        dispatcher.shutdown()

    def test_scale_down_prefers_tail_nodes(self):
        sim, dispatcher = _cluster(active=4, standby=0)
        provisioner = ElasticProvisioner(
            dispatcher, min_nodes=1, setpoint=0.9, period=1.0
        )
        sim.run_until(30.0)
        assert dispatcher.node("n0").health is NodeHealth.UP
        assert dispatcher.node("n3").health is not NodeHealth.UP
        provisioner.shutdown()
        dispatcher.shutdown()

    def test_pi_controller_accepted(self):
        sim, dispatcher = _cluster()
        controller = PIController(setpoint=0.5, kp=1.0, ki=0.2)
        provisioner = ElasticProvisioner(dispatcher, controller=controller)
        sim.run_until(12.0)
        # ticked without error
        assert decisions_by(dispatcher.metrics.decisions, "ElasticProvisioner")
        provisioner.shutdown()
        dispatcher.shutdown()

    def test_work_conserved_across_scaling(self):
        sim, dispatcher = _cluster()
        provisioner = ElasticProvisioner(
            dispatcher, min_nodes=1, setpoint=0.3, period=1.0
        )
        queries = [
            make_query(cpu=1.5, io=0.5, sql="oltp:q") for _ in range(20)
        ]
        for index, query in enumerate(queries):
            sim.schedule_at(0.5 * index, lambda q=query: dispatcher.submit(q))
        sim.run_until(300.0)
        provisioner.shutdown()
        dispatcher.shutdown()
        sim.run()
        assert dispatcher.completions == 20
        assert dispatcher.outstanding_work() == 0
