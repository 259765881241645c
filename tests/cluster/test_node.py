"""ClusterNode unit tests: health, capacity gating, heartbeats, speed."""

import pytest

from repro.cluster import NODE_MACHINE, ClusterNode, NodeHealth
from repro.engine.query import QueryState
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError

from tests.conftest import make_query


@pytest.fixture
def sim():
    return Simulator(seed=21)


def _node(sim, **kwargs):
    kwargs.setdefault("mpl", 2)
    return ClusterNode(sim, name=kwargs.pop("name", "n0"), **kwargs)


class TestHealth:
    def test_only_up_accepts_placements(self, sim):
        node = _node(sim)
        assert node.accepting
        node.drain()
        assert node.health is NodeHealth.DRAINING and not node.accepting
        node.activate()
        assert node.accepting
        node.crash()
        assert node.health is NodeHealth.DOWN and not node.accepting

    def test_drain_only_from_up(self, sim):
        node = _node(sim)
        node.crash()
        node.drain()  # no-op on a DOWN node
        assert node.health is NodeHealth.DOWN

    def test_saturation_blocks_placement(self, sim):
        node = _node(sim, max_outstanding=1)
        node.submit(make_query(cpu=5.0, io=0.0))
        assert node.outstanding_work == 1
        assert not node.accepting  # UP but saturated

    def test_crashed_node_stays_inactive_until_activated(self, sim):
        node = _node(sim)
        assert node.health is NodeHealth.UP  # every node starts UP
        node.crash()
        assert not node.accepting
        sim.run_until(5.0)
        assert node.heartbeats == []  # no periodic activity until activated
        node.activate()
        assert node.accepting
        sim.run_until(10.0)
        assert node.heartbeats != []


class TestCapacityAccounting:
    def test_outstanding_estimate_tracks_submit_and_exit(self, sim):
        node = _node(sim)
        query = make_query(cpu=1.0, io=0.5)
        node.submit(query)
        assert node.outstanding_estimated_work == pytest.approx(1.5)
        sim.run_until(30.0)
        assert query.state is QueryState.COMPLETED
        assert node.outstanding_estimated_work == pytest.approx(0.0)

    def test_rate_capacity_scales_with_degradation(self, sim):
        node = _node(sim)
        full = node.rate_capacity
        assert full == pytest.approx(
            NODE_MACHINE.cpu_capacity + NODE_MACHINE.disk_capacity
        )
        node.degrade(0.25)
        assert node.rate_capacity == pytest.approx(full * 0.25)
        node.restore_speed()
        assert node.rate_capacity == pytest.approx(full)

    def test_degrade_factor_validated(self, sim):
        node = _node(sim)
        with pytest.raises(ConfigurationError):
            node.degrade(0.0)
        with pytest.raises(ConfigurationError):
            node.degrade(1.5)

    def test_mpl_validated(self, sim):
        with pytest.raises(ConfigurationError):
            ClusterNode(sim, name="bad", mpl=0)


class TestSpeedChangeGuards:
    """degrade()/restore_speed() are documented no-ops on a DOWN node.

    Regression: both used to call ``_enforce_speed`` unconditionally,
    poking a shut-down manager when a chaos plan raced a degrade
    against a crash.
    """

    def test_degrade_is_noop_on_down_node(self, sim):
        node = _node(sim)
        node.crash()
        node.degrade(0.5)
        assert node.speed_factor == 1.0
        assert not node.serviceable

    def test_restore_is_noop_on_down_node(self, sim):
        node = _node(sim)
        node.degrade(0.5)
        node.crash()
        node.restore_speed()
        assert node.speed_factor == 0.5  # untouched until reactivation

    def test_invalid_factor_still_raises_on_down_node(self, sim):
        node = _node(sim)
        node.crash()
        with pytest.raises(ConfigurationError):
            node.degrade(0.0)

    def test_degrade_works_while_draining(self, sim):
        node = _node(sim)
        node.drain()
        assert node.serviceable
        node.degrade(0.5)
        assert node.speed_factor == 0.5

    def test_activate_restores_base_speed_factor(self, sim):
        node = _node(sim, speed_factor=0.7)
        node.degrade(0.3)
        node.crash()
        node.activate()
        # back to its *configured* speed, not full speed
        assert node.speed_factor == 0.7

    def test_speed_factor_validated(self, sim):
        with pytest.raises(ConfigurationError):
            ClusterNode(sim, name="bad", speed_factor=0.0)
        with pytest.raises(ConfigurationError):
            ClusterNode(sim, name="bad", speed_factor=1.5)


class TestDegradedExecution:
    def test_degraded_node_runs_slower(self):
        def completion_time(factor):
            sim = Simulator(seed=4)
            node = ClusterNode(sim, name="n0", mpl=2)
            if factor < 1.0:
                node.degrade(factor)
            query = make_query(cpu=2.0, io=0.0)
            node.submit(query)
            sim.run_until(200.0)
            assert query.state is QueryState.COMPLETED
            return query.end_time

        assert completion_time(0.5) > 1.9 * completion_time(1.0)


class TestHeartbeat:
    def test_heartbeats_publish_periodically(self, sim):
        node = _node(sim, heartbeat_period=1.0)
        node.submit(make_query(cpu=10.0, io=0.0, sql="oltp:q"))
        sim.run_until(5.5)
        assert len(node.heartbeats) == 5
        beat = node.last_heartbeat
        assert beat.node == "n0"
        assert beat.running == 1
        assert beat.cpu_utilization > 0.0
        assert beat.outstanding_estimated_work == pytest.approx(10.0)

    def test_crash_stops_heartbeats(self, sim):
        node = _node(sim)
        sim.run_until(2.5)
        node.crash()
        count = len(node.heartbeats)
        sim.run_until(10.0)
        assert len(node.heartbeats) == count

    def test_heartbeat_reports_class_velocities(self, sim):
        node = _node(sim)
        node.submit(make_query(cpu=0.5, io=0.0, sql="oltp:q"))
        sim.run_until(3.0)
        beat = node.publish_heartbeat()
        assert dict(beat.class_velocities)["oltp"] > 0.0
