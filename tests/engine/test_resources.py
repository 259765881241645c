"""Unit and property tests for weighted max-min fair allocation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.resources import MachineSpec
from repro.errors import CapacityError
from tests.engine.fills import ALL_FILLS, CPU, DISK, LIVE_FILLS, ShareRequest, usage


def _caps(cpu=4.0, disk=4.0):
    return {CPU: cpu, DISK: disk}


class TestMachineSpec:
    def test_default_capacities_positive(self):
        spec = MachineSpec()
        assert spec.cpu_capacity > 0
        assert spec.disk_capacity > 0
        assert spec.memory_mb > 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(CapacityError):
            MachineSpec(cpu_capacity=0.0)


class TestShareRequest:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ShareRequest("q", -1.0, {CPU: 1.0})

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            ShareRequest("q", 1.0, {CPU: 1.0}, speed_cap=-0.1)

    def test_bottleneck_demand(self):
        req = ShareRequest("q", 1.0, {CPU: 2.0, DISK: 5.0})
        assert req.bottleneck_demand == 5.0


class TestAllocation:
    """Worked examples, each put to the reference and both live fills."""

    def test_single_request_runs_at_cap(self):
        req = ShareRequest("q", 1.0, {CPU: 4.0, DISK: 2.0}, speed_cap=0.25)
        for fill in ALL_FILLS:
            speeds = fill([req], _caps())
            assert speeds["q"] == pytest.approx(0.25)
            assert usage([req], speeds, CPU) == pytest.approx(1.0)
            assert usage([req], speeds, DISK) == pytest.approx(0.5)

    def test_equal_weights_equal_speeds_on_shared_bottleneck(self):
        requests = [
            ShareRequest(i, 1.0, {CPU: 8.0}, speed_cap=1.0) for i in range(4)
        ]
        for fill in ALL_FILLS:
            speeds = fill(requests, _caps(cpu=4.0))
            assert all(speeds[i] == pytest.approx(speeds[0]) for i in range(4))
            # total CPU usage == capacity
            assert usage(requests, speeds, CPU) == pytest.approx(4.0)

    def test_weights_proportional_when_saturated(self):
        requests = [
            ShareRequest("a", 3.0, {CPU: 10.0}, speed_cap=10.0),
            ShareRequest("b", 1.0, {CPU: 10.0}, speed_cap=10.0),
        ]
        for fill in ALL_FILLS:
            speeds = fill(requests, _caps(cpu=4.0))
            assert speeds["a"] / speeds["b"] == pytest.approx(3.0)

    def test_capped_request_releases_capacity_to_others(self):
        requests = [
            ShareRequest("capped", 1.0, {CPU: 1.0}, speed_cap=0.5),
            ShareRequest("hungry", 1.0, {CPU: 1.0}, speed_cap=100.0),
        ]
        for fill in ALL_FILLS:
            speeds = fill(requests, _caps(cpu=4.0))
            assert speeds["capped"] == pytest.approx(0.5)
            assert speeds["hungry"] == pytest.approx(3.5)

    def test_zero_cap_gets_zero(self):
        requests = [ShareRequest("paused", 1.0, {CPU: 1.0}, speed_cap=0.0)]
        for fill in ALL_FILLS:
            assert fill(requests, _caps())["paused"] == 0.0

    def test_zero_weight_gets_zero(self):
        requests = [ShareRequest("zero", 0.0, {CPU: 1.0}, speed_cap=1.0)]
        for fill in ALL_FILLS:
            assert fill(requests, _caps())["zero"] == 0.0

    def test_no_demand_runs_at_cap(self):
        requests = [ShareRequest("free", 1.0, {}, speed_cap=0.7)]
        for fill in ALL_FILLS:
            assert fill(requests, _caps())["free"] == pytest.approx(0.7)

    def test_disjoint_resources_do_not_interfere(self):
        requests = [
            ShareRequest("cpu-bound", 1.0, {CPU: 2.0}, speed_cap=0.5),
            ShareRequest("io-bound", 1.0, {DISK: 2.0}, speed_cap=0.5),
        ]
        for fill in ALL_FILLS:
            speeds = fill(requests, _caps(cpu=1.0, disk=1.0))
            assert speeds["cpu-bound"] == pytest.approx(0.5)
            assert speeds["io-bound"] == pytest.approx(0.5)

    def test_multi_resource_bottleneck_binding(self):
        # both queries need both resources; disk is the scarce one
        requests = [
            ShareRequest(i, 1.0, {CPU: 1.0, DISK: 4.0}, speed_cap=1.0)
            for i in range(2)
        ]
        for fill in ALL_FILLS:
            speeds = fill(requests, _caps(cpu=8.0, disk=4.0))
            # disk: 2 queries * speed * 4 <= 4 -> speed 0.5 each
            for i in range(2):
                assert speeds[i] == pytest.approx(0.5)
            assert usage(requests, speeds, DISK) == pytest.approx(4.0)

    def test_empty_request_list(self):
        for fill in ALL_FILLS:
            assert fill([], _caps()) == {}


class TestAllocationProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=10.0),    # weight
                st.floats(min_value=0.0, max_value=20.0),    # cpu demand
                st.floats(min_value=0.0, max_value=20.0),    # disk demand
                st.floats(min_value=0.0, max_value=2.0),     # cap
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_capacity_and_cap_never_violated(self, rows):
        requests = [
            ShareRequest(i, w, {CPU: c, DISK: d}, speed_cap=cap)
            for i, (w, c, d, cap) in enumerate(rows)
        ]
        caps = _caps(cpu=4.0, disk=3.0)
        for fill in LIVE_FILLS:
            speeds = fill(requests, caps)
            for i, (w, c, d, cap) in enumerate(rows):
                assert 0.0 <= speeds[i] <= cap + 1e-6
            assert usage(requests, speeds, CPU) <= caps[CPU] + 1e-6
            assert usage(requests, speeds, DISK) <= caps[DISK] + 1e-6

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=5.0),
            min_size=2,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_saturated_identical_demands_share_by_weight(self, weights):
        requests = [
            ShareRequest(i, w, {CPU: 10.0}, speed_cap=100.0)
            for i, w in enumerate(weights)
        ]
        for fill in LIVE_FILLS:
            speeds = fill(requests, _caps(cpu=2.0))
            # speeds proportional to weights
            base = speeds[0] / weights[0]
            for i, weight in enumerate(weights):
                assert speeds[i] / weight == pytest.approx(base, rel=1e-6)

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_work_conservation_when_saturated(self, n):
        requests = [
            ShareRequest(i, 1.0, {CPU: 5.0}, speed_cap=100.0) for i in range(n)
        ]
        for fill in LIVE_FILLS:
            speeds = fill(requests, _caps(cpu=4.0))
            assert usage(requests, speeds, CPU) == pytest.approx(4.0, rel=1e-6)
