"""Unit tests for the feedback controllers, against synthetic plants."""

import pytest

from repro.control.controllers import (
    BlackBoxModelController,
    PIController,
    StepController,
)


class TestPIController:
    def test_output_clamped(self):
        controller = PIController(kp=10.0, ki=0.0, setpoint=0.0)
        assert controller.update(100.0) == 1.0
        assert controller.update(-100.0) == 0.0

    def test_zero_error_zero_output(self):
        controller = PIController(kp=1.0, ki=0.5, setpoint=0.3)
        assert controller.update(0.3) == 0.0

    def test_integral_accumulates(self):
        controller = PIController(kp=0.0, ki=0.1, setpoint=0.0)
        first = controller.update(1.0)
        second = controller.update(1.0)
        assert second > first

    def test_anti_windup_allows_fast_recovery(self):
        controller = PIController(kp=0.5, ki=0.5, setpoint=0.0)
        for _ in range(50):
            controller.update(10.0)  # drive deep into saturation
        # one big negative error must pull the output well off the rail
        recovered = controller.update(-5.0)
        assert recovered < 0.9

    def test_converges_on_linear_plant(self):
        # plant: degradation = 0.8 * (1 - u); setpoint 0.2
        controller = PIController(kp=0.8, ki=0.5, setpoint=0.2)
        u = 0.0
        for _ in range(100):
            degradation = 0.8 * (1.0 - u)
            u = controller.update(degradation)
        final_degradation = 0.8 * (1.0 - u)
        assert final_degradation == pytest.approx(0.2, abs=0.05)

    def test_reset(self):
        controller = PIController(kp=1.0, ki=1.0, setpoint=0.0)
        controller.update(5.0)
        controller.reset()
        assert controller._integral == 0.0


class TestStepController:
    def test_moves_toward_goal(self):
        controller = StepController(initial_step=0.25)
        assert controller.update(1.0) == 0.25
        assert controller.update(1.0) == 0.5

    def test_step_halves_on_reversal(self):
        controller = StepController(initial_step=0.4)
        controller.update(1.0)   # 0.4
        value = controller.update(-1.0)  # step halves to 0.2 -> 0.2
        assert value == pytest.approx(0.2)

    def test_zero_violation_holds(self):
        controller = StepController(initial_step=0.25)
        controller.update(1.0)
        assert controller.update(0.0) == 0.25

    def test_clamped_to_bounds(self):
        controller = StepController(initial_step=0.9)
        assert controller.update(1.0) <= 1.0
        controller.update(1.0)
        assert controller.value <= 1.0
        for _ in range(10):
            controller.update(-1.0)
        assert controller.value >= 0.0

    def test_converges_like_bisection(self):
        # goal: value 0.37; violation = 0.37 - value
        controller = StepController(initial_step=0.5, min_step=0.001)
        for _ in range(60):
            controller.update(0.37 - controller.value)
        assert controller.value == pytest.approx(0.37, abs=0.02)

    def test_reset(self):
        controller = StepController(initial_step=0.25)
        controller.update(1.0)
        controller.reset()
        assert controller.value == 0.0


class TestBlackBoxController:
    def test_probes_until_identifiable(self):
        controller = BlackBoxModelController(
            setpoint=0.7, min_observations=3, probe_step=0.1
        )
        assert controller.update(0.5) == pytest.approx(0.1)
        assert controller.update(0.55) == pytest.approx(0.2)

    def test_inverts_linear_plant(self):
        # plant: velocity = 0.4 + 0.5 * u; setpoint 0.7 -> u* = 0.6
        controller = BlackBoxModelController(setpoint=0.7, min_observations=3)
        u = 0.0
        for _ in range(20):
            velocity = 0.4 + 0.5 * u
            u = controller.update(velocity)
        assert u == pytest.approx(0.6, abs=0.05)

    def test_output_clamped(self):
        controller = BlackBoxModelController(
            setpoint=100.0, min_observations=3
        )
        u = 0.0
        for _ in range(10):
            u = controller.update(0.1 * u)
        assert 0.0 <= u <= 1.0

    def test_degenerate_plant_keeps_probing(self):
        controller = BlackBoxModelController(setpoint=0.5, min_observations=2)
        values = [controller.update(0.3) for _ in range(5)]
        # constant measurement -> slope ~0 -> probe upward
        assert values == sorted(values)

    def test_reset(self):
        controller = BlackBoxModelController(setpoint=0.5)
        controller.update(0.3)
        controller.reset()
        assert controller.value == 0.0
        assert controller._observations == []
