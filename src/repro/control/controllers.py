"""Feedback controllers used by the surveyed execution controls.

Three controllers appear in the survey's throttling techniques:

* :class:`PIController` — Parekh et al. [64] "assume a linear
  relationship between the amount of throttling and system performance
  and use a Proportional-Integral controller to control the amount of
  throttling";
* :class:`StepController` — Powley et al.'s "simple controller ...
  based on a diminishing step function" [65];
* :class:`BlackBoxModelController` — Powley et al.'s "black-box model
  controller [that] uses a system feedback control approach": it fits a
  linear input/output model from observed (control, performance) pairs
  by least squares and inverts it to pick the next control value.

All controllers are pure computation — no simulator access — so they
are unit-testable against synthetic plants and reusable by any actuator
(throttle fraction, MPL, resource share).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np


@dataclass
class PIController:
    """Discrete-time proportional-integral controller.

    Computes a control output in ``[minimum, maximum]`` from the error
    between a setpoint and the measured value::

        u(k) = clamp(kp * e(k) + ki * sum_i<=k e(i))

    ``setpoint`` and measurements share units (e.g. performance
    degradation ratio); the output is the actuator value (e.g. throttle
    fraction).  The integral term is anti-windup-clamped to the output
    range so saturation does not accumulate unbounded state.
    """

    kp: float
    ki: float
    setpoint: float
    minimum: float = 0.0
    maximum: float = 1.0
    _integral: float = field(default=0.0, init=False)

    def update(self, measured: float) -> float:
        """Feed a measurement, get the next control output."""
        error = measured - self.setpoint
        self._integral += error
        raw = self.kp * error + self.ki * self._integral
        output = min(self.maximum, max(self.minimum, raw))
        # anti-windup: keep the integral consistent with the clamp
        if self.ki != 0.0 and raw != output:
            self._integral = (output - self.kp * error) / self.ki
        return output

    def reset(self) -> None:
        self._integral = 0.0


@dataclass
class StepController:
    """Diminishing-step controller (Powley et al.'s simple controller).

    Moves the control value toward satisfying a goal in steps; each
    direction reversal halves the step, converging like bisection.
    ``update`` takes the goal violation sign: positive = goal missed,
    increase control; negative = over-controlled, back off.
    """

    initial_step: float = 0.25
    minimum: float = 0.0
    maximum: float = 1.0
    value: float = 0.0
    min_step: float = 0.01
    _step: float = field(default=0.0, init=False)
    _last_direction: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._step = self.initial_step

    def update(self, violation: float) -> float:
        """``violation`` > 0: tighten control; < 0: relax; 0: hold."""
        direction = 0 if violation == 0 else (1 if violation > 0 else -1)
        if direction != 0:
            if self._last_direction != 0 and direction != self._last_direction:
                self._step = max(self.min_step, self._step / 2.0)
            self.value = min(
                self.maximum, max(self.minimum, self.value + direction * self._step)
            )
            self._last_direction = direction
        return self.value

    def reset(self) -> None:
        self.value = self.minimum
        self._step = self.initial_step
        self._last_direction = 0


@dataclass
class BlackBoxModelController:
    """Least-squares black-box model controller (Powley et al. [65][66]).

    Learns performance = a * control + b from the observed history and
    picks ``control = (setpoint - b) / a`` each period.  Until enough
    observations exist (or while the fitted slope is degenerate) it
    probes with small increments so the model becomes identifiable.
    """

    setpoint: float
    minimum: float = 0.0
    maximum: float = 1.0
    min_observations: int = 3
    probe_step: float = 0.1
    value: float = 0.0
    _observations: List[Tuple[float, float]] = field(default_factory=list, init=False)

    def update(self, measured: float) -> float:
        """Feed the measurement produced by the current control value."""
        self._observations.append((self.value, measured))
        if len(self._observations) < self.min_observations:
            self.value = min(self.maximum, self.value + self.probe_step)
            return self.value
        controls = np.array([c for c, _ in self._observations[-20:]])
        outputs = np.array([m for _, m in self._observations[-20:]])
        if np.var(controls) < 1e-9:
            self.value = min(self.maximum, self.value + self.probe_step)
            return self.value
        slope, intercept = np.polyfit(controls, outputs, 1)
        if abs(slope) < 1e-9:
            self.value = min(self.maximum, self.value + self.probe_step)
            return self.value
        target = (self.setpoint - intercept) / slope
        self.value = float(min(self.maximum, max(self.minimum, target)))
        return self.value

    def reset(self) -> None:
        self.value = self.minimum
        self._observations.clear()
