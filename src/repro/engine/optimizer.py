"""Query optimizer cost estimation with configurable error.

Admission control decisions in the surveyed systems are driven by the
*optimizer's estimates*, and the paper (§2.3) stresses that "query costs
estimated by the database query optimizer may be inaccurate", which is
why long-running queries slip past admission control and execution
control exists at all.  This module reproduces that gap: given a query's
true cost it produces an estimate perturbed by multiplicative log-normal
error, the standard model for optimizer misestimation (errors compound
multiplicatively through join cardinality estimation).

``error_sigma=0`` yields a perfect optimizer; realistic values are
0.3–1.0 (a sigma of ~0.7 produces the order-of-magnitude errors reported
for multi-join plans).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.query import CostVector, Query


@dataclass(frozen=True)
class OptimizerProfile:
    """Error characteristics of a simulated query optimizer.

    ``error_sigma`` is the standard deviation of the natural log of the
    multiplicative error applied to time-like costs; ``cardinality_sigma``
    plays the same role for row counts, which are usually *worse*
    estimated than costs; ``bias`` shifts the error's median (optimizers
    often systematically underestimate long queries).
    """

    error_sigma: float = 0.0
    cardinality_sigma: float = 0.0
    bias: float = 0.0

    def __post_init__(self) -> None:
        if self.error_sigma < 0 or self.cardinality_sigma < 0:
            raise ValueError("error sigmas must be non-negative")


class Optimizer:
    """Produces estimated :class:`CostVector` values for queries.

    Parameters
    ----------
    profile:
        Error characteristics.
    rng:
        Seeded generator; pass ``Simulator.rng("optimizer")`` so runs are
        reproducible.
    """

    def __init__(self, profile: OptimizerProfile, rng: np.random.Generator) -> None:
        self.profile = profile
        self._rng = rng
        # Zero-sigma draws never touch the RNG; cache their constant
        # factor (perfect optimizers sit on the per-query hot path).
        self._bias_factor = float(np.exp(profile.bias))
        self._exact = (
            profile.error_sigma == 0
            and profile.cardinality_sigma == 0
            and self._bias_factor == 1.0
        )

    def estimate(self, true_cost: CostVector) -> CostVector:
        """Estimate a cost vector from the true one.

        CPU and I/O seconds share one error draw (both derive from the
        same cardinality estimates), memory a second, rows a third.
        An exact profile returns the true vector itself: every factor is
        1.0 and ``x * 1.0 == x``.
        """
        if self._exact:
            return true_cost
        time_factor = self._draw(self.profile.error_sigma)
        mem_factor = self._draw(self.profile.error_sigma * 0.5)
        row_factor = self._draw(self.profile.cardinality_sigma)
        return CostVector(
            cpu_seconds=true_cost.cpu_seconds * time_factor,
            io_seconds=true_cost.io_seconds * time_factor,
            memory_mb=true_cost.memory_mb * mem_factor,
            lock_count=true_cost.lock_count,
            rows=int(round(true_cost.rows * row_factor)),
        )

    def annotate(self, query: Query) -> Query:
        """Fill in ``query.estimated_cost`` from its true cost, in place."""
        query.estimated_cost = self.estimate(query.true_cost)
        return query

    def _draw(self, sigma: float) -> float:
        if sigma <= 0:
            return self._bias_factor
        return float(np.exp(self._rng.normal(self.profile.bias, sigma)))


def perfect_optimizer() -> "OptimizerProfile":
    """Profile of an optimizer whose estimates are exact."""
    return OptimizerProfile(error_sigma=0.0, cardinality_sigma=0.0)


def realistic_optimizer() -> "OptimizerProfile":
    """Profile with the error magnitude typical of production optimizers."""
    return OptimizerProfile(error_sigma=0.6, cardinality_sigma=0.9, bias=-0.1)
