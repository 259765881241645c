"""Calibration: fit simulator cost models from real execution traces.

The simulator's :class:`~repro.engine.query.CostVector` speaks abstract
"seconds of demand"; a real backend speaks microseconds of wall time.
Calibration closes that unit gap: from a captured
:class:`~repro.workloads.traces.QueryLog` it fits, per statement class
(the ``workload:class`` sql label), a linear model

    ``service_seconds ≈ intercept + slope · estimated_total_work``

by least squares over the completed records.  The fitted
:class:`CostModel` then maps any planned statement's *estimated* cost to
a predicted real service time, which the comparison harness installs as
the simulated query's demand.  Classes with too few samples (or no
spread in estimated work) fall back to their mean service time, and
unseen labels fall back to a global fit — a trace never fails to
calibrate, it just calibrates more coarsely.

Times are fitted in *schedule* units: measured wall-clock service is
divided by the run's ``time_scale`` so a model fitted from a compressed
CI run predicts durations on the schedule's own axis, directly
comparable with simulator time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.engine.query import CostVector
from repro.errors import ConfigurationError
from repro.workloads.traces import QueryLogRecord

#: Predictions never go below this — the engine treats sub-nanosecond
#: demands as instantaneous, which would erase queueing effects.
_MIN_SERVICE_S = 1e-6


@dataclass(frozen=True)
class ClassFit:
    """Linear service-time model for one statement class."""

    label: str
    slope: float
    intercept: float
    samples: int

    def predict(self, total_work: float) -> float:
        return max(_MIN_SERVICE_S, self.intercept + self.slope * total_work)


@dataclass(frozen=True)
class CostModel:
    """Per-class service-time predictors plus a global fallback."""

    fits: Mapping[str, ClassFit]
    fallback: ClassFit
    time_scale: float = 1.0

    def fit_for(self, label: Optional[str]) -> ClassFit:
        if label is not None and label in self.fits:
            return self.fits[label]
        return self.fallback

    def predict_seconds(self, label: Optional[str], total_work: float) -> float:
        """Predicted real service time (schedule units) for a statement."""
        return self.fit_for(label).predict(total_work)

    def calibrated_cost(
        self, label: Optional[str], estimated: CostVector
    ) -> CostVector:
        """A simulator cost whose nominal duration is the predicted
        service time.

        Pure CPU demand with no locks: the real backend's contention is
        already folded into the measured service times the fit consumed,
        so re-simulating it would double-count.
        """
        predicted = self.predict_seconds(label, estimated.total_work)
        return CostVector(cpu_seconds=predicted, rows=estimated.rows)


def _fit_class(label: str, work: np.ndarray, service: np.ndarray) -> ClassFit:
    """Least-squares line, degraded to the mean when ill-conditioned."""
    samples = int(work.size)
    mean_service = float(service.mean())
    if samples >= 2 and float(work.std()) > 1e-12:
        slope, intercept = np.polyfit(work, service, 1)
        slope = float(max(0.0, slope))
        intercept = float(intercept)
        if intercept < 0.0:
            # a negative floor would predict negative service for light
            # statements; re-anchor at the observed minimum instead
            intercept = max(0.0, float(service.min()) - slope * float(work.min()))
    else:
        slope, intercept = 0.0, mean_service
    return ClassFit(label=label, slope=slope, intercept=intercept, samples=samples)


def fit_cost_model(
    records: Iterable[QueryLogRecord],
    time_scale: float = 1.0,
    min_samples: int = 5,
) -> CostModel:
    """Fit a :class:`CostModel` from a captured trace.

    Only completed records with both timestamps contribute; a class gets
    its own line once it has ``min_samples`` of them, otherwise its
    samples still inform the global fallback fit.
    """
    if time_scale <= 0:
        raise ConfigurationError(f"time_scale must be positive, got {time_scale}")
    by_label: Dict[str, list] = {}
    all_points = []
    for record in records:
        if not record.completed:
            continue
        if record.start_time is None or record.end_time is None:
            continue
        service = (record.end_time - record.start_time) / time_scale
        if service < 0:
            continue
        point = (record.estimated_cost.total_work, service)
        by_label.setdefault(record.sql or "", []).append(point)
        all_points.append(point)
    if not all_points:
        raise ConfigurationError(
            "no completed records with timings; cannot fit a cost model"
        )
    everything = np.asarray(all_points, dtype=np.float64)
    fallback = _fit_class("*", everything[:, 0], everything[:, 1])
    fits: Dict[str, ClassFit] = {}
    for label, points in sorted(by_label.items()):
        if len(points) < min_samples:
            continue
        data = np.asarray(points, dtype=np.float64)
        fits[label] = _fit_class(label, data[:, 0], data[:, 1])
    return CostModel(fits=fits, fallback=fallback, time_scale=time_scale)


def service_error(
    records: Iterable[QueryLogRecord],
    model: Optional[CostModel] = None,
    time_scale: float = 1.0,
) -> float:
    """Mean absolute service-time prediction error over a trace.

    With ``model=None`` the predictor is the *uncalibrated* convention —
    a statement's service time equals its estimated total work, which is
    exactly what the simulator assumes before calibration.  Comparing
    the two errors on the same trace is the acceptance check that
    calibration actually helped.
    """
    if time_scale <= 0:
        raise ConfigurationError(f"time_scale must be positive, got {time_scale}")
    errors = []
    for record in records:
        if not record.completed:
            continue
        if record.start_time is None or record.end_time is None:
            continue
        actual = (record.end_time - record.start_time) / time_scale
        work = record.estimated_cost.total_work
        if model is None:
            predicted = work
        else:
            predicted = model.predict_seconds(record.sql or "", work)
        errors.append(abs(predicted - actual))
    if not errors:
        raise ConfigurationError("no completed records with timings to score")
    return float(np.mean(errors))
