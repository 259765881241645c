"""Prediction-based admission control (paper §3.2, [21][23][42]).

"Prediction-based techniques attempt to predict the performance
behaviour characteristics of a query before the query begins running...
build prediction models for queries using machine-learning approaches."

Two surveyed flavours are provided by :class:`RuntimePredictor`:

* ``method="tree"`` — Gupta et al.'s PQR [23]: a decision tree over
  pre-execution features predicting execution-time *ranges* (we predict
  log-runtime with a regression tree, which subsumes the ranges);
* ``method="statistical"`` — the Ganapathi et al. [21] flavour:
  correlate pre-execution features with observed performance (here a
  per-feature-bucket statistical table, i.e. nearest-centroid
  regression on the same features).

Features are things genuinely available before execution: the
optimizer's estimates, plan shape, statement type and the session's
workload mapping.  The predictor trains on completed requests, which
the admission controller logs as they exit — exactly the historical
observations the paper says estimates derive from (§2.1).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classify import Feature
from repro.core.interfaces import AdmissionController, AdmissionDecision
from repro.core.manager import WorkloadManager
from repro.engine.query import Query, QueryState
from repro.ml.tree import DecisionTreeRegressor
from repro.workloads.traces import QueryLog, QueryLogRecord


class QueryFeatureExtractor:
    """Pre-execution feature vector for a query.

    The workload tag is one-hot encoded over the training vocabulary —
    request origin is the single strongest pre-execution predictor and
    is exactly what commercial classification exposes.
    """

    def __init__(self) -> None:
        self._workloads: List[str] = []

    def fit_vocabulary(self, workloads: Sequence[Optional[str]]) -> None:
        """Learn the workload one-hot vocabulary from training labels."""
        seen = []
        for name in workloads:
            key = name or "<unknown>"
            if key not in seen:
                seen.append(key)
        self._workloads = seen

    @property
    def n_features(self) -> int:
        """Length of the produced feature vectors."""
        return 5 + len(self._workloads)

    def _base_features(
        self,
        estimated_total: float,
        estimated_memory: float,
        estimated_rows: float,
        plan_length: int,
        statement_code: int,
    ) -> List[float]:
        return [
            math.log1p(max(0.0, estimated_total)),
            math.log1p(max(0.0, estimated_memory)),
            math.log1p(max(0.0, estimated_rows)),
            float(plan_length),
            float(statement_code),
        ]

    def features_for_query(self, query: Query) -> List[float]:
        """Feature vector for a live (pre-execution) query."""
        row = self._base_features(
            query.estimated_cost.total_work,
            query.estimated_cost.memory_mb,
            query.estimated_cost.rows,
            len(query.plan),
            hash_statement(query.statement_type.value),
        )
        return row + self._one_hot(query.workload_name)

    def features_for_record(self, record: QueryLogRecord) -> List[float]:
        """Feature vector for a logged request (training path)."""
        row = self._base_features(
            record.estimated_cost.total_work,
            record.estimated_cost.memory_mb,
            record.estimated_cost.rows,
            record.plan_operators,
            hash_statement(record.statement_type.value),
        )
        return row + self._one_hot(record.workload)

    def _one_hot(self, workload: Optional[str]) -> List[float]:
        key = workload or "<unknown>"
        return [1.0 if key == name else 0.0 for name in self._workloads]


def hash_statement(value: str) -> int:
    """Stable small integer code for a statement type."""
    return sum(ord(c) for c in value) % 97


class RuntimePredictor:
    """Learned model of true total work from pre-execution features."""

    def __init__(self, method: str = "tree", max_depth: int = 8) -> None:
        if method not in ("tree", "statistical"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        self.extractor = QueryFeatureExtractor()
        self._tree = DecisionTreeRegressor(max_depth=max_depth)
        self._table: Dict[Tuple, Tuple[float, int]] = {}
        self._global_mean = 0.0
        self.trained = False

    def fit_from_log(self, log: QueryLog) -> int:
        """Train on completed records; returns the training-set size."""
        records = [r for r in log if r.completed]
        return self.fit_records(records)

    def fit_records(self, records: Sequence[QueryLogRecord]) -> int:
        """Train on explicit records; returns the training-set size."""
        if not records:
            return 0
        self.extractor.fit_vocabulary([r.workload for r in records])
        X = [self.extractor.features_for_record(r) for r in records]
        y = [math.log1p(r.true_cost.total_work) for r in records]
        if self.method == "tree":
            self._tree.fit(X, y)
        else:
            self._fit_table(X, y)
        self._global_mean = float(np.mean(y))
        self.trained = True
        return len(records)

    def _bucket(self, row: Sequence[float]) -> Tuple:
        # statistical flavour: bucket by workload one-hot + coarse size
        return tuple(round(v, 0) for v in row)

    def _fit_table(self, X: List[List[float]], y: List[float]) -> None:
        sums: Dict[Tuple, Tuple[float, int]] = {}
        for row, target in zip(X, y):
            key = self._bucket(row)
            total, count = sums.get(key, (0.0, 0))
            sums[key] = (total + target, count + 1)
        self._table = sums

    def predict_total_work(self, query: Query) -> float:
        """Predicted true total work (device-seconds) for ``query``."""
        if not self.trained:
            return query.estimated_cost.total_work
        row = self.extractor.features_for_query(query)
        if self.method == "tree":
            log_work = float(self._tree.predict([row])[0])
        else:
            total, count = self._table.get(self._bucket(row), (0.0, 0))
            log_work = total / count if count else self._global_mean
        return math.expm1(max(0.0, log_work))


class PredictionBasedAdmission(AdmissionController):
    """Admit by *predicted* runtime instead of the raw optimizer cost.

    Rejects requests whose predicted total work exceeds ``work_limit``.
    Until ``min_training`` completions are available the controller
    falls back to the optimizer estimate, then (re)trains every
    ``retrain_interval`` completions — an online-learning deployment, as
    the surveyed systems operate.
    """

    TECHNIQUE_FEATURES = frozenset(
        {Feature.ACTS_AT_ARRIVAL, Feature.PREDICTS_PERFORMANCE}
    )

    def __init__(
        self,
        work_limit: float,
        predictor: Optional[RuntimePredictor] = None,
        min_training: int = 50,
        retrain_interval: int = 200,
    ) -> None:
        if work_limit <= 0:
            raise ValueError("work_limit must be positive")
        self.work_limit = work_limit
        self.predictor = predictor or RuntimePredictor()
        self.min_training = min_training
        self.retrain_interval = retrain_interval
        #: the completions this controller trains on, in exit order
        self.log = QueryLog()
        self._completions_since_train = 0
        self.rejections = 0
        self.fallback_decisions = 0

    def decide(self, query: Query, context: WorkloadManager) -> AdmissionDecision:
        if self.predictor.trained:
            predicted = self.predictor.predict_total_work(query)
            source = "predicted"
        else:
            predicted = query.estimated_cost.total_work
            source = "estimated (model not yet trained)"
            self.fallback_decisions += 1
        if predicted > self.work_limit:
            self.rejections += 1
            return AdmissionDecision.reject(
                f"{source} work {predicted:.1f}s exceeds limit "
                f"{self.work_limit:.1f}s"
            )
        return AdmissionDecision.accept(f"{source} work {predicted:.1f}s ok")

    def notify_exit(self, query: Query, context: WorkloadManager) -> None:
        self._completions_since_train += 1
        if query.state is QueryState.COMPLETED:
            self.log.record_query(query)
        should_train = (
            not self.predictor.trained and len(self.log) >= self.min_training
        ) or (
            self.predictor.trained
            and self._completions_since_train >= self.retrain_interval
        )
        if should_train:
            self.predictor.fit_from_log(self.log)
            self._completions_since_train = 0
