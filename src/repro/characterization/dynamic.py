"""Dynamic workload characterization (paper §3.1, [19][73]).

"Dynamic workload characterization identifies the type of a workload
when it is present on a database server...  the system learns the
characteristics of sample workloads running on a database server,
builds a workload classifier and uses the workload classifier to
dynamically identify unknown arriving workloads."

Three pieces:

* :class:`QueryTypeClassifier` — supervised classifier (naive Bayes or
  decision tree) over per-query features;
* :class:`WorkloadPhaseDetector` — classifies query-log *windows* into
  workload types (the [19] formulation: is the server currently seeing
  an OLTP, DSS/BI or mixed phase?);
* :class:`DynamicCharacterizer` — a manager plug-in that identifies
  each arriving request with a trained :class:`QueryTypeClassifier`
  (falling back to a default workload until trained).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.characterization.features import WindowFeatures, query_features
from repro.core.classify import Feature
from repro.core.interfaces import Characterizer
from repro.core.manager import WorkloadManager
from repro.engine.query import Query
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.tree import DecisionTreeClassifier
from repro.workloads.traces import QueryLogRecord


def _record_features(record: QueryLogRecord) -> List[float]:
    """Per-record analogue of :func:`query_features` (plan length fixed)."""
    import math

    from repro.engine.query import StatementType

    return [
        math.log1p(max(0.0, record.estimated_cost.total_work)),
        math.log1p(max(0.0, record.estimated_cost.memory_mb)),
        math.log1p(max(0.0, float(record.estimated_cost.rows))),
        1.0
        if record.statement_type
        in (StatementType.WRITE, StatementType.DML, StatementType.LOAD)
        else 0.0,
        float(record.plan_operators),
    ]


class QueryTypeClassifier:
    """Per-query workload-type classifier ('nb' or 'tree')."""

    def __init__(self, method: str = "nb") -> None:
        if method not in ("nb", "tree"):
            raise ValueError("method must be 'nb' or 'tree'")
        self.method = method
        self._nb = GaussianNaiveBayes()
        self._tree = DecisionTreeClassifier(max_depth=6)
        self.trained = False

    def fit_queries(self, queries: Sequence[Query], labels: Sequence[str]) -> None:
        """Train on live query objects with ground-truth labels."""
        X = [query_features(q) for q in queries]
        self._fit(X, list(labels))

    def fit_records(
        self, records: Sequence[QueryLogRecord], labels: Sequence[str]
    ) -> None:
        """Train on query-log records with ground-truth labels."""
        X = [_record_features(r) for r in records]
        self._fit(X, list(labels))

    def _fit(self, X: List[List[float]], y: List[str]) -> None:
        if self.method == "nb":
            self._nb.fit(X, y)
        else:
            self._tree.fit(X, y)
        self.trained = True

    def predict_query(self, query: Query) -> str:
        """Predicted workload type for an arriving query."""
        if not self.trained:
            raise RuntimeError("classifier is not trained")
        return self._predict_row(query_features(query))

    def predict_record(self, record: QueryLogRecord) -> str:
        """Classify a logged request (offline evaluation)."""
        if not self.trained:
            raise RuntimeError("classifier is not trained")
        return self._predict_row(_record_features(record))

    def _predict_row(self, row: List[float]) -> str:
        if self.method == "nb":
            return str(self._nb.predict_one(row))
        return str(self._tree.predict([row])[0])

    def accuracy_queries(
        self, queries: Sequence[Query], labels: Sequence[str]
    ) -> float:
        """Fraction of queries classified to their true label."""
        hits = sum(
            1
            for query, label in zip(queries, labels)
            if self.predict_query(query) == label
        )
        return hits / len(queries)


class WorkloadPhaseDetector:
    """Window-level workload-type detection (the [19] formulation)."""

    def __init__(self, method: str = "nb") -> None:
        if method not in ("nb", "tree"):
            raise ValueError("method must be 'nb' or 'tree'")
        self.method = method
        self._nb = GaussianNaiveBayes()
        self._tree = DecisionTreeClassifier(max_depth=5)
        self.trained = False

    def fit(
        self, windows: Sequence[WindowFeatures], labels: Sequence[str]
    ) -> None:
        """Train on labelled feature windows."""
        X = [w.vector() for w in windows]
        if self.method == "nb":
            self._nb.fit(X, list(labels))
        else:
            self._tree.fit(X, list(labels))
        self.trained = True

    def predict(self, window: WindowFeatures) -> str:
        """Predicted workload type for one window."""
        if not self.trained:
            raise RuntimeError("detector is not trained")
        if self.method == "nb":
            return str(self._nb.predict_one(window.vector()))
        return str(self._tree.predict([window.vector()])[0])

    def accuracy(
        self, windows: Sequence[WindowFeatures], labels: Sequence[str]
    ) -> float:
        """Fraction of windows classified to their true label."""
        hits = sum(
            1
            for window, label in zip(windows, labels)
            if self.predict(window) == label
        )
        return hits / len(windows)


class DynamicCharacterizer(Characterizer):
    """Identify arriving requests with a learned classifier.

    Until the classifier is trained, requests map to
    ``untrained_workload``.  Train it offline (fit on a labelled sample)
    or online by calling :meth:`train_from_log` with labels derived
    from, e.g., a period of oracle identification.
    """

    TECHNIQUE_FEATURES = frozenset(
        {
            Feature.MAPS_REQUESTS_TO_WORKLOADS,
            Feature.LEARNS_FROM_SAMPLES,
        }
    )

    def __init__(
        self,
        classifier: Optional[QueryTypeClassifier] = None,
        priorities: Optional[dict] = None,
        untrained_workload: str = "default",
    ) -> None:
        self.classifier = classifier or QueryTypeClassifier()
        self.priorities = dict(priorities or {})
        self.untrained_workload = untrained_workload
        self.identified_counts: dict = {}

    def train_from_log(
        self,
        records: Sequence[QueryLogRecord],
        labels: Optional[Sequence[str]] = None,
    ) -> None:
        """Fit on log records; labels default to the recorded workloads."""
        if labels is None:
            labels = [r.workload or self.untrained_workload for r in records]
        self.classifier.fit_records(records, labels)

    def identify(self, query: Query, context: WorkloadManager) -> Optional[str]:
        if not self.classifier.trained:
            return self.untrained_workload
        label = self.classifier.predict_query(query)
        self.identified_counts[label] = self.identified_counts.get(label, 0) + 1
        if label in self.priorities:
            query.priority = self.priorities[label]
        return label
