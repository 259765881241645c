"""Live Table 4 correspondence: each compiled system bundle's *running
components* classify into exactly the technique classes the paper
attributes to that system (§4.1.4).

This closes the loop between the three layers of the reproduction:
prose (the paper's Table 4) → descriptors (the registry) → code (the
system models' compiled bundles).
"""

import pytest

from repro.core.classify import classify_component
from repro.core.policy import ThresholdAction, ThresholdKind
from repro.core.taxonomy import TechniqueClass as T
from repro.systems.db2 import (
    DB2Threshold,
    DB2Workload,
    DB2WorkloadManagerConfig,
)
from repro.systems.sqlserver import (
    ResourceGovernorConfig,
    ResourcePool,
    WorkloadGroup,
)
from repro.systems.teradata import (
    TeradataASMConfig,
    TeradataException,
    TeradataWorkloadDefinition,
)


def _bundle_classes(bundle):
    """Union of taxonomy classes over a bundle's live components."""
    classes = []
    components = [bundle.characterizer, bundle.admission, bundle.scheduler]
    components.extend(bundle.execution_controllers)
    inner = getattr(bundle.admission, "gates", None)
    if inner:
        components.extend(inner)
    for component in components:
        for cls in classify_component(component):
            if cls not in classes:
                classes.append(cls)
    return classes


def _db2_bundle():
    return DB2WorkloadManagerConfig(
        workloads=(DB2Workload(name="orders", application="app"),),
        thresholds=(
            DB2Threshold(ThresholdKind.ESTIMATED_COST, 100.0, ThresholdAction.REJECT),
            DB2Threshold(ThresholdKind.ELAPSED_TIME, 30.0, ThresholdAction.DEMOTE),
            DB2Threshold(
                ThresholdKind.ELAPSED_TIME, 90.0, ThresholdAction.STOP_EXECUTION
            ),
        ),
    ).build()


def _sqlserver_bundle():
    return ResourceGovernorConfig(
        pools=(ResourcePool("default"), ResourcePool("apps", min_percent=40.0)),
        groups=(
            WorkloadGroup("default", "default"),
            WorkloadGroup("app-group", "apps"),
        ),
        classifier=lambda q, s: "app-group",
        query_governor_cost_limit=100.0,
    ).build()


def _teradata_bundle():
    return TeradataASMConfig(
        definitions=(
            TeradataWorkloadDefinition(
                name="tactical",
                application="pos",
                throttle=4,
                exceptions=(
                    TeradataException(ThresholdKind.ELAPSED_TIME, 60.0, "abort"),
                ),
            ),
        ),
    ).build()


class TestDb2Correspondence:
    def test_live_classes_match_table4(self):
        classes = _bundle_classes(_db2_bundle())
        assert T.STATIC_CHARACTERIZATION in classes
        assert T.THRESHOLD_BASED_ADMISSION in classes
        assert T.QUERY_REPRIORITIZATION in classes
        assert T.QUERY_CANCELLATION in classes
        # the key §4.1.4 negative: no scheduling-class technique
        assert T.QUEUE_MANAGEMENT not in classes
        assert T.QUERY_RESTRUCTURING not in classes


class TestSqlServerCorrespondence:
    def test_live_classes_match_table4(self):
        classes = _bundle_classes(_sqlserver_bundle())
        assert T.STATIC_CHARACTERIZATION in classes
        assert T.THRESHOLD_BASED_ADMISSION in classes
        assert T.QUERY_REPRIORITIZATION in classes  # pool re-weighting
        # SQL Server's row has no cancellation and no suspension
        assert T.QUERY_CANCELLATION not in classes
        assert T.SUSPEND_AND_RESUME not in classes


class TestTeradataCorrespondence:
    def test_live_classes_match_table4(self):
        classes = _bundle_classes(_teradata_bundle())
        assert T.STATIC_CHARACTERIZATION in classes
        assert T.THRESHOLD_BASED_ADMISSION in classes
        assert T.QUERY_CANCELLATION in classes
        assert T.QUEUE_MANAGEMENT not in classes


class TestNoSystemImplementsScheduling:
    @pytest.mark.parametrize(
        "factory", [_db2_bundle, _sqlserver_bundle, _teradata_bundle]
    )
    def test_no_scheduling_class_anywhere(self, factory):
        classes = _bundle_classes(factory())
        assert T.QUEUE_MANAGEMENT not in classes
        assert T.QUERY_RESTRUCTURING not in classes
