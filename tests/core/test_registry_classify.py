"""Tests that classification reproduces the paper's own conclusions.

The expected classifications below are taken verbatim from the paper's
§4.1.4 (commercial systems) and §4.2.5/Table 5 (research techniques).
"""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys

import pytest

from repro.core.classify import (
    classify_component,
    classify_descriptor,
    classify_features,
    major_classes_of,
)
from repro.core.registry import (
    ADMISSION_APPROACHES,
    COMMERCIAL_SYSTEMS,
    EXECUTION_APPROACHES,
    PREDICTION_ADMISSION,
    RESEARCH_TECHNIQUES,
    ApproachDescriptor,
    Feature,
    all_descriptors,
)
from repro.core.taxonomy import TechniqueClass

T = TechniqueClass

#: The packages that hold technique classes a registry row can name.
TECHNIQUE_PACKAGES = (
    "admission",
    "characterization",
    "control",
    "execution",
    "scheduling",
    "systems",
)


def _by_name(descriptors, name):
    for descriptor in descriptors:
        if descriptor.name == name:
            return descriptor
    raise KeyError(name)


class TestTable2Classification:
    @pytest.mark.parametrize(
        "name",
        ["Query Cost", "MPLs", "Conflict Ratio", "Transaction Throughput", "Indicators"],
    )
    def test_every_admission_row_is_threshold_based(self, name):
        descriptor = _by_name(ADMISSION_APPROACHES, name)
        assert classify_descriptor(descriptor) == [T.THRESHOLD_BASED_ADMISSION]

    def test_prediction_admission_classifies_as_prediction_based(self):
        assert classify_descriptor(PREDICTION_ADMISSION) == [
            T.PREDICTION_BASED_ADMISSION
        ]

    def test_table2_threshold_bases_match_paper(self):
        bases = {d.name: d.threshold_basis for d in ADMISSION_APPROACHES}
        assert bases == {
            "Query Cost": "System Parameter",
            "MPLs": "System Parameter",
            "Conflict Ratio": "Performance Metric",
            "Transaction Throughput": "Performance Metric",
            "Indicators": "Monitor Metrics",
        }


class TestTable3Classification:
    def test_priority_aging_is_reprioritization(self):
        descriptor = _by_name(EXECUTION_APPROACHES, "Priority Aging")
        assert T.QUERY_REPRIORITIZATION in classify_descriptor(descriptor)

    def test_policy_driven_allocation_is_reprioritization(self):
        descriptor = _by_name(
            EXECUTION_APPROACHES, "Policy Driven Resource Allocation"
        )
        assert classify_descriptor(descriptor) == [T.QUERY_REPRIORITIZATION]

    def test_query_kill_is_cancellation(self):
        descriptor = _by_name(EXECUTION_APPROACHES, "Query Kill")
        assert classify_descriptor(descriptor) == [T.QUERY_CANCELLATION]

    def test_stop_and_restart_is_suspend_and_resume(self):
        descriptor = _by_name(EXECUTION_APPROACHES, "Query Stop-and-Restart")
        assert classify_descriptor(descriptor) == [T.SUSPEND_AND_RESUME]

    def test_throttling_is_request_throttling(self):
        descriptor = _by_name(EXECUTION_APPROACHES, "Request Throttling")
        assert classify_descriptor(descriptor) == [T.REQUEST_THROTTLING]


class TestTable4Classification:
    """Paper §4.1.4's identified techniques per system."""

    def test_db2_major_classes(self):
        descriptor = _by_name(COMMERCIAL_SYSTEMS, "IBM DB2 Workload Manager")
        assert major_classes_of(descriptor) == [
            T.WORKLOAD_CHARACTERIZATION,
            T.ADMISSION_CONTROL,
            T.EXECUTION_CONTROL,
        ]

    def test_db2_leaf_classes(self):
        descriptor = _by_name(COMMERCIAL_SYSTEMS, "IBM DB2 Workload Manager")
        leaves = classify_descriptor(descriptor)
        assert T.STATIC_CHARACTERIZATION in leaves
        assert T.THRESHOLD_BASED_ADMISSION in leaves
        assert T.QUERY_REPRIORITIZATION in leaves
        assert T.QUERY_CANCELLATION in leaves

    def test_sqlserver_leaf_classes(self):
        descriptor = _by_name(
            COMMERCIAL_SYSTEMS, "Microsoft SQL Server Resource/Query Governor"
        )
        leaves = classify_descriptor(descriptor)
        assert T.STATIC_CHARACTERIZATION in leaves
        assert T.THRESHOLD_BASED_ADMISSION in leaves
        assert T.QUERY_REPRIORITIZATION in leaves  # dynamic resource realloc
        assert T.QUERY_CANCELLATION not in leaves

    def test_teradata_leaf_classes(self):
        descriptor = _by_name(
            COMMERCIAL_SYSTEMS, "Teradata Active System Management"
        )
        leaves = classify_descriptor(descriptor)
        assert T.STATIC_CHARACTERIZATION in leaves
        assert T.THRESHOLD_BASED_ADMISSION in leaves
        assert T.QUERY_CANCELLATION in leaves

    def test_no_commercial_system_implements_scheduling(self):
        """§4.1.4: 'none of the systems implements any scheduling
        technique' — the key negative finding of Table 4."""
        for descriptor in COMMERCIAL_SYSTEMS:
            assert T.SCHEDULING not in major_classes_of(descriptor)


class TestTable5Classification:
    """Paper §4.2.5's classifications, row by row."""

    def test_niu_is_admission_and_scheduling(self):
        descriptor = _by_name(RESEARCH_TECHNIQUES, "Niu et al.")
        majors = major_classes_of(descriptor)
        assert T.ADMISSION_CONTROL in majors
        assert T.SCHEDULING in majors

    @pytest.mark.parametrize("name", ["Parekh et al.", "Powley et al."])
    def test_throttling_techniques(self, name):
        descriptor = _by_name(RESEARCH_TECHNIQUES, name)
        assert classify_descriptor(descriptor) == [T.REQUEST_THROTTLING]

    def test_chandramouli_is_suspend_and_resume(self):
        descriptor = _by_name(RESEARCH_TECHNIQUES, "Chandramouli et al.")
        assert classify_descriptor(descriptor) == [T.SUSPEND_AND_RESUME]

    def test_krompass_is_cancellation_and_reprioritization(self):
        descriptor = _by_name(RESEARCH_TECHNIQUES, "Krompass et al.")
        leaves = classify_descriptor(descriptor)
        assert T.QUERY_CANCELLATION in leaves
        assert T.QUERY_REPRIORITIZATION in leaves

    def test_krompass_row_names_the_fuzzy_controller_class(self):
        from repro.execution.krompass import FuzzyExecutionController

        descriptor = _by_name(RESEARCH_TECHNIQUES, "Krompass et al.")
        assert descriptor.implementation == (
            "repro.execution.krompass:FuzzyExecutionController"
        )
        assert descriptor.implementation_class is FuzzyExecutionController


class TestRegistryIntegrity:
    def test_every_descriptor_classifies_somewhere(self):
        for descriptor in all_descriptors():
            assert classify_descriptor(descriptor), descriptor.name

    def test_every_implementation_names_a_class(self):
        """DESIGN.md inventory is machine-checked here."""
        for descriptor in all_descriptors():
            module, _, name = descriptor.implementation.partition(":")
            cls = getattr(importlib.import_module(module), name)
            assert inspect.isclass(cls), descriptor.name
            assert descriptor.implementation_class is cls

    def test_a_row_reads_its_features_off_its_class(self):
        for descriptor in all_descriptors():
            cls = descriptor.implementation_class
            assert descriptor.features is cls.TECHNIQUE_FEATURES, descriptor.name
            assert classify_features(descriptor.features) == classify_component(cls)

    def test_no_row_declares_features(self):
        fields = {field.name for field in dataclasses.fields(ApproachDescriptor)}
        assert "features" not in fields

    def test_importing_the_registry_imports_no_technique(self):
        # the technique classes import Feature from the registry: a row
        # resolves its class only when its features are read
        code = (
            "import sys, repro.core.registry; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            f"[['repro', p] for p in {TECHNIQUE_PACKAGES!r}]))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.strip() == "[]"

    def test_descriptors_have_citations_and_mechanisms(self):
        for descriptor in all_descriptors():
            assert descriptor.citation.startswith("[")
            assert len(descriptor.mechanism) > 20

    def test_feature_values_unique(self):
        values = [feature.value for feature in Feature]
        assert len(values) == len(set(values))


class TestComponentClassification:
    """The taxonomy applied to this library's own running code."""

    def test_threshold_admission_component(self):
        from repro.admission.threshold import ThresholdAdmission

        assert classify_component(ThresholdAdmission()) == [
            T.THRESHOLD_BASED_ADMISSION
        ]

    def test_throttling_component(self):
        from repro.execution.throttling import UtilityThrottlingController

        assert classify_component(UtilityThrottlingController()) == [
            T.REQUEST_THROTTLING
        ]

    def test_suspend_resume_component(self):
        from repro.execution.suspend_resume import SuspendResumeController

        assert classify_component(SuspendResumeController()) == [
            T.SUSPEND_AND_RESUME
        ]

    def test_static_characterizer_component(self):
        from repro.characterization.static import StaticCharacterizer

        assert classify_component(StaticCharacterizer([])) == [
            T.STATIC_CHARACTERIZATION
        ]

    def test_dynamic_characterizer_component(self):
        from repro.characterization.dynamic import DynamicCharacterizer

        assert classify_component(DynamicCharacterizer()) == [
            T.DYNAMIC_CHARACTERIZATION
        ]

    def test_restructuring_component(self):
        from repro.core.manager import FCFSDispatcher
        from repro.scheduling.restructuring import RestructuringScheduler

        component = RestructuringScheduler(FCFSDispatcher())
        assert classify_component(component) == [T.QUERY_RESTRUCTURING]

    def test_unannotated_object_yields_nothing(self):
        assert classify_component(object()) == []

    def test_empty_features_classify_to_nothing(self):
        assert classify_features(set()) == []
