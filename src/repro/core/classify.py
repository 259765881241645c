"""Classification engine: feature descriptors → taxonomy classes.

This is the taxonomy *applied*, as in the paper's Section 4: given a
machine-readable description of what a technique or system does (the
``TECHNIQUE_FEATURES`` of the class an
:class:`~repro.core.registry.ApproachDescriptor` names), derive the
taxonomy classes it belongs to.  The reproduced Tables 4 and 5 are
outputs of this engine over the registry, and the expected
classifications from the paper's §4.1.4/§4.2.5 are asserted in the
test suite.

Classification rules (from the taxonomy definitions of §3):

* maps requests to workloads with predefined rules → static
  characterization; by learning from samples → dynamic characterization;
* acts at arrival with thresholds → threshold-based admission control;
  with pre-execution performance prediction → prediction-based;
* acts before execution determining order / managing queues → queue
  management; by decomposing queries → query restructuring;
* acts at runtime changing priorities or reallocating resources →
  query reprioritization; terminating without checkpoints → query
  cancellation; pausing → request throttling; terminating *with*
  checkpoints → suspend-and-resume (both suspension subclasses sit under
  request suspension in the taxonomy tree).
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.core.registry import ApproachDescriptor, Feature
from repro.core.taxonomy import TAXONOMY, TechniqueClass


def classify_features(features: Set[Feature]) -> List[TechniqueClass]:
    """Map a feature set to taxonomy leaf classes (ordered by taxonomy)."""
    classes: List[TechniqueClass] = []

    def add(cls: TechniqueClass) -> None:
        if cls not in classes:
            classes.append(cls)

    # --- workload characterization -----------------------------------
    if Feature.MAPS_REQUESTS_TO_WORKLOADS in features:
        if Feature.LEARNS_FROM_SAMPLES in features:
            add(TechniqueClass.DYNAMIC_CHARACTERIZATION)
        if Feature.PREDEFINED_WORKLOAD_RULES in features:
            add(TechniqueClass.STATIC_CHARACTERIZATION)

    # --- admission control --------------------------------------------
    if Feature.ACTS_AT_ARRIVAL in features:
        if Feature.PREDICTS_PERFORMANCE in features:
            add(TechniqueClass.PREDICTION_BASED_ADMISSION)
        if Feature.USES_THRESHOLDS in features:
            add(TechniqueClass.THRESHOLD_BASED_ADMISSION)

    # --- scheduling -----------------------------------------------------
    if Feature.ACTS_BEFORE_EXECUTION in features:
        if (
            Feature.DETERMINES_EXECUTION_ORDER in features
            or Feature.MANAGES_WAIT_QUEUES in features
            or Feature.PREDICTS_MPL in features
        ):
            add(TechniqueClass.QUEUE_MANAGEMENT)
        if Feature.DECOMPOSES_QUERIES in features:
            add(TechniqueClass.QUERY_RESTRUCTURING)

    # --- execution control ----------------------------------------------
    if Feature.ACTS_AT_RUNTIME in features:
        if (
            Feature.CHANGES_RUNNING_PRIORITY in features
            or Feature.REALLOCATES_RESOURCES in features
        ):
            add(TechniqueClass.QUERY_REPRIORITIZATION)
        if Feature.TERMINATES_RUNNING_REQUEST in features:
            if Feature.CHECKPOINTS_STATE in features:
                add(TechniqueClass.SUSPEND_AND_RESUME)
            else:
                add(TechniqueClass.QUERY_CANCELLATION)
        if Feature.PAUSES_RUNNING_REQUEST in features:
            add(TechniqueClass.REQUEST_THROTTLING)

    return _taxonomy_order(classes)


def _taxonomy_order(classes: Iterable[TechniqueClass]) -> List[TechniqueClass]:
    """Stable ordering: depth-first position in the taxonomy tree."""
    order = [node.technique_class for node in TAXONOMY.walk()]
    return sorted(set(classes), key=order.index)


def classify_descriptor(descriptor: ApproachDescriptor) -> List[TechniqueClass]:
    """Taxonomy classes for a registered approach/system."""
    return classify_features(set(descriptor.features))


def major_classes_of(descriptor: ApproachDescriptor) -> List[TechniqueClass]:
    """The *major* classes a descriptor falls under (Table 4's columns)."""
    majors: List[TechniqueClass] = []
    for leaf in classify_descriptor(descriptor):
        path = TAXONOMY.path_to(leaf)
        if len(path) >= 2:
            major = path[1].technique_class
            if major not in majors:
                majors.append(major)
    return majors


def classify_component(component: object) -> List[TechniqueClass]:
    """Classify one of *this library's own* implementation classes or
    objects.

    Implementation classes declare a ``TECHNIQUE_FEATURES`` attribute
    (an iterable of :class:`Feature`), the same set a registry row reads
    from the class it names: the taxonomy applied to running code, not
    just to prose.
    """
    features = getattr(component, "TECHNIQUE_FEATURES", None)
    if features is None:
        return []
    return classify_features(set(features))

