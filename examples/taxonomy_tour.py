#!/usr/bin/env python3
"""Tour of the executable taxonomy: Figure 1, Tables 1-5, and
classification of your own technique descriptions.

The taxonomy is data, not prose: this script renders every paper
artifact from the registry + classification engine, then shows how to
describe a *new* technique (here: a hypothetical "pause heavy queries
when replication lag grows" feature) and where the classifier files it.

Run:  python examples/taxonomy_tour.py
"""

from repro import all_tables, render_figure1
from repro.core.classify import classify_component, classify_features
from repro.core.registry import Feature
from repro.execution.throttling import QueryThrottlingController


def main() -> None:
    print(render_figure1(annotate_descriptions=True))
    print()
    print(all_tables())

    print("\n--- classifying a new technique description ---")
    # a technique is what it does: its feature set, declared once (in
    # this library, as its class's TECHNIQUE_FEATURES)
    name = "Replication-lag throttle"
    features = {
        Feature.ACTS_AT_RUNTIME,  # pauses heavy analytic queries ...
        Feature.PAUSES_RUNNING_REQUEST,
        Feature.USES_THRESHOLDS,  # ... while replica lag exceeds a threshold
        Feature.THRESHOLD_ON_MONITOR_METRICS,
    }
    classes = classify_features(features)
    print(f"{name!r} classifies as:")
    for technique_class in classes:
        print(f"  - {technique_class.display_name}")

    print("\n--- classifying running library code ---")
    controller = QueryThrottlingController()
    classes = classify_component(controller)
    print(
        f"{type(controller).__name__} classifies as: "
        + ", ".join(c.display_name for c in classes)
    )


if __name__ == "__main__":
    main()
