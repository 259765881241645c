"""FIG1 — regenerate Figure 1, the taxonomy tree.

Paper artifact: the taxonomy of workload-management techniques with
four major classes and the subclass splits of §3.  The bench renders
the tree, checks its structure against the paper, and times taxonomy
construction + full-registry classification.
"""

from repro.core.classify import classify_descriptor
from repro.core.registry import all_descriptors
from repro.core.taxonomy import TAXONOMY, TechniqueClass, build_taxonomy
from repro.reporting.figures import render_figure1

from benchmarks.conftest import write_result


def _verify_figure() -> str:
    figure = render_figure1(annotate_descriptions=True)
    majors = [child.technique_class for child in TAXONOMY.children]
    assert majors == [
        TechniqueClass.WORKLOAD_CHARACTERIZATION,
        TechniqueClass.ADMISSION_CONTROL,
        TechniqueClass.SCHEDULING,
        TechniqueClass.EXECUTION_CONTROL,
    ]
    assert len(TAXONOMY.leaves()) == 10
    # the only depth-3 nodes are the two suspension subtypes
    deep = [
        node.technique_class
        for node in TAXONOMY.walk()
        if TAXONOMY.depth_of(node.technique_class) == 3
    ]
    assert set(deep) == {
        TechniqueClass.REQUEST_THROTTLING,
        TechniqueClass.SUSPEND_AND_RESUME,
    }
    return figure


def test_figure1_taxonomy(benchmark):
    figure = _verify_figure()
    write_result("figure1_taxonomy", figure)

    def rebuild_and_classify():
        build_taxonomy()
        return [classify_descriptor(d) for d in all_descriptors()]

    classifications = benchmark(rebuild_and_classify)
    assert all(classifications)
