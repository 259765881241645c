"""Structural tests for the taxonomy of Figure 1."""

from repro.core.taxonomy import (
    TAXONOMY,
    TechniqueClass,
    build_taxonomy,
    major_classes,
    node_for,
    render_tree,
)


class TestStructure:
    def test_root_is_workload_management_techniques(self):
        assert TAXONOMY.technique_class is TechniqueClass.ROOT

    def test_four_major_classes_in_paper_order(self):
        names = [node.technique_class for node in major_classes()]
        assert names == [
            TechniqueClass.WORKLOAD_CHARACTERIZATION,
            TechniqueClass.ADMISSION_CONTROL,
            TechniqueClass.SCHEDULING,
            TechniqueClass.EXECUTION_CONTROL,
        ]

    def test_characterization_subclasses(self):
        node = node_for(TechniqueClass.WORKLOAD_CHARACTERIZATION)
        children = {child.technique_class for child in node.children}
        assert children == {
            TechniqueClass.STATIC_CHARACTERIZATION,
            TechniqueClass.DYNAMIC_CHARACTERIZATION,
        }

    def test_admission_subclasses(self):
        node = node_for(TechniqueClass.ADMISSION_CONTROL)
        children = {child.technique_class for child in node.children}
        assert children == {
            TechniqueClass.THRESHOLD_BASED_ADMISSION,
            TechniqueClass.PREDICTION_BASED_ADMISSION,
        }

    def test_scheduling_subclasses(self):
        node = node_for(TechniqueClass.SCHEDULING)
        children = {child.technique_class for child in node.children}
        assert children == {
            TechniqueClass.QUEUE_MANAGEMENT,
            TechniqueClass.QUERY_RESTRUCTURING,
        }

    def test_execution_control_has_three_subclasses(self):
        node = node_for(TechniqueClass.EXECUTION_CONTROL)
        children = {child.technique_class for child in node.children}
        assert children == {
            TechniqueClass.QUERY_REPRIORITIZATION,
            TechniqueClass.QUERY_CANCELLATION,
            TechniqueClass.REQUEST_SUSPENSION,
        }

    def test_suspension_splits_into_throttling_and_suspend_resume(self):
        node = node_for(TechniqueClass.REQUEST_SUSPENSION)
        children = {child.technique_class for child in node.children}
        assert children == {
            TechniqueClass.REQUEST_THROTTLING,
            TechniqueClass.SUSPEND_AND_RESUME,
        }

    def test_every_enum_member_appears_exactly_once(self):
        seen = [node.technique_class for node in TAXONOMY.walk()]
        assert len(seen) == len(set(seen))
        assert set(seen) == set(TechniqueClass)

    def test_every_node_has_description_and_section(self):
        for node in TAXONOMY.walk():
            assert node.description
            assert node.paper_section.startswith("3")


class TestNavigation:
    def test_find(self):
        node = TAXONOMY.find(TechniqueClass.REQUEST_THROTTLING)
        assert node is not None
        assert node.is_leaf

    def test_find_missing_from_subtree(self):
        scheduling = node_for(TechniqueClass.SCHEDULING)
        assert scheduling.find(TechniqueClass.QUERY_CANCELLATION) is None

    def test_path_to_leaf(self):
        path = TAXONOMY.path_to(TechniqueClass.SUSPEND_AND_RESUME)
        assert [node.technique_class for node in path] == [
            TechniqueClass.ROOT,
            TechniqueClass.EXECUTION_CONTROL,
            TechniqueClass.REQUEST_SUSPENSION,
            TechniqueClass.SUSPEND_AND_RESUME,
        ]

    def test_depths(self):
        assert TAXONOMY.depth_of(TechniqueClass.ROOT) == 0
        assert TAXONOMY.depth_of(TechniqueClass.SCHEDULING) == 1
        assert TAXONOMY.depth_of(TechniqueClass.QUEUE_MANAGEMENT) == 2
        assert TAXONOMY.depth_of(TechniqueClass.REQUEST_THROTTLING) == 3

    def test_leaves(self):
        leaves = {node.technique_class for node in TAXONOMY.leaves()}
        assert TechniqueClass.STATIC_CHARACTERIZATION in leaves
        assert TechniqueClass.EXECUTION_CONTROL not in leaves
        assert TechniqueClass.REQUEST_SUSPENSION not in leaves
        assert len(leaves) == 10

    def test_build_taxonomy_fresh_copy_equal_structure(self):
        fresh = build_taxonomy()
        assert [n.technique_class for n in fresh.walk()] == [
            n.technique_class for n in TAXONOMY.walk()
        ]


class TestRendering:
    def test_render_contains_every_class_name(self):
        text = render_tree()
        for technique_class in TechniqueClass:
            assert technique_class.display_name in text

    def test_render_tree_shape(self):
        lines = render_tree().splitlines()
        assert lines[0] == "Workload Management Techniques"
        assert lines[1].startswith("├── ")
        assert lines[-1].strip().endswith("Query Suspend-and-Resume")
