"""Inventory tests: DESIGN.md's promises are machine-checked.

The design document lists systems to build and experiments to run;
these tests assert the repository actually contains them — every
registry row names an importable class, every experiment id has a bench file,
every example script exists and compiles, and the documentation files
reference each other consistently.
"""

import ast
import importlib
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]

EXPERIMENT_IDS = [f"exp{i}" for i in range(1, 19)]
EXPECTED_EXAMPLES = [
    "quickstart.py",
    "consolidation_protection.py",
    "autonomic_manager.py",
    "commercial_systems.py",
    "throttling_lab.py",
    "taxonomy_tour.py",
    "ab_policy_lab.py",
]
EXPECTED_SUBPACKAGES = [
    "repro.engine",
    "repro.workloads",
    "repro.core",
    "repro.characterization",
    "repro.admission",
    "repro.scheduling",
    "repro.execution",
    "repro.control",
    "repro.systems",
    "repro.ml",
    "repro.reporting",
    "repro.cluster",
    "repro.parallel",
    "repro.backends",
    "repro.scenarios",
]


class TestExperimentBenches:
    @pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
    def test_bench_file_exists(self, experiment):
        matches = list(REPO.glob(f"benchmarks/test_bench_{experiment}_*.py"))
        assert matches, f"no bench file for {experiment}"

    def test_table_and_figure_benches_exist(self):
        assert (REPO / "benchmarks" / "test_bench_tables.py").exists()
        assert (REPO / "benchmarks" / "test_bench_figure1_taxonomy.py").exists()
        assert (REPO / "benchmarks" / "test_bench_ablations.py").exists()

    def test_every_bench_compiles(self):
        for path in REPO.glob("benchmarks/test_bench_*.py"):
            ast.parse(path.read_text())

    def test_every_bench_documents_its_claim(self):
        """Each experiment bench's docstring cites the paper."""
        for path in REPO.glob("benchmarks/test_bench_exp*.py"):
            doc = ast.get_docstring(ast.parse(path.read_text()))
            assert doc, path.name
            assert "§" in doc or "[" in doc, f"{path.name} lacks a citation"


class TestExamples:
    @pytest.mark.parametrize("name", EXPECTED_EXAMPLES)
    def test_example_exists_and_compiles(self, name):
        path = REPO / "examples" / name
        assert path.exists()
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{name} lacks a docstring"
        # every example has a main() guard
        assert "__main__" in path.read_text()

    def test_at_least_three_examples(self):
        assert len(list((REPO / "examples").glob("*.py"))) >= 3


class TestPackages:
    @pytest.mark.parametrize("module", EXPECTED_SUBPACKAGES)
    def test_subpackage_imports_and_documents(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, module

    def test_registry_implementations_import(self):
        from repro.core.registry import all_descriptors

        for descriptor in all_descriptors():
            module, _, name = descriptor.implementation.partition(":")
            assert isinstance(getattr(importlib.import_module(module), name), type)


class TestDocumentation:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO / name).exists(), name
            assert len((REPO / name).read_text()) > 1000, name

    def test_experiments_md_covers_every_artifact(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ("FIG1", "TAB1", "TAB2", "TAB3", "TAB4", "TAB5"):
            assert artifact in text
        for index in range(1, 19):
            assert f"EXP{index}" in text, f"EXP{index} missing"
        for ablation in ("ABL1", "ABL2", "ABL3", "ABL4"):
            assert ablation in text

    def test_design_md_paper_identity_check(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "Paper identity check" in text
        assert "Taxonomy" in text

    def test_readme_mentions_every_example(self):
        text = (REPO / "README.md").read_text()
        for name in EXPECTED_EXAMPLES:
            assert name in text, name
