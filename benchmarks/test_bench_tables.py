"""TAB1–TAB5 — regenerate the paper's five tables.

Each table is derived from the registry + classification engine; the
benches assert the derived classifications agree with the paper's own
conclusions (§2.3 for Table 1, §3.2/§3.4 for Tables 2/3, §4.1.4 for
Table 4, §4.2.5 for Table 5) and persist the rendered artifacts.
"""

from repro.core.classify import classify_descriptor, major_classes_of
from repro.core.registry import (
    ADMISSION_APPROACHES,
    COMMERCIAL_SYSTEMS,
    EXECUTION_APPROACHES,
    RESEARCH_TECHNIQUES,
)
from repro.core.taxonomy import TechniqueClass as T
from repro.reporting.tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
)

from benchmarks.conftest import write_result


def test_table1_control_types(benchmark):
    table = benchmark(render_table1)
    write_result("table1_control_types", table)
    assert "Upon arrival" in table
    assert "Prior to sending" in table
    assert "During execu" in table  # wraps, prefix is stable


def test_table2_admission_approaches(benchmark):
    table = benchmark(render_table2)
    write_result("table2_admission", table)
    # all five rows classify into threshold-based admission control
    for descriptor in ADMISSION_APPROACHES:
        assert classify_descriptor(descriptor) == [T.THRESHOLD_BASED_ADMISSION]
    bases = [d.threshold_basis for d in ADMISSION_APPROACHES]
    assert bases == [
        "System Parameter",
        "System Parameter",
        "Performance Metric",
        "Performance Metric",
        "Monitor Metrics",
    ]


def test_table3_execution_approaches(benchmark):
    table = benchmark(render_table3)
    write_result("table3_execution", table)
    expected = {
        "Priority Aging": T.QUERY_REPRIORITIZATION,
        "Policy Driven Resource Allocation": T.QUERY_REPRIORITIZATION,
        "Query Kill": T.QUERY_CANCELLATION,
        "Query Stop-and-Restart": T.SUSPEND_AND_RESUME,
        "Request Throttling": T.REQUEST_THROTTLING,
    }
    for descriptor in EXECUTION_APPROACHES:
        assert expected[descriptor.name] in classify_descriptor(descriptor)


def test_table4_commercial_systems(benchmark):
    table = benchmark(render_table4)
    write_result("table4_systems", table)
    for descriptor in COMMERCIAL_SYSTEMS:
        majors = major_classes_of(descriptor)
        # §4.1.4: every system does characterization, admission and
        # execution control -- and none does scheduling
        assert T.WORKLOAD_CHARACTERIZATION in majors
        assert T.ADMISSION_CONTROL in majors
        assert T.EXECUTION_CONTROL in majors
        assert T.SCHEDULING not in majors
    db2 = classify_descriptor(COMMERCIAL_SYSTEMS[0])
    assert T.QUERY_REPRIORITIZATION in db2 and T.QUERY_CANCELLATION in db2
    sqlserver = classify_descriptor(COMMERCIAL_SYSTEMS[1])
    assert T.QUERY_CANCELLATION not in sqlserver
    teradata = classify_descriptor(COMMERCIAL_SYSTEMS[2])
    assert T.QUERY_CANCELLATION in teradata


def test_table5_research_techniques(benchmark):
    table = benchmark(render_table5)
    write_result("table5_research", table)
    by_name = {d.name: d for d in RESEARCH_TECHNIQUES}
    niu = major_classes_of(by_name["Niu et al."])
    assert T.ADMISSION_CONTROL in niu and T.SCHEDULING in niu
    assert classify_descriptor(by_name["Parekh et al."]) == [T.REQUEST_THROTTLING]
    assert classify_descriptor(by_name["Powley et al."]) == [T.REQUEST_THROTTLING]
    assert classify_descriptor(by_name["Chandramouli et al."]) == [
        T.SUSPEND_AND_RESUME
    ]
    krompass = classify_descriptor(by_name["Krompass et al."])
    assert T.QUERY_CANCELLATION in krompass
    assert T.QUERY_REPRIORITIZATION in krompass
