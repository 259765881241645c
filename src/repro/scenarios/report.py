"""Build the survival report from a finished (or fresh) matrix sweep.

:func:`survival_report_from_results` renders the report from the sweep
result list; :func:`generate_survival_report` runs the committed
matrix first (``python -m repro scenario report``'s backend).  Both
compute isolation leakage by pairing each noisy scenario's runs with
their companions (same scenario, antagonist tenants removed) from the
same sweep — no second pass required.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.reporting.survival import render_survival_report, tenant_leakage
from repro.scenarios.matrix import policy_names, scenario_names
from repro.scenarios.sweep import index_results, run_scenario_matrix


def survival_report_from_results(
    values: Sequence[Dict[str, object]],
    digest: str = "",
    seed: Optional[int] = None,
) -> str:
    """Render the survival report from scenario-task summaries.

    ``seed`` picks which replication the report shows when the sweep
    ran several; defaults to the smallest seed present.
    """
    indexed = index_results(values)
    if not indexed:
        return "# Scenario survival matrix\n\n(no results)\n"
    if seed is None:
        seed = min(key[2] for key in indexed)
    scenarios = [
        name
        for name in scenario_names()
        if any(key[0] == name and key[2] == seed for key in indexed)
    ]
    policies = [
        name
        for name in policy_names()
        if any(key[1] == name and key[2] == seed for key in indexed)
    ]
    cells: Dict[Tuple[str, str], Dict[str, object]] = {}
    leakage: Dict[Tuple[str, str], Dict[str, Optional[float]]] = {}
    for scenario in scenarios:
        for policy in policies:
            summary = indexed.get((scenario, policy, seed, False))
            if summary is None:
                continue
            companion = indexed.get((scenario, policy, seed, True))
            cells[(scenario, policy)] = summary
            leakage[(scenario, policy)] = tenant_leakage(summary, companion)
    return render_survival_report(
        scenarios,
        policies,
        cells,
        leakage,
        digest=digest,
        title=f"Scenario survival matrix (seed {seed})",
    )


def generate_survival_report(workers: int = 1) -> Tuple[str, str]:
    """Run the committed matrix and render; returns ``(report, sweep
    digest)``.  A subset or a replication is ``scenario sweep --json``
    followed by ``scenario report --json``."""
    result = run_scenario_matrix(workers=workers)
    report = survival_report_from_results(result.values, digest=result.digest)
    return report, result.digest
