"""EXP2 — admission thresholds protect high-priority work (§2.3, Table 2).

Claim reproduced: cost and MPL thresholds "avoid accepting more work
than a database system can effectively process" and let arriving
requests "achieve their desired performance objectives".

Setup: the §1 consolidation overload (12/s OLTP + aggressive BI) run
under (a) no control, (b) a query-cost threshold that rejects heavy BI,
(c) an MPL threshold, and (d) cost + MPL combined.  Expected shape:
OLTP p95 improves by a large factor under each control; the cost
threshold rejects only heavy queries (OLTP passes untouched).
"""

import functools

from repro.admission.base import CompositeAdmission, PriorityExemptAdmission
from repro.admission.threshold import ThresholdAdmission
from repro.core.policy import AdmissionPolicy
from repro.engine.simulator import Simulator
from repro.reporting.figures import ascii_bar_chart

from benchmarks._scenarios import build_manager, drive, overload_mix
from benchmarks.conftest import write_result


def run_variant(admission=None, seed=11):
    sim = Simulator(seed=seed)
    manager = build_manager(sim, admission=admission, control_period=2.0)
    drive(manager, overload_mix(horizon=90.0), drain=45.0)
    oltp = manager.metrics.stats_for("oltp")
    bi = manager.metrics.stats_for("bi")
    return {
        "oltp_p95": oltp.percentile_response_time(95.0),
        "oltp_completions": oltp.completions,
        "oltp_rejections": oltp.rejections,
        "bi_completions": bi.completions,
        "bi_rejections": bi.rejections,
    }


def _cost_gate():
    return PriorityExemptAdmission(
        ThresholdAdmission(AdmissionPolicy(reject_over_cost=20.0)),
        exempt_priority=3,
    )


def _mpl_gate():
    return PriorityExemptAdmission(
        ThresholdAdmission(AdmissionPolicy(max_concurrency=2)),
        exempt_priority=3,
    )


@functools.lru_cache(maxsize=1)
def results():
    return {
        "uncontrolled": run_variant(None),
        "cost-threshold": run_variant(_cost_gate()),
        "mpl-threshold": run_variant(_mpl_gate()),
        "cost+mpl": run_variant(
            CompositeAdmission([_cost_gate(), _mpl_gate()])
        ),
    }


def test_exp2_admission_control(benchmark):
    outcome = results()
    chart = ascii_bar_chart(
        {name: row["oltp_p95"] for name, row in outcome.items()},
        title="EXP2 — OLTP p95 response time under admission control",
        unit="s",
    )
    lines = [chart, ""]
    for name, row in outcome.items():
        lines.append(
            f"{name:>14}: oltp_p95={row['oltp_p95']:.3f}s "
            f"oltp_done={row['oltp_completions']} "
            f"oltp_rej={row['oltp_rejections']} "
            f"bi_done={row['bi_completions']} bi_rej={row['bi_rejections']}"
        )
    write_result("exp2_admission", "\n".join(lines))

    baseline = outcome["uncontrolled"]["oltp_p95"]
    for variant in ("cost-threshold", "mpl-threshold", "cost+mpl"):
        assert outcome[variant]["oltp_p95"] < baseline / 2.0, variant
    # OLTP itself is never rejected (high priority / cheap)
    for variant in ("cost-threshold", "cost+mpl"):
        assert outcome[variant]["oltp_rejections"] == 0
    # the cost threshold pays with rejected BI work
    assert outcome["cost-threshold"]["bi_rejections"] > 0
    # OLTP volume is preserved under control
    assert (
        outcome["cost+mpl"]["oltp_completions"]
        >= outcome["uncontrolled"]["oltp_completions"]
    )

    benchmark.pedantic(
        lambda: run_variant(_cost_gate(), seed=12), rounds=1, iterations=1
    )
