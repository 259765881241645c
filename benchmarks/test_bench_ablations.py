"""Ablation benches — the simulator/policy design choices that the
experiment shapes depend on.

Each ablation sweeps one modelling knob and shows how the corresponding
experiment's shape responds, demonstrating that the reproduced
phenomena are driven by the modelled mechanism and not by accident:

* ABL1 — spill penalty vs. the thrashing knee (EXP1's mechanism is
  buffer-pool oversubscription: with no spill penalty the knee should
  flatten into a plateau);
* ABL2 — priority-exempting the admission gate (EXP2's design choice:
  without the exemption, MPL admission delays OLTP too);
* ABL3 — restructuring slice size (EXP6's knob: smaller slices help
  short queries more but pay more switching/queueing overhead);
* ABL4 — suspend-cost budget sweep (EXP8's planner: tightening the
  budget pushes the optimal plan from DumpState toward GoBack,
  trading suspend cost for resume cost).
"""

import functools

from repro.admission.base import PriorityExemptAdmission
from repro.admission.threshold import ThresholdAdmission
from repro.core.manager import FCFSDispatcher
from repro.core.policy import AdmissionPolicy
from repro.engine.executor import EngineConfig
from repro.engine.simulator import Simulator
from repro.execution.suspend_resume import SuspendStrategy, plan_suspension
from repro.scheduling.restructuring import RestructuringScheduler
from repro.workloads.generator import Scenario

from benchmarks._scenarios import (
    build_manager,
    closed_batch_workload,
    drive,
    overload_mix,
)
from benchmarks.conftest import write_result

from tests.conftest import make_query, staged_plan


# ----------------------------------------------------------------------
# ABL1 — spill penalty drives the thrashing knee
# ----------------------------------------------------------------------
def _throughput_at(mpl: int, spill_penalty: float, seed: int = 171) -> float:
    sim = Simulator(seed=seed)
    manager = build_manager(
        sim,
        scheduler=FCFSDispatcher(max_concurrency=mpl),
        engine_config=EngineConfig(spill_penalty=spill_penalty),
        control_period=5.0,
    )
    horizon = 90.0
    drive(
        manager,
        Scenario(specs=(closed_batch_workload(),), horizon=horizon),
        drain=0.0,
    )
    return manager.metrics.stats_for("closed").completions / horizon


@functools.lru_cache(maxsize=1)
def spill_sweep():
    mpls = (4, 16, 48)
    return {
        penalty: {mpl: _throughput_at(mpl, penalty) for mpl in mpls}
        for penalty in (0.0, 1.0, 3.0, 6.0)
    }


def test_ablation_spill_penalty(benchmark):
    outcome = spill_sweep()
    lines = ["ABL1 — spill penalty vs. thrashing severity", ""]
    for penalty, row in outcome.items():
        cells = "  ".join(f"MPL {m}: {t:.2f}/s" for m, t in row.items())
        lines.append(f"spill_penalty={penalty:>3}: {cells}")
    write_result("ablation_spill_penalty", "\n".join(lines))

    # without spill, high MPL does NOT collapse (plateau, >= 60% of MPL4)
    no_spill = outcome[0.0]
    assert no_spill[48] >= 0.6 * no_spill[4]
    # with the default penalty the collapse is dramatic
    default = outcome[3.0]
    assert default[48] < 0.2 * default[4]
    # severity is monotone in the penalty at MPL 48
    ratios = [outcome[p][48] / max(outcome[p][4], 1e-9) for p in (0.0, 1.0, 3.0, 6.0)]
    assert all(a >= b - 0.05 for a, b in zip(ratios, ratios[1:]))

    benchmark.pedantic(
        lambda: _throughput_at(16, 3.0, seed=172), rounds=1, iterations=1
    )


# ----------------------------------------------------------------------
# ABL2 — priority exemption on the admission gate
# ----------------------------------------------------------------------
def _mpl_gate(exempt: bool):
    inner = ThresholdAdmission(AdmissionPolicy(max_concurrency=2))
    if exempt:
        return PriorityExemptAdmission(inner, exempt_priority=3)
    return inner


def _overload_oltp_p95(admission, seed=181) -> float:
    sim = Simulator(seed=seed)
    manager = build_manager(sim, admission=admission, control_period=2.0)
    drive(manager, overload_mix(horizon=60.0), drain=30.0)
    return manager.metrics.stats_for("oltp").percentile_response_time(95.0)


@functools.lru_cache(maxsize=1)
def exemption_results():
    return {
        "exempt-high-priority": _overload_oltp_p95(_mpl_gate(True)),
        "gate-everyone": _overload_oltp_p95(_mpl_gate(False)),
    }


def test_ablation_priority_exemption(benchmark):
    outcome = exemption_results()
    lines = ["ABL2 — priority exemption on MPL admission (§2.3)", ""]
    for name, p95 in outcome.items():
        lines.append(f"{name:>22}: oltp p95 = {p95:.3f}s")
    write_result("ablation_priority_exemption", "\n".join(lines))

    # §2.3: high-priority workloads get less restrictive thresholds —
    # gating everyone through MPL 2 queues OLTP behind BI
    assert outcome["exempt-high-priority"] < outcome["gate-everyone"] / 3.0

    benchmark.pedantic(
        lambda: _overload_oltp_p95(_mpl_gate(True), seed=182),
        rounds=1,
        iterations=1,
    )


# ----------------------------------------------------------------------
# ABL3 — restructuring slice size
# ----------------------------------------------------------------------
def _slicing_run(slice_work, seed=191):
    from benchmarks.test_bench_exp6_restructuring import _scenario

    sim = Simulator(seed=seed)
    inner = FCFSDispatcher(max_concurrency=2)
    scheduler = (
        RestructuringScheduler(inner, slice_threshold=10.0, slice_work=slice_work)
        if slice_work is not None
        else inner
    )
    manager = build_manager(sim, scheduler=scheduler, control_period=2.0)
    drive(manager, _scenario(), drain=120.0)
    shorts = manager.metrics.stats_for("shorts")
    big_rt = None
    if slice_work is not None and scheduler.original_response_times:
        times = scheduler.original_response_times
        big_rt = sum(times) / len(times)
    return {
        "short_p95": shorts.percentile_response_time(95.0),
        "big_rt": big_rt,
    }


@functools.lru_cache(maxsize=1)
def slice_sweep():
    return {
        "no slicing": _slicing_run(None),
        "slice=10s": _slicing_run(10.0),
        "slice=3s": _slicing_run(3.0),
        "slice=1s": _slicing_run(1.0),
    }


def test_ablation_slice_size(benchmark):
    outcome = slice_sweep()
    lines = ["ABL3 — restructuring slice size", ""]
    for name, row in outcome.items():
        big = f", big rt={row['big_rt']:.1f}s" if row["big_rt"] else ""
        lines.append(f"{name:>11}: short p95={row['short_p95']:.2f}s{big}")
    write_result("ablation_slice_size", "\n".join(lines))

    # smaller slices monotonically improve short-query p95...
    p95s = [
        outcome[name]["short_p95"]
        for name in ("no slicing", "slice=10s", "slice=3s", "slice=1s")
    ]
    assert all(a >= b - 0.2 for a, b in zip(p95s, p95s[1:]))
    # ...while big-query latency pays more as slices shrink
    assert outcome["slice=1s"]["big_rt"] >= outcome["slice=10s"]["big_rt"] - 1.0

    benchmark.pedantic(lambda: _slicing_run(3.0, seed=192), rounds=1, iterations=1)


# ----------------------------------------------------------------------
# ABL4 — suspend-cost budget sweep
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def budget_sweep():
    query = make_query(cpu=200.0, io=0.0, plan=staged_plan(state_mb=400.0))
    progress = 0.65
    out = {}
    for budget in (None, 8.0, 4.0, 1.0, 0.0):
        plan = plan_suspension(
            query,
            progress,
            SuspendStrategy.OPTIMAL,
            suspend_cost_budget=budget,
        )
        out[budget] = plan
    return out


def test_ablation_suspend_budget(benchmark):
    outcome = budget_sweep()
    lines = ["ABL4 — optimal suspend plan vs. suspend-cost budget", ""]
    for budget, plan in outcome.items():
        label = "unbounded" if budget is None else f"{budget:g}s"
        lines.append(
            f"budget {label:>9}: suspend={plan.suspend_cost:.2f}s "
            f"resume={plan.resume_cost:.2f}s "
            f"dumped_ops={list(plan.dumped_operators)}"
        )
    write_result("ablation_suspend_budget", "\n".join(lines))

    budgets = [None, 8.0, 4.0, 1.0, 0.0]
    # suspend cost respects every finite budget
    for budget in budgets[1:]:
        assert outcome[budget].suspend_cost <= budget + 1e-9
    # tightening the budget trades suspend cost down, resume cost up
    suspend_costs = [outcome[b].suspend_cost for b in budgets]
    resume_costs = [outcome[b].resume_cost for b in budgets]
    assert all(a >= b - 1e-9 for a, b in zip(suspend_costs, suspend_costs[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(resume_costs, resume_costs[1:]))
    # zero budget = pure GoBack
    assert outcome[0.0].suspend_cost == 0.0

    benchmark.pedantic(lambda: dict(budget_sweep()), rounds=3, iterations=1)
