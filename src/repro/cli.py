"""Command-line interface: the paper's artifacts from your terminal.

Usage::

    python -m repro figure                 # Figure 1 (add --annotate)
    python -m repro tables [1..5|all]      # regenerate the tables
    python -m repro demo [--seed N]        # run the mixed-workload demo
    python -m repro cluster --nodes 4 --policy cost   # multi-node demo
    python -m repro sweep --workers 4      # parallel policy × seed sweep
    python -m repro scenario run --name noisy_neighbor --policy baseline
    python -m repro scenario report        # the survival matrix
    python -m repro classify F1 F2 ...     # classify a feature set
    python -m repro features               # list classification features
    python -m repro backend run            # execute a plan on a real DBMS
    python -m repro backend calibrate --trace-in t.jsonl   # fit cost model
    python -m repro backend compare        # sim-vs-real metric deltas

The CLI is intentionally thin — every command is one public-API call —
so it doubles as living documentation of the library's entry points.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.reporting.figures import render_figure1

    print(render_figure1(annotate_descriptions=args.annotate))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.reporting import tables

    renderers = {
        "1": tables.render_table1,
        "2": tables.render_table2,
        "3": tables.render_table3,
        "4": tables.render_table4,
        "5": tables.render_table5,
    }
    if args.which == "all":
        print(tables.all_tables())
    else:
        print(renderers[args.which]())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import Simulator, WorkloadManager, mixed_scenario
    from repro.cluster.node import NODE_MACHINE
    from repro.errors import ConfigurationError

    if args.horizon <= 0:
        raise ConfigurationError(f"horizon must be > 0, got {args.horizon}")
    sim = Simulator(seed=args.seed)
    manager = WorkloadManager(sim, machine=NODE_MACHINE)
    scenario = mixed_scenario(horizon=args.horizon)
    generator = scenario.build(sim, manager.submit, sessions=manager.sessions)
    manager.add_completion_listener(generator.notify_done)
    print(
        f"Running {args.horizon:.0f}s of consolidated OLTP+BI+reports "
        f"(seed {args.seed})..."
    )
    manager.run(scenario.horizon, drain=args.horizon)
    for workload in sorted(manager.metrics.workloads()):
        print(" ", manager.metrics.summary_line(workload, sim.now))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.errors import ConfigurationError
    from repro.reporting.figures import ascii_cluster_timeline
    from repro.scenarios import ChaosSpec, get_policy, get_scenario, run_scenario

    spec = get_scenario("cluster_overload", nodes=args.nodes, horizon=args.horizon)
    killing = ""
    if args.kill_node is not None:
        # checked in the seconds typed, before ChaosSpec's horizon fractions
        node, at, recover_at, horizon = args.kill_node, args.kill_at, args.recover_at, spec.horizon
        if not 0.0 <= at <= horizon:
            raise ConfigurationError(
                f"crash of {node!r} at t={at:g}s: must be in [0, {horizon:g}]s, the horizon"
            )
        if recover_at is not None and recover_at <= at:
            raise ConfigurationError(
                f"crash of {node!r} at t={at:g}s must recover later, not at t={recover_at:g}s"
            )
        crash = (at / horizon, node, None if recover_at is None else recover_at / horizon)
        spec = replace(spec, chaos=ChaosSpec(crashes=(crash,)))
        killing = f", killing {node} at t={at:.0f}s"
    print(
        f"Dispatching OLTP+BI across {args.nodes} nodes "
        f"({args.policy} placement, {args.dispatch} dispatch, "
        f"seed {args.seed}, {args.horizon:.0f}s horizon){killing}..."
    )
    policy = get_policy(f"{args.dispatch}/{args.policy}")
    dispatcher = run_scenario(spec, policy, seed=args.seed).dispatcher
    now = dispatcher.sim.now
    print()
    print(dispatcher.metrics.rollup_table(now))
    print()
    lanes = dispatcher.metrics.timeline_lanes(now)
    print(ascii_cluster_timeline(lanes, now))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.cluster.placement import POLICY_NAMES
    from repro.scenarios.sweep import rollup_table, run_scenario_matrix

    policies = POLICY_NAMES if args.policies == "all" else args.policies.split(",")
    seeds = args.seeds
    print(
        f"Sweeping {len(policies)} placement polic"
        f"{'y' if len(policies) == 1 else 'ies'} × {len(seeds)} seeds "
        f"({len(policies) * len(seeds)} runs, {args.workers} worker"
        f"{'' if args.workers == 1 else 's'}, {args.nodes} nodes, "
        f"{args.horizon:.0f}s horizon)..."
    )
    result = run_scenario_matrix(
        scenarios=["cluster_overload"],
        policies=[f"{args.dispatch}/{placement}" for placement in policies],
        seeds=seeds,
        workers=args.workers,
        nodes=args.nodes,
        horizon=args.horizon,
        mpl=args.mpl,
    )
    print()
    print(rollup_table(result))
    print()
    print(
        f"{len(result.outcomes)} runs in {result.wall_s:.2f}s wall "
        f"({result.workers} workers"
        + (", serial fallback" if result.fell_back_serial else "")
        + f"); sweep digest {result.digest[:16]}…"
    )
    return 0


def _check_writable(path: Optional[str]) -> None:
    """A finished run is not lost to a typo in ``--json``/``--out``/``--trace-out``."""
    from repro.errors import ConfigurationError

    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(directory, os.W_OK):
        raise ConfigurationError(
            f"cannot write {path}: it must be a file in an existing, "
            "writable directory"
        )


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.verb == "list":
        return _scenario_list()
    if args.verb == "run":
        return _scenario_run(args)
    if args.verb == "sweep":
        return _scenario_sweep(args)
    return _scenario_report(args)


def _scenario_list() -> int:
    from repro.scenarios.matrix import MATRIX_POLICIES, SCENARIO_BUILDERS

    print("Scenarios:")
    for spec in (builder() for builder in SCENARIO_BUILDERS.values()):
        chaos = " [chaos]" if spec.chaos.active else ""
        noisy = " [noisy]" if spec.has_noisy else ""
        print(
            f"  {spec.name:<16} {len(spec.tenants)} tenants, "
            f"{spec.nodes} nodes, {spec.horizon:.0f}s{chaos}{noisy} "
            f"— {spec.description}"
        )
    print("Policies:")
    for policy in MATRIX_POLICIES:
        print(f"  {policy.name:<16} {policy.describe()}")
    return 0


def _scenario_run(args: argparse.Namespace) -> int:
    from repro.reporting.survival import render_scenario_detail
    from repro.scenarios import (
        get_policy,
        get_scenario,
        load_scenario_file,
        run_scenario,
        summarize_run,
    )

    if args.spec:
        spec = load_scenario_file(args.spec)
    else:
        spec = get_scenario(args.name)
    if args.exclude_noisy:
        spec = spec.without_noisy()
    policy = get_policy(args.policy)
    print(
        f"Running scenario {spec.name!r} under policy {policy.name!r} "
        f"({policy.describe()}, seed {args.seed}, "
        f"{spec.horizon:.0f}s horizon, {spec.nodes} nodes)..."
    )
    result = run_scenario(spec, policy, seed=args.seed)
    summary = summarize_run(result)
    print()
    print(render_scenario_detail(summary, {}))
    print()
    print(f"digest {summary['digest']}")
    return 0


def _scenario_sweep(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.scenarios import run_scenario_matrix

    _check_writable(args.json)
    scenarios = args.scenarios.split(",") if args.scenarios else None
    policies = args.policies.split(",") if args.policies else None
    result = run_scenario_matrix(
        scenarios=scenarios,
        policies=policies,
        seeds=args.seeds,
        workers=args.workers,
    )
    header = (
        f"{'scenario':<16} {'policy':<16} {'companion':>9} {'seed':>5} "
        f"{'done':>6} {'rej':>5}  digest"
    )
    print(header)
    print("-" * len(header))
    for value in result.values:
        companion = "yes" if value.get("exclude_noisy") else ""
        print(
            f"{value['scenario']:<16} {value['policy']:<16} "
            f"{companion:>9} {value['seed']:>5} {value['completed']:>6} "
            f"{value['rejected']:>5}  {str(value['digest'])[:16]}…"
        )
    print()
    print(
        f"{len(result.outcomes)} runs in {result.wall_s:.2f}s wall "
        f"({result.workers} workers); matrix digest {result.digest}"
    )
    if args.json:
        payload = {"digest": result.digest, "results": result.values}
        with open(args.json, "w") as handle:
            json_module.dump(payload, handle, indent=2)
        print(f"wrote results to {args.json}")
    return 0


def _scenario_report(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.errors import ConfigurationError
    from repro.scenarios.report import (
        generate_survival_report,
        survival_report_from_results,
    )

    _check_writable(args.out)
    if args.json:
        try:
            with open(args.json) as handle:
                payload = json_module.load(handle)
        except FileNotFoundError:
            raise ConfigurationError(f"results file not found: {args.json}")
        except json_module.JSONDecodeError as error:
            raise ConfigurationError(
                f"malformed results JSON in {args.json}: {error}"
            )
        if not isinstance(payload, dict) or "results" not in payload:
            raise ConfigurationError(
                f"malformed results in {args.json}: expected the mapping "
                "`scenario sweep --json` writes, with a 'results' list"
            )
        report = survival_report_from_results(
            payload["results"], digest=str(payload.get("digest", ""))
        )
    else:
        report, _ = generate_survival_report(workers=args.workers)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote survival report to {args.out}")
    else:
        print(report)
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    from repro.core.registry import Feature

    print("Classification features (repro.core.registry.Feature):")
    for feature in Feature:
        print(f"  {feature.name:<34} {feature.value}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.core.classify import classify_features
    from repro.core.registry import Feature

    try:
        features = {Feature[name.upper()] for name in args.feature}
    except KeyError as error:
        print(f"unknown feature {error.args[0]!r}; run `python -m repro features`")
        return 2
    classes = classify_features(features)
    if not classes:
        print("no taxonomy class matches this feature set")
        return 1
    print("Classifies as:")
    for technique_class in classes:
        print(f"  - {technique_class.display_name}")
    return 0


def _backend_specs(names: str):
    from repro.errors import ConfigurationError
    from repro.workloads.generator import WORKLOAD_BUILDERS

    specs = []
    for name in names.split(","):
        name = name.strip()
        if name not in WORKLOAD_BUILDERS:
            raise ConfigurationError(
                f"unknown workload {name!r}; choose from {tuple(WORKLOAD_BUILDERS)}"
            )
        specs.append(WORKLOAD_BUILDERS[name]())
    return specs


def _backend_plan(args: argparse.Namespace):
    from repro.backends import plan_statements

    return plan_statements(
        _backend_specs(args.workloads),
        horizon=args.horizon,
        seed=args.seed,
        max_statements=args.max_statements,
    )


def _backend_config(args: argparse.Namespace):
    from repro.backends import RunConfig

    return RunConfig(
        mpl=args.mpl,
        max_rate=args.max_rate,
        time_scale=args.time_scale,
        statement_timeout_s=args.statement_timeout,
        rows=args.rows,
    )


def _backend_policies(args: argparse.Namespace):
    from repro.backends import SleepThrottle
    from repro.core.policy import AdmissionPolicy

    admission = None
    if args.cost_limit is not None or args.max_outstanding is not None:
        admission = AdmissionPolicy(
            reject_over_cost=args.cost_limit,
            max_concurrency=args.max_outstanding,
            queue_when_full=False,
        )
    throttle = None
    if args.sleep_fraction > 0:
        workloads = frozenset(
            w.strip() for w in args.throttle_workloads.split(",") if w.strip()
        )
        throttle = SleepThrottle(
            workloads=workloads, sleep_fraction=args.sleep_fraction
        )
    return admission, throttle


def _cmd_backend(args: argparse.Namespace) -> int:
    from repro.backends import (
        BackendRunner,
        SQLiteBackend,
        fit_cost_model,
        outcome_metrics,
        run_comparison,
        service_error,
    )
    from repro.core.metrics import WorkloadStats
    from repro.workloads.traces import QueryLog

    if args.verb == "calibrate":
        if not args.trace_in:
            print("backend calibrate requires --trace-in FILE")
            return 2
        log = QueryLog.from_jsonl(args.trace_in)
        model = fit_cost_model(log, time_scale=args.time_scale)
        print(
            f"fitted {len(model.fits)} class models "
            f"(+ global fallback) from {len(log)} records"
        )
        for label in sorted(model.fits):
            fit = model.fits[label]
            print(
                f"  {label:<24} service ≈ {fit.intercept:.6f} "
                f"+ {fit.slope:.6f}·work   ({fit.samples} samples)"
            )
        uncal = service_error(log, None, time_scale=args.time_scale)
        cal = service_error(log, model, time_scale=args.time_scale)
        print(f"mean |service error|: uncalibrated {uncal:.6f}s, "
              f"calibrated {cal:.6f}s")
        return 0

    _check_writable(args.trace_out)
    plan = _backend_plan(args)
    admission, throttle = _backend_policies(args)
    if args.verb == "run":
        driver = SQLiteBackend()
        print(
            f"executing {len(plan)} planned statements on "
            f"{driver.name} (digest {plan.digest()[:16]}…)"
        )
        report = BackendRunner(
            driver,
            plan,
            _backend_config(args),
            admission=admission,
            throttle=throttle,
        ).run()
        print(report.summary_line())
        stats = WorkloadStats.from_log(report.log, args.time_scale)
        for name, value in outcome_metrics(stats, plan.horizon).items():
            print(f"  {name:<15} {value:.6f}")
        if args.trace_out:
            count = report.log.to_jsonl(args.trace_out)
            print(f"wrote {count} trace records to {args.trace_out}")
        return 0 if report.conserved else 1

    # compare
    report = run_comparison(
        plan,
        SQLiteBackend,
        _backend_config(args),
        admission=admission,
        throttle=throttle,
        keep_real_reports=bool(args.trace_out),
    )
    print(report.render())
    if args.trace_out:
        count = report.real_reports["baseline"].log.to_jsonl(args.trace_out)
        print(f"\nwrote {count} baseline trace records to {args.trace_out}")
    return 0


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    from repro.cluster.dispatcher import DISPATCH_MODES
    from repro.cluster.placement import POLICY_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Workload management in DBMSs: the executable taxonomy.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure = subparsers.add_parser("figure", help="render Figure 1")
    figure.add_argument(
        "--annotate", action="store_true", help="append class definitions"
    )
    figure.set_defaults(func=_cmd_figure)

    tables = subparsers.add_parser("tables", help="render Tables 1-5")
    tables.add_argument(
        "which", nargs="?", default="all", choices=["1", "2", "3", "4", "5", "all"]
    )
    tables.set_defaults(func=_cmd_tables)

    demo = subparsers.add_parser("demo", help="run the mixed-workload demo")
    demo.add_argument("--seed", type=_non_negative_int, default=42)
    demo.add_argument("--horizon", type=float, default=60.0)
    demo.set_defaults(func=_cmd_demo)

    cluster = subparsers.add_parser(
        "cluster", help="run the multi-node cluster demo"
    )
    cluster.add_argument("--nodes", type=int, default=4)
    cluster.add_argument(
        "--policy",
        default="cost",
        choices=list(POLICY_NAMES),
        help="placement policy",
    )
    cluster.add_argument("--seed", type=_non_negative_int, default=42)
    cluster.add_argument("--horizon", type=float, default=60.0)
    cluster.add_argument(
        "--kill-node", default=None, metavar="NAME",
        help="crash this node mid-run (e.g. n1)",
    )
    cluster.add_argument("--kill-at", type=float, default=30.0)
    cluster.add_argument(
        "--recover-at", type=float, default=None,
        help="revive the killed node at this time",
    )
    cluster.add_argument(
        "--dispatch",
        default="push",
        choices=list(DISPATCH_MODES),
        help="binding policy: push places on arrival, pull late-binds "
        "through the task queue + matcher",
    )
    cluster.set_defaults(func=_cmd_cluster)

    sweep = subparsers.add_parser(
        "sweep",
        help="parallel placement-policy × seed sweep with a rollup table",
    )
    sweep.add_argument(
        "--policies",
        default="all",
        help="comma-separated placement policies, or 'all' "
        "(round-robin,least,cost,sla)",
    )
    sweep.add_argument(
        "--seeds",
        type=_non_negative_int,
        nargs="+",
        default=[42, 43, 44],
        help="seed replications per policy",
    )
    sweep.add_argument(
        "--workers",
        type=_positive_int,
        default=4,
        help="worker processes (1 = in-process serial execution)",
    )
    sweep.add_argument("--nodes", type=int, default=4)
    sweep.add_argument("--horizon", type=float, default=60.0)
    sweep.add_argument("--mpl", type=int, default=2)
    sweep.add_argument(
        "--dispatch",
        default="push",
        choices=list(DISPATCH_MODES),
        help="binding policy for every run in the sweep",
    )
    sweep.set_defaults(func=_cmd_sweep)

    backend = subparsers.add_parser(
        "backend",
        help="execute workloads on a real DBMS (in-process SQLite)",
    )
    backend.add_argument(
        "verb",
        choices=["run", "calibrate", "compare"],
        help="run a plan, fit a cost model from a trace, or compare "
        "sim vs real under admission + throttling policies",
    )
    backend.add_argument(
        "--workloads",
        default="oltp,bi",
        help="comma-separated canonical workloads (oltp, bi, reports, utilities)",
    )
    backend.add_argument("--horizon", type=float, default=60.0,
                         help="schedule horizon in schedule seconds")
    backend.add_argument("--seed", type=_non_negative_int, default=0)
    backend.add_argument("--mpl", type=int, default=4,
                         help="concurrent statements (worker threads)")
    backend.add_argument(
        "--time-scale", type=float, default=0.02,
        help="real seconds per schedule second (compression factor)",
    )
    backend.add_argument("--max-rate", type=float, default=None,
                         help="token-bucket cap in statements/second")
    backend.add_argument("--rows", type=int, default=10_000,
                         help="seeded table size")
    backend.add_argument("--statement-timeout", type=float, default=5.0,
                         help="per-statement wall-clock timeout in seconds")
    backend.add_argument("--max-statements", type=int, default=None,
                         help="truncate the plan after this many statements")
    backend.add_argument("--cost-limit", type=float, default=None,
                         help="admission: reject above this estimated cost")
    backend.add_argument("--max-outstanding", type=int, default=None,
                         help="admission: reject when this many outstanding")
    backend.add_argument(
        "--throttle-workloads", default="bi",
        help="workloads the sleep throttle applies to (comma-separated)",
    )
    backend.add_argument(
        "--sleep-fraction", type=float, default=0.0,
        help="constant-throttle sleep fraction in [0,1); 0 disables",
    )
    backend.add_argument("--trace-out", default=None, metavar="FILE",
                         help="write the captured QueryLog as JSON Lines")
    backend.add_argument("--trace-in", default=None, metavar="FILE",
                         help="trace to calibrate from (calibrate verb)")
    backend.set_defaults(func=_cmd_backend)

    scenario = subparsers.add_parser(
        "scenario",
        help="multi-tenant chaos scenarios and the survival report",
    )
    scenario.add_argument(
        "verb",
        choices=["run", "sweep", "report", "list"],
        help="run one scenario, sweep the matrix, render the survival "
        "report, or list scenarios and policies",
    )
    scenario.add_argument(
        "--name", default="noisy_neighbor",
        help="scenario name from the matrix (run verb)",
    )
    scenario.add_argument(
        "--policy", default="baseline",
        help="isolation policy name (run verb)",
    )
    scenario.add_argument(
        "--spec", default=None, metavar="FILE",
        help="load the scenario from a .json/.yaml spec file instead "
        "of the matrix (run verb)",
    )
    scenario.add_argument(
        "--exclude-noisy", action="store_true",
        help="drop the noisy tenants (the leakage companion run)",
    )
    scenario.add_argument("--seed", type=_non_negative_int, default=42)
    scenario.add_argument(
        "--seeds", type=_non_negative_int, nargs="+", default=[42],
        help="seed replications (sweep verb)",
    )
    scenario.add_argument(
        "--scenarios", default=None,
        help="comma-separated scenario subset (sweep verb)",
    )
    scenario.add_argument(
        "--policies", default=None,
        help="comma-separated policy subset (sweep verb)",
    )
    scenario.add_argument(
        "--workers", type=_positive_int, default=1,
        help="worker processes for sweep/report",
    )
    scenario.add_argument(
        "--json", default=None, metavar="FILE",
        help="sweep: write results JSON here; report: read results "
        "JSON from here instead of re-running",
    )
    scenario.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the survival report here instead of stdout",
    )
    scenario.set_defaults(func=_cmd_scenario)

    features = subparsers.add_parser("features", help="list feature names")
    features.set_defaults(func=_cmd_features)

    classify = subparsers.add_parser(
        "classify", help="classify a feature set against the taxonomy"
    )
    classify.add_argument("feature", nargs="+", help="Feature enum names")
    classify.set_defaults(func=_cmd_classify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A verb's ``ConfigurationError`` (unknown name, out-of-range value,
    malformed file) is one ``<verb> error:`` line on stderr and exit 2.
    """
    from repro.errors import ConfigurationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as error:
        print(f"{args.command} error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
