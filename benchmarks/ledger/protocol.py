"""The measurement protocol, the same for every workload.

Every timed repetition carries a ``Meter`` (see ``calibration``): the
calibration kernel is spun at each phase boundary and, on the simulator
workloads, every ``SLICE_S`` of wall inside the run, and each piece of
the repetition is normalised by the two spins around it.

Per workload: timed repetitions until ``MAX_REPS`` or ``seconds`` of
wall (at least ``MIN_REPS``); then, when tracing is asked for, one
*traced* repetition and — for single-threaded workloads — one *counted*
repetition under ``cProfile``, both on a quiet meter.  End-to-end
metrics come from the timed (untraced) repetitions only; the traced one
gives the per-layer split and, against the untraced median, the tracing
overhead.

``us_per_completion`` is reported as an *undisturbed* cost.  The
program does the same work in piece ``k`` of every repetition of a seed,
so whatever a piece took beyond its fastest repetition was the host's
doing, and in a turbulent phase of the host every repetition has a few
such pieces: the median repetition then reads 24-39 % above a calm
phase on the cluster workloads (normalised!), the sum of the pieces'
minima 0-8 %.  ``undisturbed`` is that sum, with "minimum" made
independent of how many repetitions the window held: the mean, over
every choice of ``MIN_REPS`` of the repetitions, of the fastest among
them.  The median and quartiles of whole repetitions are reported
beside it, as the measure of how disturbed the run was.  A sum of some
260 minima is steady; one minimum is not: it is whichever repetition
had the slowest spins around the piece.  So ``setup_s`` (one piece) is
the median of the repetitions, and so is ``us_per_completion`` on the
threaded ``sqlite_replay``, whose run is one ~1 s piece (ten-seed spread
of its minimum 22 %, of its median 7 %).
"""

from __future__ import annotations

import cProfile
import gc
import resource
import statistics
from math import comb
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from .calibration import (
    CALIB_REF_S,
    END,
    REPORT,
    RUN,
    SETUP,
    Meter,
    phase_seconds,
    spin,
)
from .tracer import Tracer, seam_names, self_times
from .workloads import Result, Workload

#: Spins around a quiet (traced) repetition; their minimum on each side.
CALIB_SPINS = 3

#: The full command's window; ``--seconds`` shortens it.
FULL_WINDOW_S = 15.0
#: The fewest timed repetitions, and the number a piece's minimum is
#: taken over: a plain minimum over more repetitions is lower
#: (cluster_push_256: 1.23, 1.19, 1.16 and 1.12 normalised seconds over
#: 5, 7, 10 and 14), and how many fit the window depends on the host.
MIN_REPS = 7
MAX_REPS = 15

#: Seam self times must cover the traced run + report wall this closely.
COVERAGE_FLOOR = 0.98

#: The end-to-end metrics (all lower-is-better) and their units.
END_TO_END_UNITS = {
    "us_per_completion": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "share",
}

PER_COMPLETION = "1/completion"

#: The scalar per-layer metrics (the rest are two per seam).
SCALAR_UNITS = {
    "host.calls_per_completion": PER_COMPLETION,
    "host.raw_wall_s": "s",
    "host.calib_ms": "ms",
    "host.trace_overhead_share": "share",
    "report_s": "s",
    "engine.simulator.events_per_completion": PER_COMPLETION,
    "engine.simulator.scheduled_per_completion": PER_COMPLETION,
    "cluster.resubmissions": "count",
    "backends.stmt_p50_ms": "ms",
    "backends.stmt_p95_ms": "ms",
    "backends.max_lateness_ms": "ms",
    "backends.retries_per_completion": PER_COMPLETION,
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in reporting order."""
    units: Dict[str, str] = {}
    for seam in seam_names():
        units[f"{seam}.self_us"] = "us"
        units[f"{seam}.calls"] = PER_COMPLETION
    units.update(SCALAR_UNITS)
    return units


def calibrate(spins: int = CALIB_SPINS) -> float:
    """Seconds the kernel takes now: the minimum of ``spins`` spins."""
    return min(spin() for _ in range(spins))


def summary(values: Sequence[float], value: Optional[float] = None) -> Dict[str, float]:
    """The metric's ``value`` (the median unless given), and the median
    and quartiles (as ``statistics.quantiles(n=4)`` gives them) of the
    timed repetitions, and how many there were."""
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "value": median if value is None else value,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


class Repetition:
    """One repetition's result and normalised phase times.

    ``spin_s`` is what the kernel took around a repetition on a quiet
    meter; a spinning meter brings its own spins.
    """

    def __init__(self, result: Result, meter: Meter, spin_s: Optional[float] = None):
        self.result = result
        self.meter = meter
        self.calib_s = statistics.fmean(meter.spins()) if spin_s is None else spin_s
        # from the first mark to the last, the spins between them included
        self.raw_wall_s = meter.began(END) - meter.began(SETUP)
        self.pieces = meter.normalised_pieces(spin_s)
        seconds = phase_seconds(self.pieces)
        self.setup_s = seconds[SETUP]
        self.run_s = seconds[RUN]
        self.report_s = seconds[REPORT]

    @property
    def us_per_completion(self) -> float:
        return 1e6 * (self.run_s + self.report_s) / max(self.result.completed, 1)


def expected_minimum(values: Sequence[float], of: int = MIN_REPS) -> float:
    """The mean of ``min(chosen)`` over every choice of ``of`` of the
    ``values``: the i-th smallest is the minimum of C(n-1-i, of-1) of
    the C(n, of) choices."""
    count = len(values)
    return sum(
        value * comb(count - 1 - index, of - 1)
        for index, value in enumerate(sorted(values))
    ) / comb(count, of)


def undisturbed(reps: Sequence[Repetition]) -> float:
    """Normalised run + report seconds with every piece at its expected
    fastest of ``MIN_REPS`` repetitions (the repetitions must have the
    same pieces)."""
    return sum(
        expected_minimum([value for _, value in pieces])
        for pieces in zip(*(rep.pieces for rep in reps))
        if pieces[0][0] != SETUP
    )


def timed_repetitions(
    workload: Workload, seed: int, seconds: float
) -> List[Repetition]:
    """Untraced repetitions, each on a spinning meter of its own."""
    reps: List[Repetition] = []
    began = perf_counter()
    while len(reps) < MAX_REPS and (
        len(reps) < MIN_REPS or perf_counter() - began < seconds
    ):
        gc.collect()
        meter = Meter()
        reps.append(Repetition(workload.repetition(seed, meter), meter))
    return reps


def traced_repetition(
    workload: Workload, seed: int
) -> Tuple[Repetition, Tracer]:
    """One repetition with the seam table installed, then restored."""
    tracer = Tracer()
    meter = Meter(quiet=True)
    before = calibrate()
    gc.collect()
    with tracer:
        result = workload.repetition(seed, meter)
    return Repetition(result, meter, (before + calibrate()) / 2.0), tracer


def counted_repetition(workload: Workload, seed: int) -> Tuple[Result, int]:
    """One repetition under ``cProfile``: the exact number of
    interpreter-level calls (Python and builtin) it makes."""
    profiler = cProfile.Profile()
    gc.collect()
    result = profiler.runcall(workload.repetition, seed, Meter(quiet=True))
    return result, sum(entry.callcount for entry in profiler.getstats())


def coverage(traced: Repetition, tracer: Tracer) -> float:
    """Share of the traced run + report wall the seams' self times
    account for (spans that start in those two phases)."""
    run_start, end = traced.meter.began(RUN), traced.meter.began(END)
    covered = sum(
        self_s
        for spans in tracer.threads()
        for self_s, _ in self_times(spans, since=run_start).values()
    )
    return covered / (end - run_start)


def verify(results: Sequence[Result]) -> List[str]:
    """Why these repetitions' outputs are wrong (empty = correct)."""
    problems = []
    first = results[0]
    for index, result in enumerate(results):
        if result.digest != first.digest:
            problems.append(
                f"repetition {index}: digest {result.digest[:12]} != "
                f"{first.digest[:12]}"
            )
        if result.counters != first.counters:
            problems.append(
                f"repetition {index}: completed/submitted/events "
                f"{result.counters} != {first.counters}"
            )
        if not result.balanced:
            problems.append(
                f"repetition {index}: conservation broken: submitted "
                f"{result.submitted} != completed {result.completed} + rejected "
                f"{result.rejected} + killed {result.killed} + in-flight "
                f"{result.in_flight} (or a per-tenant / plan check failed)"
            )
    return problems


def per_layer(
    reps: Sequence[Repetition],
    traced: Repetition,
    tracer: Tracer,
    counted_calls: Optional[int],
) -> Dict[str, Optional[float]]:
    """The per-layer metrics (``None`` = not measurable here)."""
    result = traced.result
    completed = max(result.completed, 1)
    to_reference = CALIB_REF_S / traced.calib_s
    metrics: Dict[str, Optional[float]] = {}
    for name, total in tracer.totals().items():
        if total is None:
            metrics[f"{name}.self_us"] = metrics[f"{name}.calls"] = None
        else:
            self_s, calls = total
            metrics[f"{name}.self_us"] = 1e6 * self_s * to_reference / completed
            metrics[f"{name}.calls"] = calls / completed
    untraced = statistics.median(r.run_s + r.report_s for r in reps)

    def output(name: str) -> float:
        """A workload output, as the untraced repetitions measured it."""
        return statistics.median(r.result.extras.get(name, 0.0) for r in reps)

    metrics.update({
        "host.calls_per_completion": (
            None if counted_calls is None else counted_calls / completed
        ),
        "host.raw_wall_s": statistics.median(r.raw_wall_s for r in reps),
        "host.calib_ms": 1e3 * statistics.median(r.calib_s for r in reps),
        "host.trace_overhead_share": (
            (traced.run_s + traced.report_s) / untraced - 1.0
        ),
        "report_s": statistics.median(r.report_s for r in reps),
        "engine.simulator.events_per_completion": result.events / completed,
        "engine.simulator.scheduled_per_completion": tracer.scheduled / completed,
        "cluster.resubmissions": output("resubmissions"),
        "backends.stmt_p50_ms": output("stmt_p50_ms"),
        "backends.stmt_p95_ms": output("stmt_p95_ms"),
        "backends.max_lateness_ms": output("max_lateness_ms"),
        "backends.retries_per_completion": output("retries") / completed,
    })
    return metrics


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    trace_path=None,
) -> dict:
    """Run the protocol for one workload in this process.

    Returns the workload's ledger entry: ``end_to_end`` (value, median,
    quartiles and n per metric), ``per_layer`` (``None`` unless traced),
    counters, digest, and ``problems`` (empty = outputs verified).
    """
    reps = timed_repetitions(workload, seed, seconds)
    # the threaded workload's run is one piece: its value is the median
    floor = undisturbed(reps) if workload.single_threaded else None
    # the high-water mark of the untraced repetitions only: spans and
    # the profiler's tables must not count against the program
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = [rep.result for rep in reps]
    first = results[0]
    failed_share = (first.submitted - first.completed) / max(first.submitted, 1)
    entry = {
        "workload": workload.name,
        "seed": seed,
        "threads": workload.threads,
        "digest": first.digest,
        "submitted": first.submitted,
        "completed": first.completed,
        "rejected": first.rejected,
        "killed": first.killed,
        "in_flight": first.in_flight,
        "failed": sum(result.failed for result in results),
        "attempted": sum(result.submitted for result in results),
        "events": first.events,
        "outputs": first.extras,
        "end_to_end": {
            "us_per_completion": summary(
                [r.us_per_completion for r in reps],
                floor and 1e6 * floor / max(first.completed, 1),
            ),
            "setup_s": summary([r.setup_s for r in reps]),
            "peak_rss_mb": summary([peak_rss_mb]),
            "failed_share": summary([failed_share]),
        },
        "per_layer": None,
        "missing_seams": [],
        "missing_targets": [],
    }
    if trace:
        traced, tracer = traced_repetition(workload, seed)
        results.append(traced.result)
        counted_calls = None
        if workload.single_threaded:
            counted, counted_calls = counted_repetition(workload, seed)
            results.append(counted)
        entry["per_layer"] = per_layer(reps, traced, tracer, counted_calls)
        entry["missing_seams"] = list(tracer.missing)
        entry["missing_targets"] = list(tracer.missing_targets)
        entry["trace_coverage"] = coverage(traced, tracer)
        if trace_path is not None:
            entry["trace_spans"] = tracer.write_jsonl(
                trace_path,
                {
                    "workload": workload.name,
                    "seed": seed,
                    "marks_s": [
                        traced.meter.began(phase)
                        for phase in (SETUP, RUN, REPORT, END)
                    ],
                    "calib_s": traced.calib_s,
                },
            )
    entry["problems"] = verify(results)
    shapes = {tuple(phase for phase, _ in rep.pieces) for rep in reps}
    if len(shapes) > 1:
        entry["problems"].append(
            "the repetitions do not have the same pieces: "
            f"{sorted(len(shape) for shape in shapes)}"
        )
    # threads overlap, so only a single thread's self times add up to wall
    if (
        trace
        and workload.single_threaded
        and entry["trace_coverage"] < COVERAGE_FLOOR
    ):
        entry["problems"].append(
            f"seam self times cover only {entry['trace_coverage']:.1%} of "
            "the traced run + report wall"
        )
    return entry
