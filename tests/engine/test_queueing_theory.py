"""The engine agrees with queueing theory where theory is exact.

A seeded digest says a run is *unchanged*, not that it is *right*.  These
checks hold the engine's weighted fair sharing against closed forms that
do not depend on how it is implemented:

* **Open and insensitive.**  CPU-only costs, ample memory, no locks and
  equal weights on ``MachineSpec(cpu_capacity=c)``: each of ``n`` running
  queries gets ``min(1, c/n)`` cores, a symmetric queue, so the mean
  response time is the M/M/c one (Erlang C) for *any* service
  distribution.
* **Closed.**  ``N`` clients with exponential think time ``Z`` on the same
  machine are the machine-repairman model; its throughput is exact
  load-dependent mean value analysis.
* **Operational laws.**  On the ``closed_mpl8`` shape (a manager, an MPL
  of 8, 32 clients) the response-time law ``R = N/X - Z`` holds up to the
  clients' in-flight cycles, and Little's law ``L = λW`` holds up to the
  requests in flight at the horizon.
* **Weighted and capped.**  Under saturation two weight classes split the
  machine ``w1 : w2`` (reprioritization, paper Table 3), and a throttle
  ``s`` caps a query's speed at ``s`` (§4.2.2).

Every statistical check runs one replication per seed and requires the
closed form inside the 99 % Student-t interval of the replications' mean,
and the interval to be narrow enough to mean something.
"""

from __future__ import annotations

import math
import statistics
from functools import partial

import pytest

from repro.core.manager import FCFSDispatcher, WorkloadManager
from repro.engine.executor import CompletionOutcome, ExecutionEngine
from repro.engine.query import QueryState
from repro.engine.resources import MachineSpec
from repro.engine.simulator import Simulator
from repro.workloads.generator import Scenario
from repro.workloads.models import (
    ClosedArrivals,
    Constant,
    Exponential,
    LogNormal,
    RequestClass,
    Uniform,
    WorkloadSpec,
)
from tests.conftest import make_query

SEEDS = tuple(range(1, 9))
#: Student t quantile, two-sided 99 %, 7 degrees of freedom (8 seeds)
T99 = 3.499
#: an interval wider than this share of its mean checks nothing
MAX_HALF_WIDTH = 0.5

#: unit-mean service distributions: the M/M/c answer holds for each
SERVICE = {
    "constant": Constant(1.0),
    "exponential": Exponential(1.0),
    "lognormal": LogNormal(median=math.exp(-0.5), sigma=1.0),
}


def interval(samples):
    """Mean and 99 % half-width of per-seed replications."""
    mean = statistics.fmean(samples)
    return mean, T99 * statistics.stdev(samples) / math.sqrt(len(samples))


def assert_inside(samples, expected, what):
    mean, half = interval(samples)
    assert half <= MAX_HALF_WIDTH * abs(expected), (
        f"{what}: interval ±{half:.4g} too wide around {mean:.4g} to check {expected:.4g}"
    )
    assert abs(mean - expected) <= half, (
        f"{what}: closed form {expected:.6g} outside {mean:.6g} ± {half:.4g}"
    )


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------
def erlang_c_response(c: int, arrival_rate: float, mean_service: float) -> float:
    """Mean response time of M/M/c (Erlang C wait plus service)."""
    a = arrival_rate * mean_service
    rho = a / c
    term = a**c / math.factorial(c) / (1.0 - rho)
    wait_probability = term / (sum(a**k / math.factorial(k) for k in range(c)) + term)
    return mean_service + wait_probability * mean_service / (c * (1.0 - rho))


def mva_throughput(population: int, think: float, mean_service: float, c: int) -> float:
    """Exact load-dependent MVA of the machine-repairman model: ``N``
    clients, think time ``Z``, one station serving ``min(n, c)`` at once."""
    marginal = [1.0]  # P(j at the station | n clients), n = 0
    throughput = 0.0
    for n in range(1, population + 1):
        response = sum(
            j * mean_service / min(j, c) * marginal[j - 1] for j in range(1, n + 1)
        )
        throughput = n / (think + response)
        busy = [throughput * mean_service / min(j, c) * marginal[j - 1] for j in range(1, n + 1)]
        marginal = [1.0 - sum(busy)] + busy
    return throughput


def test_the_closed_forms_agree_with_their_textbook_values():
    # M/M/1 at ρ = 0.5: 1/(μ - λ) = 2
    assert erlang_c_response(1, 0.5, 1.0) == pytest.approx(2.0)
    # M/M/2 at λ = 1, μ = 1: W = 4/3
    assert erlang_c_response(2, 1.0, 1.0) == pytest.approx(4.0 / 3.0)
    # one client never queues: X = 1/(Z + S)
    assert mva_throughput(1, 3.0, 1.0, 2) == pytest.approx(0.25)
    # the repairman is a birth-death chain: its product form is exact too
    for population, c in [(6, 1), (24, 8), (40, 4)]:
        rates = [1.0]
        for n in range(1, population + 1):
            rates.append(rates[-1] * (population - n + 1) / 4.0 / min(n, c))
        busy = sum(p * min(n, c) for n, p in enumerate(rates)) / sum(rates)
        assert mva_throughput(population, 4.0, 1.0, c) == pytest.approx(busy, rel=1e-9)


# ----------------------------------------------------------------------
# the engine, driven directly
# ----------------------------------------------------------------------
def _engine(seed: int, c: int):
    sim = Simulator(seed)
    machine = MachineSpec(cpu_capacity=float(c), disk_capacity=float(c), memory_mb=1e9)
    return sim, ExecutionEngine(sim, machine)


def _start(engine: ExecutionEngine, query, weight: float = 1.0) -> None:
    query.transition(QueryState.SUBMITTED)
    query.submit_time = engine.sim.now
    engine.start(query, weight)


def _open_mean_response(seed: int, service, c: int, rho: float, customers: int) -> float:
    """Mean response time of ``customers`` Poisson arrivals at load ``rho``,
    run until the last one leaves (complete busy cycles: no truncation)."""
    sim, engine = _engine(seed, c)
    rate = rho * c / service.mean()
    gaps = sim.rng("arrivals").exponential(1.0 / rate, size=customers)
    demands = service.sample_n(sim.rng("service"), customers)
    responses = []

    def record(query, outcome):
        assert outcome is CompletionOutcome.COMPLETED
        responses.append(query.end_time - query.submit_time)

    engine.on_exit(record)
    instant = 0.0
    for gap, demand in zip(gaps.tolist(), demands.tolist()):
        instant += gap
        query = make_query(cpu=demand, io=0.0, mem=0.0)
        sim.schedule_at(instant, partial(_start, engine, query), "arrival:")
    sim.run()
    assert len(responses) == customers
    return statistics.fmean(responses)


@pytest.mark.parametrize("c", [1, 8])
@pytest.mark.parametrize("rho", [0.5, 0.8, 0.95])
@pytest.mark.parametrize("service", sorted(SERVICE))
def test_open_processor_sharing_is_insensitive_erlang_c(service, rho, c):
    # heavier load relaxes more slowly: more customers per replication
    customers = {0.5: 600, 0.8: 2_000, 0.95: 4_000}[rho]
    dist = SERVICE[service]
    samples = [
        _open_mean_response(seed, dist, c, rho, customers) for seed in SEEDS
    ]
    expected = erlang_c_response(c, rho * c / dist.mean(), dist.mean())
    assert_inside(samples, expected, f"M/G/{c}-PS {service} ρ={rho}")


def _closed_throughput(seed: int, population: int, think: float, c: int, horizon: float) -> float:
    """Completions per second of ``population`` clients over the second
    half of ``horizon`` (the first half is warm-up)."""
    sim, engine = _engine(seed, c)
    think_rng, service_rng = sim.rng("think"), sim.rng("service")
    warm = horizon / 2.0
    done = []

    def submit():
        demand = float(service_rng.exponential(1.0))
        _start(engine, make_query(cpu=demand, io=0.0, mem=0.0))

    def record(query, outcome):
        if sim.now >= warm:
            done.append(sim.now)
        sim.schedule(float(think_rng.exponential(think)), submit, "think:")

    engine.on_exit(record)
    for _ in range(population):
        sim.schedule(float(think_rng.exponential(think)), submit, "think:")
    sim.run_until(horizon)
    return len(done) / (horizon - warm)


@pytest.mark.parametrize("population,c", [(6, 1), (24, 8)])
def test_closed_machine_repairman_matches_exact_mva(population, c):
    think = 4.0
    samples = [_closed_throughput(seed, population, think, c, 800.0) for seed in SEEDS]
    expected = mva_throughput(population, think, 1.0, c)
    assert_inside(samples, expected, f"repairman N={population} c={c}")


# ----------------------------------------------------------------------
# the operational laws on the closed_mpl8 shape
# ----------------------------------------------------------------------
_MACHINE = MachineSpec(cpu_capacity=4.0, disk_capacity=2.0, memory_mb=2048.0)
_THINK = 0.01


def _closed_mpl8(seed: int, horizon: float):
    """32 clients, MPL 8, the ledger's micro-jobs.  Returns the manager,
    the submit and exit instants of every request, and the time integral
    of the manager's own count of outstanding work."""
    sim = Simulator(seed)
    manager = WorkloadManager(
        sim, machine=_MACHINE, scheduler=FCFSDispatcher(max_concurrency=8)
    )
    job = RequestClass(
        name="job",
        cpu=Exponential(0.012),
        io=Exponential(0.024),
        memory_mb=Uniform(4.0, 16.0),
        rows=Constant(1_000),
    )
    spec = WorkloadSpec(
        name="closed",
        request_classes=((job, 1.0),),
        arrivals=ClosedArrivals(population=32, think_time=Constant(_THINK)),
        priority=1,
    )
    submits, exits = {}, {}
    # L: the outstanding-work count, integrated exactly as a step function
    area = [0.0, 0.0, 0]  # integral, last change instant, level

    def step():
        area[0] += area[2] * (sim.now - area[1])
        area[1] = sim.now

    def submit(query):
        step()
        submits[query.query_id] = sim.now
        manager.submit(query)
        area[2] = manager.outstanding_work()

    def record(query):
        step()
        exits[query.query_id] = sim.now
        area[2] = manager.outstanding_work()

    generator = Scenario(specs=(spec,), horizon=horizon).build(
        sim, submit, sessions=manager.sessions
    )
    manager.add_completion_listener(record)
    manager.add_completion_listener(generator.notify_done)
    manager.run(horizon, drain=0.0)
    step()
    return manager, submits, exits, area[0]


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_response_time_law_and_littles_law_on_the_closed_mpl8_shape(seed):
    horizon = 20.0
    manager, submits, exits, area = _closed_mpl8(seed, horizon)
    responses = [exits[qid] - submits[qid] for qid in exits]
    completed = len(responses)
    assert completed > 1_000
    mean_r = statistics.fmean(responses)
    throughput = completed / horizon
    # R = N/X - Z: each client's cycles tile the horizon except its one
    # cycle in flight at the end and its first think, at most one
    # longest cycle each
    longest = max(responses) + _THINK
    assert abs(32 / throughput - _THINK - mean_r) <= 2 * 32 * longest / completed
    # L = λW: the integral counts the in-flight requests' time as well
    in_flight = [horizon - submits[qid] for qid in submits if qid not in exits]
    assert len(in_flight) == manager.outstanding_work() <= 32
    assert area / horizon == pytest.approx(
        throughput * mean_r + sum(in_flight) / horizon, rel=1e-9
    )
    assert abs(area / horizon - throughput * mean_r) <= 32 * longest / horizon


# ----------------------------------------------------------------------
# weighted and capped
# ----------------------------------------------------------------------
@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
def test_two_weight_classes_split_a_saturated_machine_by_weight(weights):
    """Per seed: 12 long CPU-only queries per class on 4 cores.  Over the
    first second (nobody finishes) class k gets w_k/(w_1+w_2) of the cores
    whatever its queries' sizes."""
    shares = []
    for seed in SEEDS:
        sim, engine = _engine(seed, 4)
        rng = sim.rng("service")
        classes = []
        for weight in weights:
            queries = [make_query(cpu=float(d), io=0.0, mem=0.0) for d in rng.uniform(50, 100, 12)]
            for query in queries:
                _start(engine, query, weight)
            classes.append(queries)
        sim.run_until(1.0)
        work = [
            sum(engine.progress_of(q.query_id) * q.true_cost.cpu_seconds for q in queries)
            for queries in classes
        ]
        assert sum(work) == pytest.approx(4.0, rel=1e-9)  # saturated
        shares.append(work[0] / sum(work))
    expected = weights[0] / sum(weights)
    assert shares == pytest.approx([expected] * len(SEEDS), rel=1e-9)


@pytest.mark.parametrize("throttle", [0.1, 0.25, 0.5, 0.9])
def test_a_throttle_caps_speed_at_its_factor(throttle):
    """Alone on an idle machine a throttled query runs at exactly its
    throttle, and a crowd that cannot saturate the machine does too."""
    for seed in SEEDS:
        sim, engine = _engine(seed, 8)
        demands = sim.rng("service").uniform(0.5, 2.0, 4).tolist()
        queries = [make_query(cpu=d, io=0.0, mem=0.0) for d in demands]
        for query in queries:
            _start(engine, query)
            engine.set_throttle(query.query_id, throttle)
        finished = {}
        engine.on_exit(lambda q, outcome: finished.setdefault(q.query_id, sim.now))
        sim.run_until(0.25)
        for query, demand in zip(queries, demands):
            # progress per second: the throttle over the unloaded duration
            assert engine.speed_of(query.query_id) * demand == pytest.approx(throttle, rel=1e-12)
        sim.run()
        for query, demand in zip(queries, demands):
            assert finished[query.query_id] == pytest.approx(demand / throttle, rel=1e-9)
