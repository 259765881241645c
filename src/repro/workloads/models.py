"""Workload models: cost distributions, request classes, arrival processes.

A :class:`WorkloadSpec` bundles what the paper calls a *workload* — "a
set of requests that have some common characteristics such as
application, source of request, type of query, business priority and/or
performance objectives" (§1) — into a generator-ready description:
request classes with cost distributions, an arrival process (open
Poisson or closed with think time, per Schroeder et al. [70]), session
origin attributes, and a business priority.

Requests are drawn a block at a time, as columns:
:meth:`WorkloadSpec.draw` is the one place a request's class, cost and
plan split are sampled — the simulator's generator and the backend
planner both read it — and its column-major draw order is the
determinism contract of every ``costs:*`` stream.  Each column is
bit-identical to that many sequential scalar draws
(:meth:`Distribution.sample`, which stays as the scalar primitive for
think times and as the tests' reference), so the order of draws is the
only thing a block changes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.engine.query import CostVector, QueryPlan, StatementType
from repro.engine.sessions import ConnectionAttributes


# ----------------------------------------------------------------------
# distributions
# ----------------------------------------------------------------------
class Distribution(abc.ABC):
    """A sampleable scalar distribution."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value."""

    @abc.abstractmethod
    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` values: bit-identical to ``n`` calls of :meth:`sample`."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Expected value (used by analytical MPL models)."""


@dataclass(frozen=True)
class Constant(Distribution):
    """Always returns ``value``."""

    value: float

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(self.value))

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential with the given mean (OLTP-ish service demands)."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError("mean must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_value))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self.mean_value, size=n)

    def mean(self) -> float:
        return self.mean_value


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Heavy-tailed log-normal (BI/DSS demands).

    Parameterized by the *median* and the log-space sigma, which is the
    natural way to say "typically 60 s, occasionally 10 minutes".
    """

    median: float
    sigma: float
    cap: Optional[float] = None     # optional truncation

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma < 0:
            raise ValueError("median must be > 0 and sigma >= 0")

    def sample(self, rng: np.random.Generator) -> float:
        value = float(self.median * np.exp(rng.normal(0.0, self.sigma)))
        if self.cap is not None:
            value = min(value, self.cap)
        return value

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = self.median * np.exp(rng.normal(0.0, self.sigma, size=n))
        if self.cap is not None:
            values = np.minimum(values, self.cap)
        return values

    def mean(self) -> float:
        mean = self.median * float(np.exp(self.sigma**2 / 2.0))
        if self.cap is not None:
            mean = min(mean, self.cap)
        return mean


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError("high must be >= low")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0


# ----------------------------------------------------------------------
# request classes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RequestClass:
    """A family of similar requests within a workload (paper §2.2 "what").

    ``cpu``/``io`` are distributions of device-seconds; ``memory_mb`` of
    working memory; ``locks`` of exclusive locks taken (0 for read-only
    classes); ``rows`` of result cardinality.  ``plan_shape`` names the
    operators of generated plans (used by progress/suspend machinery).
    """

    name: str
    cpu: Distribution
    io: Distribution
    memory_mb: Distribution = Constant(16.0)
    locks: Distribution = Constant(0.0)
    rows: Distribution = Constant(100.0)
    statement_type: StatementType = StatementType.READ
    plan_shape: Sequence[str] = ("scan", "join", "aggregate")
    operator_state_mb: float = 8.0
    #: database objects this class's queries access ("where" criteria)
    objects: Tuple[str, ...] = ()

    def _plan_template(self):
        """Cached (alpha, shape) for the class's plans.

        The Dirichlet alpha vector and the operator shape (names,
        blocking flags, state size) are properties of the class, not of
        the draw.
        """
        cached = self.__dict__.get("_plan_cache")
        if cached is None:
            names = tuple(self.plan_shape) or ("scan",)
            alpha = np.full(len(names), 2.0)
            blocking = tuple(
                name in ("sort", "hash-build", "aggregate") for name in names
            )
            cached = (alpha, (names, blocking, self.operator_state_mb))
            object.__setattr__(self, "_plan_cache", cached)
        return cached

    def plan(self, fractions: Sequence[float]) -> QueryPlan:
        """The class's named operators carrying one drawn work split
        (checked by :meth:`WorkloadSpec.draw`, not here)."""
        return QueryPlan.from_split(self._plan_template()[1], fractions)


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
class ArrivalProcess(abc.ABC):
    """How a workload's requests arrive over time."""

    @abc.abstractmethod
    def arrival_times(
        self, rng: np.random.Generator, horizon: float
    ) -> List[float]:
        """Pre-draw open-arrival times in [0, horizon); closed processes
        return only the initial submissions and reschedule on completion."""


@dataclass(frozen=True)
class OpenArrivals(ArrivalProcess):
    """Open system: Poisson arrivals at ``rate`` per second.

    Optionally modulated by ``phases`` — (start, rate) pairs that change
    the rate over time (used by the autonomic-loop experiments where the
    mix shifts mid-run).
    """

    rate: float
    phases: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be >= 0")

    def rate_at(self, time: float) -> float:
        rate = self.rate
        for start, phase_rate in self.phases:
            if time >= start:
                rate = phase_rate
        return rate

    def arrival_times(self, rng: np.random.Generator, horizon: float) -> List[float]:
        times: List[float] = []
        now = 0.0
        while True:
            rate = self.rate_at(now)
            if rate <= 0:
                # jump to the next phase boundary, if any
                upcoming = [s for s, _ in self.phases if s > now]
                if not upcoming:
                    break
                now = min(upcoming)
                continue
            now += float(rng.exponential(1.0 / rate))
            if now >= horizon:
                break
            times.append(now)
        return times


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally modulated Poisson arrivals (a compressed day).

    The instantaneous rate is ``base_rate * (1 + amplitude *
    sin(2π(t - phase)/period))`` — the diurnal curve every consolidated
    tenant rides.  Arrivals are drawn by thinning a homogeneous Poisson
    stream at the peak rate, which consumes the RNG in a fixed
    (candidate, acceptance) pattern and is therefore exactly as
    seed-deterministic as :class:`OpenArrivals`.
    """

    base_rate: float
    amplitude: float = 0.5
    period: float = 60.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rate < 0:
            raise ValueError("base_rate must be >= 0")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def rate_at(self, time: float) -> float:
        return self.base_rate * (
            1.0
            + self.amplitude
            * float(np.sin(2.0 * np.pi * (time - self.phase) / self.period))
        )

    def arrival_times(self, rng: np.random.Generator, horizon: float) -> List[float]:
        peak = self.base_rate * (1.0 + self.amplitude)
        if peak <= 0:
            return []
        times: List[float] = []
        now = 0.0
        while True:
            now += float(rng.exponential(1.0 / peak))
            if now >= horizon:
                break
            if float(rng.random()) * peak < self.rate_at(now):
                times.append(now)
        return times


@dataclass(frozen=True)
class ClosedArrivals(ArrivalProcess):
    """Closed system: ``population`` clients, each resubmitting after a
    think time when its previous request completes [70]."""

    population: int
    think_time: Distribution = Constant(1.0)

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError("population must be >= 1")

    def arrival_times(self, rng: np.random.Generator, horizon: float) -> List[float]:
        # Initial submissions only; the generator reschedules on completion.
        return [float(rng.uniform(0.0, 0.05)) for _ in range(self.population)]


@dataclass(frozen=True)
class BatchArrivals(ArrivalProcess):
    """A batch: ``count`` requests all present at ``at`` (report batches)."""

    count: int
    at: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")

    def arrival_times(self, rng: np.random.Generator, horizon: float) -> List[float]:
        if self.at >= horizon:
            return []
        return [self.at] * self.count


# ----------------------------------------------------------------------
# workload specification
# ----------------------------------------------------------------------
class QueryColumns(NamedTuple):
    """``n`` drawn requests, one python list per attribute.

    Row ``i`` across the columns is one request; ``zip(*columns)``
    iterates rows as ``(request_class, cpu_seconds, io_seconds,
    memory_mb, lock_count, rows, fractions)`` — the five cost fields in
    :class:`CostVector` order, then the work split
    :meth:`RequestClass.plan` takes.
    """

    request_class: List[RequestClass]
    cpu_seconds: List[float]
    io_seconds: List[float]
    memory_mb: List[float]
    lock_count: List[int]
    rows: List[int]
    fractions: List[List[float]]


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete, generator-ready workload description."""

    name: str
    request_classes: Sequence[Tuple[RequestClass, float]]  # (class, mix weight)
    arrivals: ArrivalProcess
    priority: int = 1
    session_attributes: ConnectionAttributes = field(
        default_factory=ConnectionAttributes
    )
    sessions: int = 4               # connections the workload spreads over

    def __post_init__(self) -> None:
        if not self.request_classes:
            raise ValueError(f"workload {self.name!r} has no request classes")
        if any(weight <= 0 for _, weight in self.request_classes):
            raise ValueError("mix weights must be positive")

    def _mix_template(self):
        """Cached (classes, mix CDF) for :meth:`draw`.

        The CDF is a property of the spec, not of the draw.  Inverting
        uniform draws against it is *identical* to
        ``rng.choice(n, p=weights / weights.sum())``: ``Generator.choice``
        with probabilities consumes exactly one ``rng.random()`` per pick
        and right-searches the renormalized CDF, which is what
        :meth:`draw` does (``tests/workloads`` pins the equivalence
        draw-for-draw).
        """
        cached = self.__dict__.get("_mix_cache")
        if cached is None:
            classes = tuple(cls for cls, _ in self.request_classes)
            weights = np.array(
                [w for _, w in self.request_classes], dtype=float
            )
            cdf = (weights / weights.sum()).cumsum()
            cdf /= cdf[-1]
            cached = (classes, cdf)
            object.__setattr__(self, "_mix_cache", cached)
        return cached

    def draw(self, rng: np.random.Generator, n: int) -> QueryColumns:
        """Draw ``n`` requests as columns, in a fixed column-major order.

        The order is the determinism contract of the stream ``rng`` is:
        ``n`` class picks first, then per request class in mix order —
        over the rows that picked it — its cpu, io, memory, locks and
        rows columns and its Dirichlet work splits.  Costs are clamped
        at zero, counts rounded to ints and splits renormalized here, on
        the arrays, so a row is ready for :class:`CostVector` and
        :meth:`RequestClass.plan` as it stands.
        """
        classes, cdf = self._mix_template()
        picks = cdf.searchsorted(rng.random(n), side="right")
        costs = np.empty((5, n))      # cpu, io, memory, locks, rows
        fractions: List[Optional[List[float]]] = [None] * n
        for class_index, cls in enumerate(classes):
            members = np.flatnonzero(picks == class_index)
            n_c = members.size
            for column, distribution in zip(
                costs, (cls.cpu, cls.io, cls.memory_mb, cls.locks, cls.rows)
            ):
                column[members] = distribution.sample_n(rng, n_c)
            split = rng.dirichlet(cls._plan_template()[0], size=n_c)
            # Normalize defensively against float drift, then check every
            # row once here: RequestClass.plan does not check its split.
            split /= split.sum(axis=1, keepdims=True)
            totals = split.sum(axis=1)
            sums_to_one = np.abs(totals - 1.0) <= 1e-6   # False on a NaN row too
            if not sums_to_one.all():
                raise ValueError(
                    f"plan work fractions sum to {totals[~sums_to_one][0]}, expected 1.0"
                )
            for row, row_split in zip(members.tolist(), split.tolist()):
                fractions[row] = row_split
        np.maximum(costs, 0.0, out=costs)
        cpu, io, memory = costs[:3].tolist()
        locks, rows = np.rint(costs[3:]).astype(np.int64).tolist()
        return QueryColumns(
            [classes[pick] for pick in picks.tolist()],
            cpu, io, memory, locks, rows, fractions,
        )

    def mean_cost(self) -> CostVector:
        """Mix-weighted mean cost (consumed by analytical MPL models)."""
        weights = np.array([w for _, w in self.request_classes], dtype=float)
        weights = weights / weights.sum()
        cpu = io = mem = locks = rows = 0.0
        for (cls, _), weight in zip(self.request_classes, weights):
            cpu += weight * cls.cpu.mean()
            io += weight * cls.io.mean()
            mem += weight * cls.memory_mb.mean()
            locks += weight * cls.locks.mean()
            rows += weight * cls.rows.mean()
        return CostVector(cpu, io, mem, int(round(locks)), int(round(rows)))
