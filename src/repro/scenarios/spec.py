"""Declarative scenario specifications (the suite's data model).

A :class:`ScenarioSpec` is a pure-data description of a multi-tenant
consolidation story: tenants with arrival patterns, class mixes, SLAs,
priorities, share weights and admission quotas, plus an optional
deterministic chaos timeline.  Specs are plain frozen dataclasses with
``as_dict``/``from_dict`` round-tripping, so they load from JSON with
the stdlib and from YAML when PyYAML happens to be installed
(:func:`load_scenario_file` gates the import — the stdlib-only
environment stays fully functional, it just speaks JSON).

Tenant naming convention: every workload a tenant runs is registered
as ``tenant/label`` (so generated queries carry ``tenant/label:class``
sql tags), which is what the tenant extractors across the stack —
:func:`repro.cluster.dispatcher.tenant_key`, the tenant-keyed task
queue and :class:`repro.scheduling.queues.TenantShareScheduler` — key on.
A scenario's untenanted ``workloads`` are registered by bare ``label``:
they belong to no tenant, and their generator RNG streams are the ones
a hand-built ``Scenario`` of the same workload names would draw.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.cluster.dispatcher import FaultEvent, FaultKind
from repro.errors import ConfigurationError
from repro.workloads.generator import WORKLOAD_BUILDERS
from repro.workloads.models import (
    ArrivalProcess,
    BatchArrivals,
    ClosedArrivals,
    Constant,
    DiurnalArrivals,
    OpenArrivals,
    WorkloadSpec,
)

#: Arrival pattern kinds an :class:`ArrivalSpec` can describe.
ARRIVAL_KINDS = ("open", "diurnal", "batch", "closed")

#: Canonical workload shapes a :class:`WorkloadPattern` can reference.
WORKLOAD_KINDS = tuple(WORKLOAD_BUILDERS)


@dataclass(frozen=True)
class ArrivalSpec:
    """A declarative arrival pattern, buildable into an ArrivalProcess.

    ``kind`` selects the process; the other fields are interpreted per
    kind (unused ones are ignored):

    * ``open`` — Poisson at ``rate``, optionally stepped by ``phases``
      (``(start, rate)`` pairs — flash crowds are two phases: onset to
      ``rate × burst`` and recovery back);
    * ``diurnal`` — sinusoidal Poisson: ``rate`` is the base, plus
      ``amplitude``, ``period``, ``phase``;
    * ``batch`` — ``count`` requests all present at ``at`` (report
      windows, maintenance storms);
    * ``closed`` — ``population`` clients with constant ``think_time``.
    """

    kind: str = "open"
    rate: float = 1.0
    phases: Tuple[Tuple[float, float], ...] = ()
    amplitude: float = 0.5
    period: float = 60.0
    phase: float = 0.0
    count: int = 0
    at: float = 0.0
    population: int = 1
    think_time: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ConfigurationError(
                f"unknown arrival kind {self.kind!r}; one of {ARRIVAL_KINDS}"
            )

    def build(self) -> ArrivalProcess:
        if self.kind == "open":
            return OpenArrivals(
                rate=self.rate,
                phases=tuple((float(s), float(r)) for s, r in self.phases),
            )
        if self.kind == "diurnal":
            return DiurnalArrivals(
                base_rate=self.rate,
                amplitude=self.amplitude,
                period=self.period,
                phase=self.phase,
            )
        if self.kind == "batch":
            return BatchArrivals(count=self.count, at=self.at)
        return ClosedArrivals(
            population=self.population, think_time=Constant(self.think_time)
        )

    @staticmethod
    def flash_crowd(
        rate: float, onset: float, end: float, burst: float = 4.0
    ) -> "ArrivalSpec":
        """An open stream that spikes to ``rate × burst`` in [onset, end)."""
        return ArrivalSpec(
            kind="open",
            rate=rate,
            phases=((onset, rate * burst), (end, rate)),
        )


@dataclass(frozen=True)
class SLASpec:
    """Response-time SLA targets for one tenant workload."""

    average: Optional[float] = None
    p95: Optional[float] = None
    importance: int = 1

    @property
    def has_goals(self) -> bool:
        return self.average is not None or self.p95 is not None


@dataclass(frozen=True)
class WorkloadPattern:
    """One tenant workload: canonical shape + arrivals + SLA + priority.

    ``kind`` picks the canonical builder (OLTP transactions, BI scans,
    report batches, maintenance utilities); ``params`` are forwarded to
    it (sorted tuple pairs, so patterns stay hashable and
    digest-stable); the built spec's arrivals and priority are then
    replaced with this pattern's.  ``label`` defaults to ``kind`` and
    becomes the ``tenant/label`` workload name.
    """

    kind: str
    arrival: ArrivalSpec
    label: str = ""
    priority: int = 2
    sla: Optional[SLASpec] = None
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; one of {WORKLOAD_KINDS}"
            )
        if "/" in self.label or ":" in self.label:
            raise ConfigurationError(
                f"workload label {self.label!r} may not contain '/' or ':'"
            )

    @property
    def effective_label(self) -> str:
        return self.label or self.kind

    def name_for(self, tenant: str = "") -> str:
        label = self.effective_label
        return f"{tenant}/{label}" if tenant else label

    def build(self, tenant: str = "") -> WorkloadSpec:
        """The generator-ready spec named ``tenant/label``."""
        spec = WORKLOAD_BUILDERS[self.kind](**dict(self.params))
        return replace(
            spec,
            name=self.name_for(tenant),
            arrivals=self.arrival.build(),
            priority=self.priority,
        )


def _require_unique_labels(
    owner: str, workloads: Tuple[WorkloadPattern, ...]
) -> None:
    labels = [pattern.effective_label for pattern in workloads]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(
            f"{owner} has duplicate workload labels {labels}"
        )


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: its workloads plus its isolation entitlements.

    ``share`` is the tenant's weight for node-tier MPL reservations and
    pull-mode queue shares; ``quota`` its cluster-tier admission bound
    (``None`` = unbounded); ``noisy`` marks the antagonist tenants that
    the leakage companion run removes.
    """

    name: str
    workloads: Tuple[WorkloadPattern, ...]
    share: float = 1.0
    quota: Optional[int] = None
    noisy: bool = False

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or ":" in self.name:
            raise ConfigurationError(
                f"tenant name {self.name!r} must be non-empty without '/' or ':'"
            )
        if not self.workloads:
            raise ConfigurationError(f"tenant {self.name!r} has no workloads")
        if self.share <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r} share must be > 0, got {self.share}"
            )
        if self.quota is not None and self.quota < 0:
            raise ConfigurationError(
                f"tenant {self.name!r} quota must be >= 0 or None"
            )
        _require_unique_labels(f"tenant {self.name!r}", self.workloads)


@dataclass(frozen=True)
class ChaosSpec:
    """A deterministic chaos timeline bound into the scenario.

    ``crash_waves`` evenly spaced waves each take out a rotating
    ``kill_fraction`` slice of the cluster for ``outage`` of the
    horizon, then revive it; ``degrade`` adds ``(time, node_index,
    factor)`` slow-downs, each ended ``degrade_recovery`` of the horizon
    later by a ``DEGRADE`` back to factor 1.0 (a crash wave inside the
    window leaves the slow-down in place); ``crashes`` adds ``(at,
    node_name, recover_at | None)`` kills of one named node, both times
    as fractions of the horizon (``None`` leaves it down).  Everything
    is a pure function of the spec, so chaos runs are exactly as
    digest-stable as clean ones.
    """

    crash_waves: int = 0
    kill_fraction: float = 0.125
    outage: float = 0.15
    degrade: Tuple[Tuple[float, int, float], ...] = ()
    degrade_recovery: float = 0.25
    crashes: Tuple[Tuple[float, str, Optional[float]], ...] = ()

    def __post_init__(self) -> None:
        if self.crash_waves < 0:
            raise ConfigurationError("crash_waves must be >= 0")
        if not 0.0 < self.kill_fraction <= 1.0:
            raise ConfigurationError("kill_fraction must be in (0, 1]")
        for at, node, recover_at in self.crashes:
            if not 0.0 <= at <= 1.0:
                raise ConfigurationError(
                    f"crash of {node!r} at {at} of the horizon: must be in [0, 1]"
                )
            if recover_at is not None and recover_at <= at:
                raise ConfigurationError(
                    f"crash of {node!r} at {at} must recover later, not at "
                    f"{recover_at}"
                )

    @property
    def active(self) -> bool:
        return self.crash_waves > 0 or bool(self.degrade or self.crashes)

    def build_plan(self, nodes: int, horizon: float) -> Tuple[FaultEvent, ...]:
        """The scenario's faults, sorted (empty when chaos is inactive).

        Faults at one instant fire in ``(node, kind)`` order whichever
        field declared them.
        """
        latest = horizon * 0.98
        events: List[FaultEvent] = []
        kill_count = max(1, int(nodes * self.kill_fraction))
        for wave in range(self.crash_waves):
            at = horizon * (wave + 1) / (self.crash_waves + 1)
            recover_at = min(latest, at + self.outage * horizon)
            for slot in range(kill_count):
                events += _node_kill(f"n{(wave * kill_count + slot) % nodes}", at, recover_at)
        for at_fraction, node_index, factor in self.degrade:
            name = f"n{node_index % max(nodes, 1)}"
            at = at_fraction * horizon
            events.append(FaultEvent(at, name, FaultKind.DEGRADE, factor=factor))
            end_at = min(latest, at + self.degrade_recovery * horizon)
            events.append(FaultEvent(end_at, name, FaultKind.DEGRADE, factor=1.0))
        for at, name, recover_at in self.crashes:
            events += _node_kill(
                name,
                at * horizon,
                None if recover_at is None else recover_at * horizon,
            )
        events.sort(key=lambda e: (e.time, e.node, e.kind.value))
        return tuple(events)


def _node_kill(node: str, at: float, recover_at: Optional[float]) -> List[FaultEvent]:
    """Kill one node at ``at``; revive it at ``recover_at`` unless ``None``."""
    events = [FaultEvent(at, node, FaultKind.CRASH)]
    if recover_at is not None:
        events.append(FaultEvent(recover_at, node, FaultKind.RECOVER))
    return events


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete scenario: tenants and/or untenanted workloads +
    cluster + chaos.

    ``workloads`` belong to no tenant (no share, no quota; one
    ``<untenanted>`` ledger bucket).  ``speeds`` makes the cluster
    heterogeneous: node ``i`` runs at ``speeds[i % len(speeds)]`` of
    full speed; empty means every node at full speed.
    """

    name: str
    tenants: Tuple[TenantSpec, ...] = ()
    description: str = ""
    horizon: float = 60.0
    nodes: int = 4
    mpl: int = 6
    max_queue_depth: Optional[int] = None
    chaos: ChaosSpec = field(default_factory=ChaosSpec)
    workloads: Tuple[WorkloadPattern, ...] = ()
    speeds: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.tenants and not self.workloads:
            raise ConfigurationError(
                f"scenario {self.name!r} has no tenants and no workloads"
            )
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"scenario {self.name!r} has duplicate tenants {names}"
            )
        _require_unique_labels(f"scenario {self.name!r}", self.workloads)
        if self.horizon <= 0:
            raise ConfigurationError(f"horizon must be > 0, got {self.horizon}")
        if self.nodes < 1:
            raise ConfigurationError("a scenario needs at least one node")
        if self.mpl < 1:
            raise ConfigurationError("mpl must be >= 1")
        if not all(0.0 < speed <= 1.0 for speed in self.speeds):
            raise ConfigurationError(
                f"node speeds must be in (0, 1], got {self.speeds}"
            )

    def patterns(self) -> Iterator[Tuple[str, WorkloadPattern]]:
        """``(tenant name, pattern)`` for every workload in declaration
        order; the untenanted ones come last, under ``""``."""
        for tenant in self.tenants:
            for pattern in tenant.workloads:
                yield tenant.name, pattern
        for pattern in self.workloads:
            yield "", pattern

    def tenant(self, name: str) -> TenantSpec:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(name)

    def shares(self) -> Dict[str, float]:
        return {tenant.name: tenant.share for tenant in self.tenants}

    def quotas(self) -> Dict[str, int]:
        return {
            tenant.name: tenant.quota
            for tenant in self.tenants
            if tenant.quota is not None
        }

    def without_noisy(self) -> "ScenarioSpec":
        """The leakage companion: same scenario, antagonists removed."""
        quiet = tuple(t for t in self.tenants if not t.noisy)
        if len(quiet) == len(self.tenants) or not quiet:
            return self
        return replace(self, tenants=quiet)

    @property
    def has_noisy(self) -> bool:
        return any(tenant.noisy for tenant in self.tenants)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-serializable form; ``from_dict`` round-trips it."""
        out = asdict(self)
        for owner in (*out["tenants"], out):
            for pattern in owner["workloads"]:
                pattern["params"] = dict(pattern["params"])
                pattern["arrival"]["phases"] = [
                    list(pair) for pair in pattern["arrival"]["phases"]
                ]
        for key in ("degrade", "crashes"):
            out["chaos"][key] = [list(item) for item in out["chaos"][key]]
        out["speeds"] = list(out["speeds"])
        return out

    @staticmethod
    def from_dict(data: dict) -> "ScenarioSpec":
        """The spec ``data`` describes; a malformed one raises one
        ``ConfigurationError`` naming the field's path and what it
        expected, e.g. ``tenants[0].workloads: expected a list of
        mappings, got int``."""
        try:
            return _scenario_from_dict(data)
        except ConfigurationError as error:
            raise ConfigurationError(f"malformed scenario spec: {error}") from error


# ----------------------------------------------------------------------
# from_dict: every nested value is checked for shape where it is read, so
# an error names its path ("tenants[0].workloads[1].arrival.rate")
# ----------------------------------------------------------------------
def _fail(path: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"{path}: {message}" if path else message)


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _type_fits(value, default) -> bool:
    """Whether ``value`` can stand in a field whose default is ``default``."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _fields(path: str, data, cls) -> dict:
    """``data`` as keyword arguments of the dataclass ``cls``: a mapping
    with no unknown and no missing field, and scalars of the defaults' types."""
    if not isinstance(data, dict):
        raise _fail(path, f"expected a mapping, got {type(data).__name__}")
    known = {f.name: f for f in dataclass_fields(cls)}
    for name, value in data.items():
        if name not in known:
            raise _fail(path, f"unknown field {name!r}; expected one of {sorted(known)}")
        default = known[name].default
        if isinstance(default, (int, float, str)) and not _type_fits(value, default):
            raise _fail(
                _join(path, name),
                f"expected {type(default).__name__}, got {type(value).__name__}",
            )
    for name, f in known.items():
        if name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise _fail(path, f"missing field {name!r}")
    return dict(data)


def _items(path: str, value, what: str = "mappings"):
    """``(path[i], item)`` for each item of the list ``value``."""
    if not isinstance(value, (list, tuple)):
        raise _fail(path, f"expected a list of {what}, got {type(value).__name__}")
    return [(f"{path}[{i}]", item) for i, item in enumerate(value)]


def _rows(path: str, value, shape: str, convert) -> tuple:
    """Each item of the list ``value``, a list shaped like ``shape``
    (e.g. ``[start, rate]``), converted by ``convert``."""
    arity = shape.count(",") + 1
    rows = []
    for item_path, item in _items(path, value, f"{shape} lists"):
        try:
            if not isinstance(item, (list, tuple)) or len(item) != arity:
                raise TypeError(f"got {item!r}")
            rows.append(convert(*item))
        except (TypeError, ValueError) as error:
            raise _fail(item_path, f"expected {shape}: {error}") from None
    return tuple(rows)


def _build(path: str, cls, fields: dict):
    """``cls(**fields)``, naming ``path`` in any validation error."""
    try:
        return cls(**fields)
    except (ConfigurationError, TypeError, ValueError) as error:
        raise _fail(path, str(error)) from error


def _arrival_from_dict(path: str, data) -> ArrivalSpec:
    fields = _fields(path, data, ArrivalSpec)
    fields["phases"] = _rows(
        _join(path, "phases"),
        fields.get("phases", ()),
        "[start, rate]",
        lambda start, rate: (float(start), float(rate)),
    )
    return _build(path, ArrivalSpec, fields)


def _pattern_from_dict(path: str, data) -> WorkloadPattern:
    fields = _fields(path, data, WorkloadPattern)
    fields["arrival"] = _arrival_from_dict(_join(path, "arrival"), fields["arrival"])
    sla = fields.get("sla")
    if sla is not None:
        sla_path = _join(path, "sla")
        fields["sla"] = _build(sla_path, SLASpec, _fields(sla_path, sla, SLASpec))
    params = fields.get("params", {})
    if not isinstance(params, dict):
        raise _fail(_join(path, "params"), f"expected a mapping, got {type(params).__name__}")
    fields["params"] = tuple(sorted(params.items()))
    return _build(path, WorkloadPattern, fields)


def _patterns(path: str, value) -> Tuple[WorkloadPattern, ...]:
    return tuple(_pattern_from_dict(p, item) for p, item in _items(path, value))


def _tenant_from_dict(path: str, data) -> TenantSpec:
    fields = _fields(path, data, TenantSpec)
    fields["workloads"] = _patterns(_join(path, "workloads"), fields["workloads"])
    return _build(path, TenantSpec, fields)


def _chaos_from_dict(path: str, data) -> ChaosSpec:
    fields = _fields(path, data, ChaosSpec)
    fields["degrade"] = _rows(
        _join(path, "degrade"),
        fields.get("degrade", ()),
        "[at, node index, factor]",
        lambda at, node, factor: (float(at), int(node), float(factor)),
    )
    fields["crashes"] = _rows(
        _join(path, "crashes"),
        fields.get("crashes", ()),
        "[at, node, recover at]",
        lambda at, node, back: (float(at), str(node), None if back is None else float(back)),
    )
    return _build(path, ChaosSpec, fields)


def _scenario_from_dict(data) -> ScenarioSpec:
    fields = _fields("", data, ScenarioSpec)
    fields["tenants"] = tuple(
        _tenant_from_dict(p, item) for p, item in _items("tenants", fields.get("tenants", ()))
    )
    fields["workloads"] = _patterns("workloads", fields.get("workloads", ()))
    speeds = []
    for path, speed in _items("speeds", fields.get("speeds", ()), "numbers"):
        if not _type_fits(speed, 1.0):
            raise _fail(path, f"expected a number, got {type(speed).__name__}")
        speeds.append(float(speed))
    fields["speeds"] = tuple(speeds)
    if "chaos" in fields:
        fields["chaos"] = _chaos_from_dict("chaos", fields["chaos"])
    return _build("", ScenarioSpec, fields)


@dataclass(frozen=True)
class PolicyConfig:
    """Which multi-tenant isolation controls a run arms.

    The survival matrix compares these configurations over identical
    scenarios: the baseline arms nothing (the paper's consolidated
    free-for-all), the full-isolation policy arms every tier.
    """

    name: str
    node_shares: bool = False      # per-tenant MPL reservations per node
    cluster_quotas: bool = False   # per-tenant admission quotas
    queue_shares: bool = False     # per-tenant task-queue dispatch shares
    dispatch: str = "push"
    placement: str = "least"

    def __post_init__(self) -> None:
        from repro.cluster.dispatcher import DISPATCH_MODES
        from repro.cluster.placement import POLICY_NAMES

        if self.dispatch not in DISPATCH_MODES:
            raise ConfigurationError(
                f"unknown dispatch mode {self.dispatch!r}; one of {DISPATCH_MODES}"
            )
        if self.placement not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown placement policy {self.placement!r}; one of {POLICY_NAMES}"
            )
        if self.queue_shares and self.dispatch != "pull":
            raise ConfigurationError(
                "queue_shares needs pull dispatch (the task queue owns them)"
            )

    def describe(self) -> str:
        armed = [
            label
            for label, on in (
                ("node-shares", self.node_shares),
                ("quotas", self.cluster_quotas),
                ("queue-shares", self.queue_shares),
            )
            if on
        ]
        controls = "+".join(armed) if armed else "none"
        return f"{self.dispatch}/{self.placement} [{controls}]"


# ----------------------------------------------------------------------
# file loading (JSON via stdlib; YAML gated on PyYAML's presence)
# ----------------------------------------------------------------------
def load_scenario_file(path: Union[str, Path]) -> ScenarioSpec:
    """Load a :class:`ScenarioSpec` from a ``.json`` or ``.yaml`` file.

    JSON always works (stdlib).  YAML works iff PyYAML is importable;
    without it the error says exactly that instead of tracebacking —
    the stdlib-only environment is a supported configuration.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as error:
        raise ConfigurationError(
            f"scenario file not found or unreadable: {path} ({error})"
        ) from None
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml  # type: ignore[import-not-found]
        except ImportError:
            raise ConfigurationError(
                f"cannot load {path}: YAML support needs the optional "
                "PyYAML dependency (not installed); use a .json spec instead"
            ) from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise ConfigurationError(
                f"malformed YAML in {path}: {error}"
            ) from error
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"malformed JSON in {path}: {error}"
            ) from error
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"scenario file {path} must contain a mapping, "
            f"got {type(data).__name__}"
        )
    return ScenarioSpec.from_dict(data)
