"""Discrete-event DBMS simulator substrate.

The engine package provides everything the workload-management framework
needs from a "database server": a simulation clock and event queue
(:mod:`repro.engine.simulator`), queries with true and estimated cost
vectors (:mod:`repro.engine.query`, :mod:`repro.engine.optimizer`),
weighted processor-sharing resources (:mod:`repro.engine.resources`), a
buffer pool whose oversubscription penalizes I/O
(:mod:`repro.engine.bufferpool`), a two-phase lock manager
(:mod:`repro.engine.locks`) and the execution engine that ties them
together (:mod:`repro.engine.executor`).

The simulator is fully deterministic: all time is simulated and all
randomness flows from seeded generators, so every experiment in the
benchmark harness is reproducible bit-for-bit.
"""

from repro.engine.simulator import Simulator, Event
from repro.engine.query import Query, QueryState, CostVector, QueryPlan, PlanOperator
from repro.engine.optimizer import Optimizer, OptimizerProfile
from repro.engine.resources import ResourceKind, MachineSpec
from repro.engine.bufferpool import BufferPool
from repro.engine.locks import LockManager, LockConflictStats
from repro.engine.executor import ExecutionEngine, EngineConfig
from repro.engine.sessions import Session, ConnectionAttributes

__all__ = [
    "Simulator",
    "Event",
    "Query",
    "QueryState",
    "CostVector",
    "QueryPlan",
    "PlanOperator",
    "Optimizer",
    "OptimizerProfile",
    "ResourceKind",
    "MachineSpec",
    "BufferPool",
    "LockManager",
    "LockConflictStats",
    "ExecutionEngine",
    "EngineConfig",
    "Session",
    "ConnectionAttributes",
]
