"""Workload generation: request classes, arrival processes and traces.

The paper's motivating scenario (§1) is a consolidated server running a
*mix* of workload types — short high-priority OLTP transactions next to
long resource-intensive BI queries, plus report batches and maintenance
utilities.  This package synthesizes those mixes deterministically:

* :mod:`repro.workloads.models` — distributions, request classes and
  workload specifications (open Poisson or closed think-time arrivals);
* :mod:`repro.workloads.generator` — drives specs on a simulator and
  provides ready-made OLTP / BI / batch / utility builders;
* :mod:`repro.workloads.traces` — a DBQL-style query log for recording
  and analysis (Teradata Workload Analyzer flavour).
"""

from repro.workloads.models import (
    Distribution,
    Constant,
    Exponential,
    LogNormal,
    Uniform,
    RequestClass,
    ArrivalProcess,
    OpenArrivals,
    ClosedArrivals,
    BatchArrivals,
    DiurnalArrivals,
    WorkloadSpec,
)
from repro.workloads.generator import (
    WorkloadGenerator,
    Scenario,
    oltp_workload,
    bi_workload,
    report_batch_workload,
    utility_workload,
    mixed_scenario,
)
from repro.workloads.traces import QueryLogRecord, QueryLog

__all__ = [
    "Distribution",
    "Constant",
    "Exponential",
    "LogNormal",
    "Uniform",
    "RequestClass",
    "ArrivalProcess",
    "OpenArrivals",
    "ClosedArrivals",
    "BatchArrivals",
    "DiurnalArrivals",
    "WorkloadSpec",
    "WorkloadGenerator",
    "Scenario",
    "oltp_workload",
    "bi_workload",
    "report_batch_workload",
    "utility_workload",
    "mixed_scenario",
    "QueryLogRecord",
    "QueryLog",
]
