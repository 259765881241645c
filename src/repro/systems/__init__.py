"""Models of the commercial workload-management systems of Table 4.

Each module mirrors one facility's configuration vocabulary and
*compiles* it onto the framework's plug-in sockets, so that running the
model exercises exactly the technique classes the paper attributes to
the system (validated by EXP16 and the Table 4 bench):

* :mod:`repro.systems.db2` — IBM DB2 Workload Manager: workloads, work
  classes, service (sub)classes, thresholds with actions [30];
* :mod:`repro.systems.sqlserver` — Microsoft SQL Server Resource
  Governor (resource pools, workload groups, classification) and Query
  Governor Cost Limit [50][51];
* :mod:`repro.systems.teradata` — Teradata Active System Management:
  workload analyzer, filters, throttles, workload definitions with
  exceptions, the regulator [71][72].
"""

from repro.systems.base import SystemBundle
from repro.systems.db2 import (
    DB2Workload,
    DB2WorkClass,
    DB2ServiceClass,
    DB2Threshold,
    DB2WorkloadManagerConfig,
)
from repro.systems.sqlserver import (
    ResourcePool,
    WorkloadGroup,
    ResourceGovernorConfig,
    ResourcePoolController,
)
from repro.systems.teradata import (
    ObjectAccessFilter,
    ObjectThrottle,
    QueryResourceFilter,
    WorkloadThrottle,
    TeradataException,
    TeradataWorkloadDefinition,
    TeradataASMConfig,
    TeradataWorkloadAnalyzer,
    WorkloadRecommendation,
)

__all__ = [
    "SystemBundle",
    "DB2Workload",
    "DB2WorkClass",
    "DB2ServiceClass",
    "DB2Threshold",
    "DB2WorkloadManagerConfig",
    "ResourcePool",
    "WorkloadGroup",
    "ResourceGovernorConfig",
    "ResourcePoolController",
    "ObjectAccessFilter",
    "ObjectThrottle",
    "QueryResourceFilter",
    "WorkloadThrottle",
    "TeradataException",
    "TeradataWorkloadDefinition",
    "TeradataASMConfig",
    "TeradataWorkloadAnalyzer",
    "WorkloadRecommendation",
]
