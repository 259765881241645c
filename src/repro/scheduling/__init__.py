"""Scheduling techniques (paper §3.3, Figure 1 scheduling class).

* :class:`~repro.core.manager.WaitQueue` — the one wait queue drained
  under a static or controller-driven MPL, in arrival order or by a key
  (:func:`by_priority`, :func:`shortest_job`, :func:`wspt`);
* :mod:`repro.scheduling.queues` — partitioned wait queues: per-workload
  and per-tenant multi-queue dispatch;
* :mod:`repro.scheduling.mpl` — dynamic MPL determination: analytical
  queueing-model bounds [35][40][69] and feedback hill-climbing [17][28];
* :mod:`repro.scheduling.utility` — the Niu et al. query scheduler:
  per-class cost limits chosen by utility functions under an analytical
  performance model [60];
* :mod:`repro.scheduling.batch` — batch-order optimization with rank
  functions (WSPT) and interaction-aware memory packing [2][24];
* :mod:`repro.scheduling.restructuring` — query slicing: large queries
  are decomposed into serial slices scheduled individually [6][36][54].
"""

from repro.core.interfaces import MplController, StaticMpl
from repro.core.manager import WaitQueue, by_priority, shortest_job, wspt
from repro.scheduling.queues import (
    MultiQueueScheduler,
    TenantShareScheduler,
    tenant_mpl_caps,
)
from repro.scheduling.mpl import QueueingModelMpl, FeedbackMpl
from repro.scheduling.utility import UtilityScheduler, ServiceClassConfig
from repro.scheduling.batch import wspt_order, interaction_aware_order
from repro.scheduling.restructuring import RestructuringScheduler

__all__ = [
    "WaitQueue",
    "by_priority",
    "shortest_job",
    "wspt",
    "MultiQueueScheduler",
    "TenantShareScheduler",
    "tenant_mpl_caps",
    "MplController",
    "StaticMpl",
    "QueueingModelMpl",
    "FeedbackMpl",
    "UtilityScheduler",
    "ServiceClassConfig",
    "wspt_order",
    "interaction_aware_order",
    "RestructuringScheduler",
]
