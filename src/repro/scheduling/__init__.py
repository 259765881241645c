"""Scheduling techniques (paper §3.3, Figure 1 scheduling class).

Every waiting request waits in one structure,
:class:`~repro.core.interfaces.PartitionedQueue` (it sits beside the
``Scheduler`` socket in :mod:`repro.core.interfaces`); each scheduler
keeps only its rule for which bucket's head runs next:

* :class:`~repro.core.manager.WaitQueue` — the one wait queue (one
  bucket) drained under a static or controller-driven MPL, in arrival
  order or by a key (:func:`by_priority`, :func:`shortest_job`,
  :func:`wspt`, from :mod:`repro.scheduling.queues`);
* :mod:`repro.scheduling.queues` — the keys, and partitioned wait
  queues under per-workload and per-tenant MPL caps on a node (the
  cluster's :class:`~repro.cluster.taskqueue.TaskQueue` serves the same
  core by share deficit);
* :mod:`repro.scheduling.mpl` — dynamic MPL determination: analytical
  queueing-model bounds [35][40][69] and feedback hill-climbing [17][28];
* :mod:`repro.scheduling.utility` — the Niu et al. query scheduler:
  one bucket per service class under cost limits chosen by utility
  functions and an analytical performance model [60];
* :mod:`repro.scheduling.batch` — batch-order optimization with rank
  functions (WSPT) and interaction-aware memory packing [2][24];
* :mod:`repro.scheduling.restructuring` — query slicing: large queries
  are decomposed into serial slices scheduled individually, in the
  wrapped scheduler's queue [6][36][54].
"""

from repro.core.interfaces import MplController, PartitionedQueue, StaticMpl
from repro.core.manager import WaitQueue
from repro.scheduling.queues import (
    MultiQueueScheduler,
    TenantShareScheduler,
    by_priority,
    shortest_job,
    tenant_mpl_caps,
    wspt,
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
    "PartitionedQueue",
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
