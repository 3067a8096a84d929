"""Execution runtime: backends, campaign stores and the session façade.

This subpackage separates *what* is measured (plans, seeds, machine
configurations) from *how and where* it executes and *where the results
live*:

* :mod:`repro.runtime.table` — :class:`MeasurementTable`, the durable
  column-oriented result of a campaign (exact ``as_dict``/``from_dict``
  round-trip);
* :mod:`repro.runtime.backends` — the :class:`ExecutionBackend` protocol and
  the serial / multiprocess / batched implementations, all bit-identical for
  the same work units;
* :mod:`repro.runtime.store` — the :class:`CampaignStore` protocol with
  in-memory and on-disk implementations, keyed by a content hash of the full
  machine configuration; per-plan costs persist in an append-log record
  store (O(batch) appends, crash-tolerant reads, compaction);
* :mod:`repro.runtime.metrics` — the :class:`MetricSpec` registry of named
  cost metrics (hardware counters, wall time, analytic batch models) and the
  multi-metric :class:`CostRecord`;
* :mod:`repro.runtime.objectives` — composable :class:`Objective`\\ s mapping
  metric records to the scalar a search optimises (single metric, the
  paper's weighted ``alpha*I + beta*M`` composite, custom reducers);
* :mod:`repro.runtime.campaigns` — the deterministic campaign driver that
  samples plans, derives per-sample noise seeds and routes work units through
  a backend and a store;
* :mod:`repro.runtime.cost_engine` — :class:`CostEngine`, batched
  multi-metric plan evaluation: one measurement populates every hardware
  counter metric at once, model metrics never touch the machine, and every
  record lands in the persistent per-plan record log.  Its
  :class:`EngineSurface` base (``cost`` / ``batch`` / ``__call__``, the
  ``evaluations`` / ``measured`` / ``fallbacks`` counters and the one
  ``fallback=True`` path) is the engine surface of every record path:
  local engine, in-process service client and wire client;
* :mod:`repro.runtime.session` — :class:`Session` / :func:`session`, the
  fluent top-level entry point owning machine, scale, backend and store;
* :mod:`repro.runtime.sharded_store` — :class:`ShardedRecordStore`, the
  record log sharded per ``(machine_hash, seed)`` with one locked writer per
  shard, lock-free readers and background compaction;
* :mod:`repro.runtime.service` — :class:`CampaignService` / :func:`serve`,
  the multi-tenant measurement service: a job queue deduping work by
  ``(machine_hash, plan_key, seed, channel)``, a worker fleet draining it
  through an :class:`ExecutionBackend`, and :class:`ServiceClient`\\ s —
  the engine surface over the service — for any number of concurrent
  sessions (``Session.connect``);
* :mod:`repro.runtime.transport` — the multi-host wire: length-prefixed
  JSON frames over TCP / Unix sockets (:func:`serve_tcp`,
  :func:`serve_unix`), the supervised per-server :class:`RemoteTransport`
  with reconnect, heartbeats and idempotent request ids, and
  :class:`FaultyTransport` extending the fault plan's chaos discipline to
  the network;
* :mod:`repro.runtime.faults` — deterministic fault injection
  (:class:`FaultPlan`) across backend, store, network and fleet sites, so
  the failure discipline above is testable bit-for-bit;
* :mod:`repro.runtime.fleet` — :class:`FleetClient`, the one wire
  client (``Session.connect("tcp://host:port")`` or
  ``Session.connect(["tcp://a", "tcp://b"])``; a single URL is a
  one-member fleet, and :func:`RemoteServiceClient` spells that case):
  rendezvous-hash striping over a member ring (the one router: a server
  measures every key it is sent), membership health probing and
  client-side failover, all sharing one record space so any single
  member can die mid-search without duplicating a measurement.
"""

from repro.runtime.backends import (
    BACKEND_PRESETS,
    BatchedBackend,
    ExecutionBackend,
    MultiprocessBackend,
    SerialBackend,
    WorkUnit,
    resolve_backend,
)
from repro.runtime.campaigns import (
    campaign_key,
    measure_plan_list,
    run_campaign,
    sample_units,
)
from repro.runtime.cost_engine import CostEngine, EngineSurface, ObjectiveCost
from repro.runtime.faults import (
    FaultDecision,
    FaultPlan,
    FaultSpec,
    FaultyBackend,
    FaultyStore,
    InjectedCrash,
    InjectedFault,
)
from repro.runtime.fleet import (
    FleetClient,
    MembershipRegistry,
    RemoteServiceClient,
    ring_assign,
    ring_owner,
    ring_weight,
)
from repro.runtime.metrics import (
    CostRecord,
    MetricSpec,
    available_metrics,
    counter_metric_names,
    hardware_metric_names,
    metric_spec,
    model_metric_names,
    register_metric,
)
from repro.runtime.objectives import (
    CustomObjective,
    MetricObjective,
    Objective,
    WeightedObjective,
    resolve_objective,
)
from repro.runtime.service import (
    CampaignJob,
    CampaignService,
    JobTicket,
    QuarantineEntry,
    ServiceBackend,
    ServiceClient,
    ServiceError,
    ServiceHealth,
    ServiceStats,
    serve,
)
from repro.runtime.session import SCALE_PRESETS, Session, session
from repro.runtime.sharded_store import ShardedRecordStore, ShardStats
from repro.runtime.store import (
    CampaignKey,
    CampaignStore,
    CostLogKey,
    DiskStore,
    MemoryStore,
    NullStore,
    default_memory_store,
    machine_config_hash,
    resolve_store,
)
from repro.runtime.table import TABLE_COLUMNS, MeasurementTable
from repro.runtime.transport import (
    FaultyTransport,
    FrameTransport,
    RemoteServiceError,
    RemoteTransport,
    ServiceServer,
    TransportError,
    serve_tcp,
    serve_unix,
)

__all__ = [
    "WorkUnit",
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "BatchedBackend",
    "BACKEND_PRESETS",
    "resolve_backend",
    "campaign_key",
    "sample_units",
    "run_campaign",
    "measure_plan_list",
    "Session",
    "session",
    "SCALE_PRESETS",
    "CampaignKey",
    "CampaignStore",
    "CostLogKey",
    "CostEngine",
    "EngineSurface",
    "ObjectiveCost",
    "CostRecord",
    "MetricSpec",
    "register_metric",
    "metric_spec",
    "available_metrics",
    "hardware_metric_names",
    "counter_metric_names",
    "model_metric_names",
    "Objective",
    "MetricObjective",
    "WeightedObjective",
    "CustomObjective",
    "resolve_objective",
    "MemoryStore",
    "DiskStore",
    "NullStore",
    "default_memory_store",
    "machine_config_hash",
    "resolve_store",
    "ShardedRecordStore",
    "ShardStats",
    "CampaignService",
    "CampaignJob",
    "JobTicket",
    "ServiceClient",
    "ServiceBackend",
    "ServiceStats",
    "ServiceHealth",
    "QuarantineEntry",
    "ServiceError",
    "serve",
    "ServiceServer",
    "serve_tcp",
    "serve_unix",
    "RemoteServiceClient",
    "RemoteServiceError",
    "RemoteTransport",
    "FrameTransport",
    "FaultyTransport",
    "TransportError",
    "FleetClient",
    "MembershipRegistry",
    "ring_weight",
    "ring_owner",
    "ring_assign",
    "FaultPlan",
    "FaultSpec",
    "FaultDecision",
    "FaultyBackend",
    "FaultyStore",
    "InjectedFault",
    "InjectedCrash",
    "TABLE_COLUMNS",
    "MeasurementTable",
]
