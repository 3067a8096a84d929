"""The multi-tenant campaign service: job queue, worker fleet, shared store.

Everything below the session layer is already order-independent (per-plan
noise seeds), batched (``prepare_batch``) and durable (append-log record
stores) — but one :class:`~repro.runtime.session.Session` is still one
process serving one caller.  Run the paper's measurement campaigns from many
figure scripts, searches and sweeps at once and each opens its own store,
races the others' appends and re-measures work a sibling finished seconds
ago.  :class:`CampaignService` closes that gap: **one** process-wide owner of
the measurement pipeline that any number of sessions submit work to.

Architecture
------------

* **Job queue.**  Clients submit :class:`CampaignJob`\\ s — ``(machine
  configuration, plan batch, metrics, seed)`` work units.  ``submit``
  partitions a job by acquisition channel, serves whatever the shared record
  cache already knows, attaches to any identical work already in flight, and
  enqueues only the remainder.  The returned :class:`JobTicket` blocks until
  every record the job needs exists.  A job of plan keys (the wire's) is
  answered in rows, the cached keys in the partition pass itself.
* **Dedup.**  Work is identified by ``(machine_hash, plan_key, seed,
  channel)``.  However many sessions ask for a plan's cost concurrently,
  exactly one real measurement happens: the first submitter enqueues it,
  everyone else waits on the same in-flight entry.  (Raw measurement batches
  — campaign tables — skip the queue: :meth:`CampaignService.measure_units`
  runs them on the caller's thread on the service's machine, whose
  prepared-plan cache simulates each distinct plan once across tenants.)
* **One acquisition path.**  Each record shard ``(machine_hash, seed)``
  is a :class:`~repro.runtime.cost_engine.CostEngine` over the service's
  store and backend: its record cache is what ``submit`` classifies
  against, and its ``records`` is how a worker acquires what is missing —
  the same per-plan noise seeds, scorers, wall-time scrub and
  append-before-publish rule as a private engine, hence bit-identical
  records.  The service adds only what is shared: dedup, the queue,
  retries and quarantine.
* **Worker fleet.**  Daemon threads drain the queue through the service's
  :class:`~repro.runtime.backends.ExecutionBackend` — the fused
  :class:`~repro.runtime.backends.BatchedBackend` by default, a
  :class:`~repro.runtime.backends.MultiprocessBackend` for process fan-out;
  the protocol leaves room for a socket/multi-host backend later.  All real
  work routes through ``prepare_batch``; per-machine execution is serialised
  so simulator state is never shared across threads.
* **Failure discipline.**  A failing task is retried with exponential
  backoff and deterministic jitter (fresh machine state each attempt, the
  queue keeps moving while it waits), and after ``max_attempts`` it moves to
  a **dead-letter quarantine** — its waiters receive the error, the rest of
  the fleet is unaffected, and :meth:`CampaignService.requeue_quarantined`
  can give it a fresh set of attempts later.  Retried executions
  ``reload()`` the shard's engine from the store under the machine lock
  first, so a retry never persists a record twice.  Jobs can carry a
  ``deadline``; tickets whose ``result`` times out *detach*, so an
  abandoned waiter can never wedge a later submit of the same key.  A
  supervisor thread fires due retries, detects
  dead worker threads, recovers their in-progress tasks and respawns them;
  :meth:`CampaignService.health` reports ``ok``/``degraded``/``closed``,
  and an opt-in :class:`ServiceClient` fallback degrades to a private
  serial engine (bit-identical results) when the service cannot answer.
  Chaos-test all of it with :mod:`repro.runtime.faults` (DESIGN.md §12).
* **Per-key record logs.**  Results persist in the service's store —
  :class:`~repro.runtime.sharded_store.ShardedRecordStore` for a directory
  spec: a flat :class:`~repro.runtime.store.DiskStore` directory with one
  append-log writer per ``(machine_hash, seed)`` key, lock-free readers and
  inline compaction, which a session opening the same directory reads too.
  Records are appended *before* waiters are released, so no value a client
  observed can be lost by a crash.
* **Clients.**  :meth:`CampaignService.client` returns a
  :class:`ServiceClient` — the shared engine surface
  (:class:`~repro.runtime.cost_engine.EngineSurface`: ``records`` /
  ``cost`` / ``batch`` and the ``evaluations``/``measured``/``fallbacks``
  counters) whose acquisitions all route through the service.
  ``Session.connect(service=...)`` builds a whole session on top;
  :func:`repro.serve` is the one-line constructor.
* **Observability.**  :meth:`CampaignService.stats` reports queue depth,
  in-flight units, dedup savings, store hits vs real measurements, retries,
  failures and per-shard sizes.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from repro.machine.machine import MachineConfig, PreparedPlanCache, SimulatedMachine
from repro.machine.measurement import Measurement
from repro.runtime.backends import BatchedBackend, ExecutionBackend, WorkUnit
from repro.runtime.cost_engine import CostEngine, EngineSurface
from repro.runtime.metrics import (
    COUNTER_CHANNEL,
    MODEL_CHANNEL,
    WALL_CHANNEL,
    CostRecord,
    counter_metric_names,
    metric_spec,
)
from repro.runtime.objectives import Objective
from repro.runtime.sharded_store import ShardedRecordStore
from repro.runtime.store import (
    CampaignStore,
    CostLogKey,
    MemoryStore,
    ShardStats,
    machine_config_hash,
    resolve_store,
)
from repro.util.lru import LRUCache
from repro.util.rng import backoff_delay
from repro.util.validation import check_positive_int
from repro.wht.encoding import plan_key
from repro.wht.grammar import parse_plan
from repro.wht.plan import Plan

__all__ = [
    "CampaignJob",
    "JobTicket",
    "ServiceError",
    "ServiceStats",
    "ServiceHealth",
    "QuarantineEntry",
    "CampaignService",
    "ServiceClient",
    "ServiceBackend",
    "serve",
]


#: Capacity of the request-id idempotency table: how many in-flight *and
#: completed* submissions a resubmitted ``request_id`` is deduped against.
REQUEST_MEMO = 4096

#: The request-id table's entry for a job the record cache answered whole.
_ANSWERED = object()


class ServiceError(RuntimeError):
    """A campaign service request failed (worker failure after retries,
    shutdown while waiting, or a timeout)."""


@dataclass(frozen=True)
class CampaignJob:
    """One unit of service work: a plan batch to evaluate on one machine.

    ``plan_batch`` holds plans, or plan keys as the wire spells them.
    ``metrics`` name what must be known for every plan of ``plan_batch``;
    ``seed`` is the noise-derivation seed (the same meaning as
    :class:`~repro.runtime.cost_engine.CostEngine`'s ``seed`` — it selects
    the record shard and pins each plan's noise draw).  ``deadline``
    (seconds, counted from submission) bounds how long the job's
    :meth:`JobTicket.result` may block: past it, the ticket raises and
    detaches, whether or not a ``timeout`` was passed.
    """

    machine_config: MachineConfig
    plan_batch: "tuple[Plan | str, ...]"
    metrics: "tuple[str, ...]" = ("cycles",)
    seed: int = 0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not self.plan_batch:
            raise ValueError("a CampaignJob needs at least one plan")
        if not self.metrics:
            raise ValueError("a CampaignJob needs at least one metric")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive seconds, got {self.deadline}")


class _Inflight:
    """One pending acquisition every interested waiter blocks on.

    ``key`` is where the entry is registered (so a detaching ticket can
    unregister it); ``waiters`` counts the tickets attached — when the last
    one detaches, the entry is dropped and a later submit of the same key
    owns fresh work instead of wedging on an abandoned waiter.
    """

    __slots__ = ("event", "error", "key", "waiters")

    def __init__(self, key: tuple = ()) -> None:
        self.event = threading.Event()
        self.error: BaseException | None = None
        self.key = key
        self.waiters = 0


#: The ``stats`` counter each record channel's executions add to.
_EXECUTION_COUNTERS = {
    COUNTER_CHANNEL: "measured",
    MODEL_CHANNEL: "model_evaluations",
    WALL_CHANNEL: "wall_evaluations",
}


@dataclass
class _Task:
    """One queued batch of real work for the worker fleet."""

    channel: str  # COUNTER_CHANNEL | WALL_CHANNEL | MODEL_CHANNEL
    config: MachineConfig
    log_key: CostLogKey
    #: plan key -> plan.
    plan_by_key: "dict[str, Plan]"
    #: wall/model channels: the one metric this task acquires.
    metric: str | None = None
    attempts: int = 0

    @property
    def token(self) -> str:
        """A stable, human-scannable identity for retry jitter and quarantine."""
        digest = hashlib.sha256("\n".join(sorted(self.plan_by_key)).encode()).hexdigest()[:12]
        return (
            f"{self.channel}:{self.log_key.machine_hash[:12]}:s{self.log_key.seed}"
            f":{self.metric or '-'}:{digest}"
        )


class JobTicket:
    """Handle on one submitted :class:`CampaignJob`.

    ``result()`` blocks until every record the job needs exists and returns
    one :class:`~repro.runtime.metrics.CostRecord` per plan, in job order;
    for a job of plan keys, one row of values in the job's metric order.
    ``owned_units`` counts the acquisitions *this* submission enqueued (as
    opposed to records served from the store or attached to another
    submitter's in-flight work) — the client-side measurement counter.

    A ``result`` that gives up — its ``timeout``, the job's ``deadline``,
    or a failure — **detaches** first: the ticket withdraws its interest,
    and in-flight entries nobody else waits on are unregistered, so a later
    submit of the same key owns fresh work instead of waiting behind an
    abandoned ticket.
    """

    def __init__(
        self,
        service: "CampaignService",
        job: CampaignJob,
        engine: CostEngine,
        answers: list,
        pending: "list[tuple[int, str]]",
        waits: "list[_Inflight]",
        owned_units: int,
        deadline: float | None = None,
    ):
        self._service = service
        self.job = job
        self._engine = engine
        self._answers = answers
        self._pending = pending  # (position, plan key) read once waits resolve
        self._waits = waits
        self.owned_units = owned_units
        #: Absolute (monotonic) expiry from the job's ``deadline``, if any.
        self._deadline = deadline
        self._detached = False

    def done(self) -> bool:
        """Whether every acquisition this job depends on has finished."""
        return all(entry.event.is_set() for entry in self._waits)

    @property
    def detached(self) -> bool:
        """Whether this ticket has withdrawn its interest (see :meth:`detach`)."""
        return self._detached

    def failed(self) -> bool:
        """Whether any acquisition this job depends on ended in an error."""
        return any(entry.error is not None for entry in self._waits)

    def detach(self) -> None:
        """Withdraw this ticket's interest in its unfinished work (idempotent).

        Entries with no remaining waiters are unregistered from the
        in-flight map; work already executing completes and persists
        normally (resolving is harmless), but nothing can block on this
        ticket's entries again.
        """
        if self._detached:
            return
        self._detached = True
        self._service._detach_waits(self._waits)

    def result(self, timeout: float | None = None) -> list:
        """Block until the job's records exist, then return its answers in order.

        Raises :class:`ServiceError` (after detaching) when ``timeout`` or
        the job's ``deadline`` expires first, or when the work failed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._deadline is not None:
            deadline = self._deadline if deadline is None else min(deadline, self._deadline)
        for entry in self._waits:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                remaining = 0.0
            if not entry.event.wait(remaining):
                self.detach()
                budget = (
                    f"timed out after {timeout} s"
                    if timeout is not None and (self._deadline is None or deadline < self._deadline)
                    else f"exceeded the job deadline of {self.job.deadline} s"
                )
                raise ServiceError(f"{budget} waiting for campaign work")
            if entry.error is not None:
                self.detach()
                raise ServiceError(
                    "campaign work failed after retries"
                ) from entry.error
        rows = isinstance(self.job.plan_batch[0], str)
        for index, key in self._pending:
            self._answers[index] = _answer(key, self._engine.cached(key), self.job.metrics, rows)
        return list(self._answers)

    def __repr__(self) -> str:
        state = "done" if self.done() else f"waiting on {len(self._waits)}"
        return f"JobTicket({len(self._answers)} plans, {state})"


def _answer(key: str, values, names: "tuple[str, ...]", rows: bool):
    """A row of ``values`` in ``names`` order, or a record (``KeyError`` if one is missing)."""
    if rows:
        return [values[name] for name in names]
    return CostRecord(plan_key=key, values={name: values[name] for name in names})


@dataclass(frozen=True)
class ServiceStats:
    """One consistent snapshot of a service's counters and store occupancy."""

    #: Jobs accepted by ``submit`` (not counting ``measure_units`` batches).
    jobs: int
    #: Tasks waiting in the queue right now.
    queue_depth: int
    #: Acquisitions currently in flight (enqueued or executing).
    in_flight: int
    #: Per-(plan, metric) requests served straight from the record cache
    #: (which is read-through from the store).
    store_hits: int
    #: Requests that attached to work another submitter already had in
    #: flight — each one a duplicate measurement that never happened.
    dedup_savings: int
    #: Real measurements executed: one per distinct plan per shard for
    #: records, plus every unit of every ``measure_units`` batch.
    measured: int
    #: Plans evaluated through the analytic model scorers (no machine).
    model_evaluations: int
    #: Wall-channel executions.
    wall_evaluations: int
    #: Tasks re-enqueued after a worker failure.
    retries: int
    #: Tasks abandoned after exhausting their attempts.
    failures: int
    #: Size of the worker fleet.
    workers: int
    #: Tasks currently dead-lettered (see :meth:`CampaignService.quarantined`).
    quarantined: int = 0
    #: Worker threads the supervisor replaced after they died mid-task.
    respawns: int = 0
    #: Tasks currently *retrying*: waiting out a retry backoff in the heap
    #: (not in the queue, not executing).
    retrying: int = 0
    #: Seconds until the earliest scheduled retry fires (``None`` when the
    #: retry heap is empty; ``0.0`` when one is already due).
    next_retry_eta: "float | None" = None
    #: Submissions answered from the request-id dedup table (a reconnect
    #: resubmitted work the service already had in flight or finished).
    resubmits: int = 0
    #: Fleet membership size, when this service fronts a fleet member
    #: (see :meth:`~repro.runtime.transport.ServiceServer.join_fleet`);
    #: 0 standalone.
    members: int = 0
    #: Per-key record log occupancy, when the store exposes it (disk
    #: stores do).
    shards: "tuple[ShardStats, ...]" = ()

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"jobs={self.jobs} queue={self.queue_depth} inflight={self.in_flight} "
            f"store_hits={self.store_hits} dedup={self.dedup_savings} "
            f"measured={self.measured} retries={self.retries} "
            f"failures={self.failures} quarantined={self.quarantined} "
            f"shards={len(self.shards)}"
        )


@dataclass(frozen=True)
class ServiceHealth:
    """One snapshot of a service's liveness (:meth:`CampaignService.health`).

    ``state`` is ``"ok"`` (full fleet alive, nothing quarantined),
    ``"degraded"`` (dead workers awaiting respawn, or dead-lettered tasks a
    human should look at) or ``"closed"``.  Degradation is advisory — the
    service keeps serving — but a :class:`ServiceClient` built with
    ``fallback=True`` uses ``"closed"`` to route around the service without
    submitting at all.
    """

    state: str
    alive_workers: int
    expected_workers: int
    queue_depth: int
    scheduled_retries: int
    quarantined: int
    respawns: int
    #: Fleet membership size (0 for a standalone service).
    members: int = 0

    @property
    def ok(self) -> bool:
        return self.state == "ok"

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.state}: workers={self.alive_workers}/{self.expected_workers} "
            f"queue={self.queue_depth} retries_scheduled={self.scheduled_retries} "
            f"quarantined={self.quarantined} respawns={self.respawns}"
        )


@dataclass(frozen=True)
class QuarantineEntry:
    """One dead-lettered task: what failed, how often, and why.

    ``token`` is the handle :meth:`CampaignService.requeue_quarantined`
    accepts; ``error`` is the ``repr`` of the final attempt's exception.
    """

    token: str
    channel: str
    machine_hash: str
    seed: int
    plan_keys: "tuple[str, ...]"
    metric: str | None
    attempts: int
    error: str


def _resolve_service_store(spec: "str | os.PathLike[str] | CampaignStore | None") -> CampaignStore:
    """Service store resolution: directory specs become compacting stores.

    ``None`` gives the service a private in-memory store (the read-through
    cache still works; nothing survives the process).  A path spec becomes a
    :class:`ShardedRecordStore` — a :class:`~repro.runtime.store.DiskStore`
    that compacts by default, because the service is long-lived and its logs
    keep growing — while explicit store instances and the
    ``"memory"``/``"none"`` presets resolve exactly as
    :func:`~repro.runtime.store.resolve_store` resolves them (including the
    bare-string rejection: a typo cannot silently change semantics).
    """
    if spec is None:
        return MemoryStore()
    if isinstance(spec, str):
        if spec in ("memory", "none"):
            return resolve_store(spec)
        if os.sep in spec or (os.altsep is not None and os.altsep in spec):
            return ShardedRecordStore(spec)
        return resolve_store(spec)  # raises the canonical bare-string error
    if isinstance(spec, os.PathLike):
        return ShardedRecordStore(spec)
    return resolve_store(spec)


class CampaignService:
    """One process-wide owner of measurement work for many client sessions.

    Parameters
    ----------
    store:
        Where records and campaign tables persist.  ``None`` — a private
        in-memory store; a directory path — a :class:`ShardedRecordStore`
        rooted there; any :class:`~repro.runtime.store.CampaignStore`
        instance passes through.  The service treats itself as the store's
        **single writer** for record logs; client sessions read through it.
    backend:
        How queued work executes (default: the fused
        :class:`~repro.runtime.backends.BatchedBackend`).
    workers:
        Worker-fleet size.  Execution on one machine configuration is
        serialised (simulator state is not shared across threads), so extra
        workers buy overlap across *different* machines/shards and keep the
        queue moving while one batch simulates.
    max_attempts:
        Total tries per task before it is quarantined and its waiters
        receive the failure.
    backoff_base:
        First-retry backoff in seconds; attempt ``k``'s delay is
        ``min(backoff_base * 2**(k-1), backoff_cap)`` scaled by a
        deterministic jitter in ``[0.5, 1.5)`` derived from ``retry_seed``
        and the task's identity.  ``0`` disables backoff (instant retry).
    backoff_cap:
        Upper bound on any single backoff delay, in seconds.
    supervision_interval:
        How often the supervisor thread scans for dead workers (due
        retries wake it immediately).
    retry_seed:
        Seed of the backoff jitter derivation — two services configured
        identically retry on identical schedules.
    shared_store:
        Fleet mode: this service is **not** the store's only record
        writer (several fleet members append into one record space).
        Every record execution then reloads its shard's engine from the
        store under the machine lock before acquiring, so work another
        member persisted
        — say, a member that died after appending but before answering —
        is served as store hits instead of being measured again.
    """

    def __init__(
        self,
        store: "str | CampaignStore | None" = None,
        backend: ExecutionBackend | None = None,
        workers: int = 2,
        max_attempts: int = 3,
        name: str = "campaign-service",
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        supervision_interval: float = 0.2,
        retry_seed: int = 0,
        shared_store: bool = False,
    ):
        check_positive_int(workers, "workers")
        check_positive_int(max_attempts, "max_attempts")
        if backoff_base < 0:
            raise ValueError(f"backoff_base must be non-negative, got {backoff_base}")
        if backoff_cap < backoff_base:
            raise ValueError(
                f"backoff_cap ({backoff_cap}) must be at least backoff_base ({backoff_base})"
            )
        if supervision_interval <= 0:
            raise ValueError(
                f"supervision_interval must be positive, got {supervision_interval}"
            )
        self.name = name
        self._owns_store = not isinstance(store, CampaignStore)
        self.store = _resolve_service_store(store)
        self.backend = backend if backend is not None else BatchedBackend()
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.supervision_interval = float(supervision_interval)
        self.retry_seed = int(retry_seed)
        self.shared_store = bool(shared_store)
        #: Member URLs of the fleet this service fronts a member of (set by
        #: :meth:`~repro.runtime.transport.ServiceServer.join_fleet`).
        self.fleet_members: "tuple[str, ...]" = ()
        self._lock = threading.RLock()
        self._queue: "queue.Queue[_Task | None]" = queue.Queue()
        #: One engine per shard: its record cache is read-through from the
        #: store (coherent because this service is the store's single record
        #: writer) and also memoises the never-persisted wall times.
        self._engines: "dict[CostLogKey, CostEngine]" = {}
        #: Pending work: ``(machine_hash, plan_key, seed, channel, metric)``
        #: (``metric`` is None on the counter channel, which acquires every
        #: counter at once).
        self._inflight: "dict[tuple, _Inflight]" = {}
        self._machines: "dict[str, SimulatedMachine]" = {}
        self._machine_locks: "dict[str, threading.Lock]" = {}
        self._counters = {
            "jobs": 0,
            "store_hits": 0,
            "dedup_savings": 0,
            "measured": 0,
            "model_evaluations": 0,
            "wall_evaluations": 0,
            "retries": 0,
            "failures": 0,
            "respawns": 0,
            "resubmits": 0,
        }
        #: Request-id idempotency table: a remote client that reconnects and
        #: resubmits a request id it never saw an answer for is handed the
        #: *same* ticket — the work is never enqueued twice, whether it is
        #: still in flight or already finished (the LRU keeps completed
        #: tickets around for late resubmits, or ``_ANSWERED``).
        self._request_tickets: "LRUCache[str, JobTicket | object]" = LRUCache(REQUEST_MEMO)
        self._closed = False
        #: Tasks accepted but not yet terminal (queued, executing, or
        #: waiting out a retry backoff).  ``drain`` waits on this — the
        #: queue's own counters cannot see a task parked in the retry heap.
        self._outstanding = 0
        #: ``measure_units`` batches running on their callers' threads.
        self._batches = 0
        self._work_cv = threading.Condition(self._lock)
        #: Worker-thread name -> the task it is executing right now.  A
        #: thread that dies leaves its entry behind; the supervisor recovers
        #: the task from here.
        self._executing: "dict[str, _Task]" = {}
        #: Scheduled retries: (due monotonic time, tiebreak, task).
        self._retries: "list[tuple[float, int, _Task]]" = []
        self._retry_seq = itertools.count()
        self._supervisor_cv = threading.Condition(self._lock)
        #: Dead-letter quarantine: task token -> report (+ the parked task).
        self._quarantine: "dict[str, QuarantineEntry]" = {}
        self._quarantined_tasks: "dict[str, _Task]" = {}
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"{name}-worker-{index}", daemon=True
            )
            for index in range(int(workers))
        ]
        for thread in self._threads:
            thread.start()
        self._supervisor: "threading.Thread | None" = threading.Thread(
            target=self._supervise, name=f"{name}-supervisor", daemon=True
        )
        self._supervisor.start()

    # -- resolution helpers ------------------------------------------------------

    def _machine_for(self, config: MachineConfig) -> SimulatedMachine:
        digest = machine_config_hash(config)
        with self._lock:
            machine = self._machines.get(digest)
            if machine is None:
                machine = SimulatedMachine(config, prepared_cache=PreparedPlanCache())
                self._machines[digest] = machine
            return machine

    def _machine_lock(self, digest: str) -> threading.Lock:
        # One lock per machine hash for the service's lifetime: a machine the
        # failure path evicts is rebuilt under the *same* lock, so executions
        # on that hash never overlap, whichever machine object they bound.
        with self._lock:
            return self._machine_locks.setdefault(digest, threading.Lock())

    def _engine_for(self, log_key: CostLogKey, config: MachineConfig) -> CostEngine:
        """The shard's engine, its cache seeded from the store on first touch."""
        with self._lock:
            engine = self._engines.get(log_key)
            if engine is None:
                engine = CostEngine(
                    self._machine_for(config),
                    backend=self.backend,
                    store=self.store,
                    seed=log_key.seed,
                )
                self._engines[log_key] = engine
            return engine

    # -- submission --------------------------------------------------------------

    def submit(self, job: CampaignJob, request_id: "str | None" = None) -> JobTicket:
        """Accept ``job``, enqueue only its genuinely missing work.

        Partitioning happens under the service lock: every requested
        ``(plan, metric)`` is classified as a record-cache hit, an
        attachment to in-flight work, or new work this submission owns —
        which is what makes "exactly one real measurement per distinct
        ``(machine_hash, plan_key, seed, channel)``" hold under any number
        of concurrent submitters.  Cached plans are answered in that pass; a
        key is parsed only if not, and before any work is registered.

        ``request_id`` arms **idempotent resubmission** (the transport
        layer's reconnect discipline): a second ``submit`` carrying an id
        the service has seen returns the *original* ticket — whether its
        work is still in flight or long finished — so a client that lost
        the response frame can ask again without enqueuing anything (a job
        the cache answered whole keeps no ticket: it is answered again).  A
        cached ticket that failed or detached is discarded and the job is
        accepted fresh (a resubmit must be able to heal, not replay an
        error forever).
        """
        names = job.metrics
        rows = isinstance(job.plan_batch[0], str)
        digest = machine_config_hash(job.machine_config)
        log_key = CostLogKey(machine_hash=digest, seed=int(job.seed))
        answers: list = []
        pending: "list[tuple[int, str]]" = []
        # In-flight key -> plan of each acquisition this job waits for.
        wanted: "dict[tuple, Plan]" = {}
        waits: "list[_Inflight]" = []
        # (channel, metric) -> plans this submission owns, one task each.
        missing: "dict[tuple[str, str | None], dict[str, Plan]]" = {}

        with self._lock:
            memo = None if request_id is None else self._request_tickets.get(request_id)
            if memo not in (None, _ANSWERED) and not memo.detached and not memo.failed():
                self._counters["resubmits"] += 1
                return memo
            if self._closed:
                raise ServiceError(f"{self.name} is shut down")
            engine = self._engine_for(log_key, job.machine_config)
            hits = 0
            for item in job.plan_batch:
                key = item if rows else plan_key(item)
                try:
                    answers.append(_answer(key, engine.cached(key), names, rows))
                    hits += len(names)
                except KeyError:
                    plan = parse_plan(item) if rows else item
                    key = plan_key(plan)
                    record = engine.cached(key)
                    pending.append((len(answers), key))
                    answers.append(None)
                    for spec in map(metric_spec, names):
                        if spec.name in record:
                            hits += 1
                            continue
                        metric = None if spec.channel == COUNTER_CHANNEL else spec.name
                        wanted.setdefault((digest, key, log_key.seed, spec.channel, metric), plan)
            # Every key parsed and every name known: register the work.
            for inflight_key, plan in wanted.items():
                entry = self._inflight.get(inflight_key)
                if entry is not None:
                    self._counters["dedup_savings"] += 1
                else:
                    entry = self._inflight[inflight_key] = _Inflight(inflight_key)
                    missing.setdefault(inflight_key[3:], {})[inflight_key[1]] = plan
                entry.waiters += 1
                waits.append(entry)
            if memo is _ANSWERED:
                self._counters["resubmits"] += 1
            else:
                self._counters["jobs"] += 1
                self._counters["store_hits"] += hits
            if request_id is not None and not waits:
                self._request_tickets.put(request_id, _ANSWERED)

        for (channel, metric), plan_by_key in missing.items():
            self._enqueue(
                _Task(channel, job.machine_config, log_key, plan_by_key, metric=metric)
            )
        owned = sum(len(plan_by_key) for plan_by_key in missing.values())
        deadline = None if job.deadline is None else time.monotonic() + job.deadline
        ticket = JobTicket(self, job, engine, answers, pending, waits, owned, deadline)
        if request_id is not None and waits:
            with self._lock:
                self._request_tickets.put(request_id, ticket)
        return ticket

    def lookup(
        self,
        machine_config: MachineConfig,
        plans: Sequence[Plan],
        metrics: Sequence[str] = ("cycles",),
        seed: int = 0,
        timeout: float | None = None,
    ) -> "list[CostRecord]":
        """Submit-and-wait convenience: records of ``plans`` in order."""
        ticket = self.submit(
            CampaignJob(machine_config, tuple(plans), tuple(metrics), int(seed))
        )
        return ticket.result(timeout=timeout)

    # -- raw measurement batches (campaign tables) -------------------------------

    def measure_units(
        self, machine_config: MachineConfig, units: Sequence[WorkUnit]
    ) -> "list[Measurement]":
        """Measure ``units`` on the service's machine, in unit order.

        Runs on the caller's thread, under the machine's lock, so batches on
        one machine never overlap.  Every tenant shares the machine's
        prepared-plan cache, which grows to hold two batches of the largest
        size handed in: a second tenant's copy of a campaign finds every
        plan already prepared and repeats only the per-unit noise draw.  (A
        multiprocess backend prepares in its pool workers, whose caches are
        their own.)  A failing batch evicts the machine (the next batch
        starts from fresh simulator state) and raises to the caller.
        ``drain`` and ``shutdown`` wait for batches in progress.
        """
        digest = machine_config_hash(machine_config)
        with self._lock:
            if self._closed:
                raise ServiceError(f"{self.name} is shut down")
            self._batches += 1
        try:
            with self._machine_lock(digest):
                machine = self._machine_for(machine_config)
                # Room for two batches this size, as a session sizes its cache
                # for its two campaigns: a second tenant's copy of a campaign
                # finds every plan the first one prepared.
                machine.prepared_cache.reserve(
                    2 * len(units) + PreparedPlanCache.DEFAULT_CAPACITY
                )
                try:
                    measurements = self.backend.measure_units(machine, units)
                except Exception:
                    with self._lock:
                        self._machines.pop(digest, None)
                    raise
            with self._lock:
                self._counters["measured"] += len(units)
            return measurements
        finally:
            with self._work_cv:
                self._batches -= 1
                self._work_cv.notify_all()

    # -- worker fleet ------------------------------------------------------------

    def _enqueue(self, task: _Task) -> None:
        """Hand ``task`` to the worker fleet, counting it as outstanding."""
        with self._lock:
            self._outstanding += 1
        self._queue.put(task)

    def _finish_task(self) -> None:
        """Mark one outstanding task terminal (completed or quarantined)."""
        with self._work_cv:
            self._outstanding -= 1
            self._work_cv.notify_all()

    def _worker_loop(self) -> None:
        me = threading.current_thread().name
        while True:
            task = self._queue.get()
            if task is None:
                return
            with self._lock:
                self._executing[me] = task
            try:
                self._execute(task)
            except Exception as exc:
                with self._lock:
                    self._executing.pop(me, None)
                self._handle_failure(task, exc)
            except BaseException:
                # The worker dies — an injected crash, or a genuine
                # interpreter-level failure an ``except Exception`` retry
                # must not paper over.  The task stays in ``_executing`` so
                # the supervisor recovers it, and the thread exits so the
                # supervisor respawns it.
                return
            else:
                with self._lock:
                    self._executing.pop(me, None)
                self._finish_task()

    def _execute(self, task: _Task) -> None:
        """Acquire a record task's missing values through its shard's engine.

        Everything runs under the machine lock, which serialises it against
        every other execution on this machine (simulator state is never
        shared across threads).  Retries re-read the store for their own
        torn tails; shared-store (fleet) services re-read it for *other
        members'* appends.  The engine's cache check then skips everything
        already known — values persisted by an earlier attempt, or by a
        concurrent fresh submit after this ticket detached — so no record
        is ever persisted twice.  The engine appends before it publishes,
        so no waiter is released on a value a crash could lose.
        """
        engine = self._engine_for(task.log_key, task.config)
        names = counter_metric_names() if task.channel == COUNTER_CHANNEL else (task.metric,)
        with self._machine_lock(task.log_key.machine_hash):
            if task.attempts or self.shared_store:
                try:
                    engine.reload()
                except Exception:
                    pass  # a failing store read must not block the retry itself
            # The failure path evicts the machine, so a retry binds a fresh one.
            engine.machine = self._machine_for(task.config)
            before = engine.measured + engine.scored
            engine.records(list(task.plan_by_key.values()), names)
            acquired = engine.measured + engine.scored - before
        with self._lock:
            self._counters[_EXECUTION_COUNTERS[task.channel]] += acquired
        self._resolve(self._task_inflight_keys(task))

    def _resolve(self, inflight_keys) -> None:
        """Pop finished in-flight entries and release their waiters."""
        finished = []
        with self._lock:
            for key in inflight_keys:
                entry = self._inflight.pop(key, None)
                if entry is not None:
                    finished.append(entry)
        for entry in finished:
            entry.event.set()

    def _task_inflight_keys(self, task: _Task) -> "list[tuple]":
        """The in-flight map keys a task's waiters are registered under."""
        return [
            (task.log_key.machine_hash, key, task.log_key.seed, task.channel, task.metric)
            for key in task.plan_by_key
        ]

    def _detach_waits(self, waits: "list[_Inflight]") -> None:
        """Withdraw one ticket's interest in each unfinished entry.

        Entries left with no waiters are unregistered: the next submit of
        the same key owns fresh work.  The already-queued task still
        completes and persists normally — the engine's cache check in
        :meth:`_execute` keeps a subsequent owner from measuring the
        key twice.
        """
        with self._lock:
            for entry in waits:
                if entry.event.is_set():
                    continue
                entry.waiters = max(0, entry.waiters - 1)
                if entry.waiters == 0 and self._inflight.get(entry.key) is entry:
                    del self._inflight[entry.key]

    def _backoff_delay(self, task: _Task) -> float:
        """The delay before ``task``'s next retry.

        ``attempts`` is already incremented when this runs, so the first
        retry (attempts=1) waits ``~backoff_base``; the jitter is keyed by
        the task's identity, so retries are reproducible but
        de-synchronised across tasks.
        """
        return backoff_delay(
            task.attempts,
            self.backoff_base,
            self.backoff_cap,
            self.retry_seed,
            "retry-jitter",
            task.token,
        )

    def _handle_failure(self, task: _Task, exc: BaseException) -> None:
        task.attempts += 1
        with self._lock:
            # Evict the machine so the retry starts from fresh simulator
            # state — whatever broke mid-batch cannot leak into the rerun.
            self._machines.pop(task.log_key.machine_hash, None)
            retry = task.attempts < self.max_attempts and not self._closed
            if retry:
                self._counters["retries"] += 1
                due = time.monotonic() + self._backoff_delay(task)
                heapq.heappush(self._retries, (due, next(self._retry_seq), task))
                self._supervisor_cv.notify_all()
                return
        self._quarantine_task(task, exc)

    def _quarantine_task(self, task: _Task, exc: BaseException) -> None:
        """Dead-letter a task that exhausted its attempts.

        Its waiters receive the failure now; the task itself is parked (not
        dropped) so :meth:`requeue_quarantined` can revive it, and a *fresh*
        submit of the same keys starts over with a clean attempt budget —
        quarantine isolates poison work, it does not blacklist keys.
        """
        entries: "list[_Inflight]" = []
        with self._lock:
            self._counters["failures"] += 1
            for inflight_key in self._task_inflight_keys(task):
                entry = self._inflight.pop(inflight_key, None)
                if entry is not None:
                    entries.append(entry)
            token = task.token
            self._quarantine[token] = QuarantineEntry(
                token=token,
                channel=task.channel,
                machine_hash=task.log_key.machine_hash,
                seed=task.log_key.seed,
                plan_keys=tuple(sorted(task.plan_by_key)),
                metric=task.metric,
                attempts=task.attempts,
                error=repr(exc),
            )
            self._quarantined_tasks[token] = task
        for entry in entries:
            entry.error = exc
            entry.event.set()
        self._finish_task()

    def quarantined(self) -> "tuple[QuarantineEntry, ...]":
        """The dead-letter queue: one report per quarantined task."""
        with self._lock:
            return tuple(self._quarantine.values())

    def requeue_quarantined(self, tokens: "Sequence[str] | None" = None) -> int:
        """Give quarantined tasks a fresh attempt budget and re-enqueue them.

        ``tokens`` selects which (default: all).  Returns how many tasks
        were revived.  Waiters of the original failure are *not* revived —
        they already received their error; new interest attaches through
        fresh submits, which dedupe against the re-registered in-flight
        entries as usual.
        """
        revived: "list[_Task]" = []
        with self._lock:
            if self._closed:
                raise ServiceError(f"{self.name} is shut down")
            selected = list(tokens) if tokens is not None else list(self._quarantine)
            for token in selected:
                self._quarantine.pop(token, None)
                task = self._quarantined_tasks.pop(token, None)
                if task is None:
                    continue
                task.attempts = 0
                for inflight_key in self._task_inflight_keys(task):
                    if inflight_key not in self._inflight:
                        self._inflight[inflight_key] = _Inflight(inflight_key)
                revived.append(task)
        for task in revived:
            self._enqueue(task)
        return len(revived)

    # -- supervision -------------------------------------------------------------

    def _supervise(self) -> None:
        """Fire due retries; detect, recover and respawn dead workers.

        One thread doubles as the retry scheduler (tasks waiting out a
        backoff live in a heap, not in the queue — an instantly-failing
        task cannot starve healthy work) and the worker supervisor (a
        thread that died mid-task leaves the task in ``_executing``; it is
        recovered through the normal failure path, and the thread is
        replaced).  Exits once the service is closed and the heap is empty.
        """
        respawn_ids = itertools.count(1)
        while True:
            fire: "list[_Task]" = []
            recovered: "list[_Task]" = []
            with self._supervisor_cv:
                now = time.monotonic()
                while self._retries and (self._closed or self._retries[0][0] <= now):
                    fire.append(heapq.heappop(self._retries)[2])
                for index, thread in enumerate(self._threads):
                    if thread.is_alive():
                        continue
                    task = self._executing.pop(thread.name, None)
                    if task is not None:
                        recovered.append(task)
                    if not self._closed:
                        replacement = threading.Thread(
                            target=self._worker_loop,
                            name=f"{self.name}-worker-{index}-r{next(respawn_ids)}",
                            daemon=True,
                        )
                        self._threads[index] = replacement
                        self._counters["respawns"] += 1
                        replacement.start()
                if not fire and not recovered:
                    if self._closed and not self._retries:
                        return
                    timeout = self.supervision_interval
                    if self._retries:
                        timeout = min(timeout, max(0.001, self._retries[0][0] - now))
                    self._supervisor_cv.wait(timeout)
                    continue
            for task in fire:
                self._queue.put(task)  # still counted outstanding since _enqueue
            for task in recovered:
                self._handle_failure(task, ServiceError("worker thread died mid-task"))

    # -- clients -----------------------------------------------------------------

    def client(
        self,
        machine: "MachineConfig | SimulatedMachine",
        seed: int = 0,
        objective: "str | Objective" = "cycles",
        fallback: bool = False,
        timeout: float | None = None,
    ) -> "ServiceClient":
        """A cost-engine-compatible client bound to one machine and seed.

        ``fallback=True`` arms graceful degradation: when the service
        cannot answer (failed work, a timeout, or a closed service), the
        client evaluates through a private serial engine instead —
        bit-identical results, no shared dedup.  ``timeout`` bounds each
        submission's wait.
        """
        return ServiceClient(
            self, machine, seed=seed, objective=objective,
            fallback=fallback, timeout=timeout,
        )

    # -- lifecycle ---------------------------------------------------------------

    def drain(self) -> None:
        """Block until every accepted task and ``measure_units`` batch is terminal.

        Unlike a bare queue join, this also covers tasks parked in the
        retry heap and tasks being recovered from a dead worker — a task
        counts until it either completed or reached quarantine.
        """
        with self._work_cv:
            self._work_cv.wait_for(lambda: self._outstanding == self._batches == 0)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker fleet and the supervisor (idempotent).

        ``wait=True`` (the default, the graceful path) drains first, so
        every accepted task reaches a terminal state — note that retries
        stop being *scheduled* once shutdown begins (tasks already waiting
        out a backoff fire immediately, tasks failing during the drain go
        straight to quarantine).  ``wait=False`` refuses new work, drops
        scheduled retries and stops workers after their current task, and
        ``measure_units`` batches already accepted after theirs;
        waiters of anything unfinished receive a :class:`ServiceError`.
        """
        with self._lock:
            if self._closed and not self._threads:
                return
            already_closing = self._closed
            self._closed = True
            dropped = 0
            if not wait:
                dropped = len(self._retries)
                self._retries.clear()
            self._supervisor_cv.notify_all()
        for _ in range(dropped):
            self._finish_task()  # their waiters get the shutdown error below
        if wait and not already_closing:
            self.drain()
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            with self._supervisor_cv:
                self._supervisor_cv.notify_all()
            supervisor.join()
        threads, self._threads = self._threads, []
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join()
        # Fail anything still pending (non-graceful shutdown only).
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
            self._executing.clear()
            self._outstanding = 0
            self._work_cv.notify_all()
        for entry in leftovers:
            if not entry.event.is_set():
                entry.error = ServiceError(f"{self.name} shut down")
                entry.event.set()
        # Batches run on their callers' threads: close the backend only once
        # none can still be using it.
        with self._work_cv:
            self._work_cv.wait_for(lambda: self._batches == 0)
        close_backend = getattr(self.backend, "close", None)
        if callable(close_backend):
            close_backend()
        if self._owns_store:
            close_store = getattr(self.store, "close", None)
            if callable(close_store):
                close_store()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # -- observability -----------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A consistent snapshot of queue, dedup, measurement and shard state."""
        with self._lock:
            counters = dict(self._counters)
            in_flight = len(self._inflight)
            quarantined = len(self._quarantine)
            scheduled = len(self._retries)
            next_eta = (
                max(0.0, self._retries[0][0] - time.monotonic())
                if self._retries
                else None
            )
        shard_stats = getattr(self.store, "shard_stats", None)
        shards = tuple(shard_stats()) if callable(shard_stats) else ()
        return ServiceStats(
            jobs=counters["jobs"],
            queue_depth=self._queue.qsize(),
            in_flight=in_flight,
            store_hits=counters["store_hits"],
            dedup_savings=counters["dedup_savings"],
            measured=counters["measured"],
            model_evaluations=counters["model_evaluations"],
            wall_evaluations=counters["wall_evaluations"],
            retries=counters["retries"],
            failures=counters["failures"],
            workers=len(self._threads),
            quarantined=quarantined,
            respawns=counters["respawns"],
            retrying=scheduled,
            next_retry_eta=next_eta,
            resubmits=counters["resubmits"],
            members=len(self.fleet_members),
            shards=shards,
        )

    def health(self) -> ServiceHealth:
        """Liveness snapshot: worker fleet, retry backlog, quarantine.

        ``degraded`` means the service is still answering but something
        needs attention — dead workers awaiting respawn, dead-lettered
        tasks, or a non-empty retry heap (work is failing and waiting out
        backoff; ``stats().retrying``/``next_retry_eta`` quantify it).
        ``closed`` is terminal; a closed service refuses every submit,
        which clients with ``fallback=True`` serve privately instead.
        """
        with self._lock:
            threads = list(self._threads)
            alive = sum(1 for thread in threads if thread.is_alive())
            closed = self._closed
            quarantined = len(self._quarantine)
            scheduled = len(self._retries)
            respawns = self._counters["respawns"]
        if closed:
            state = "closed"
        elif alive < len(threads) or quarantined or scheduled:
            state = "degraded"
        else:
            state = "ok"
        return ServiceHealth(
            state=state,
            alive_workers=alive,
            expected_workers=len(threads),
            queue_depth=self._queue.qsize(),
            scheduled_retries=scheduled,
            quarantined=quarantined,
            respawns=respawns,
            members=len(self.fleet_members),
        )

    def __repr__(self) -> str:
        return (
            f"CampaignService({self.name!r}, workers={len(self._threads)}, "
            f"backend={getattr(self.backend, 'name', type(self.backend).__name__)}, "
            f"store={self.store!r}, {self.stats().describe()})"
        )


class ServiceClient(EngineSurface):
    """The engine surface over an in-process :class:`CampaignService`.

    Every acquisition routes through the shared service, so any number of
    clients (across threads and sessions) trigger exactly one real
    measurement per distinct ``(machine_hash, plan_key, seed)``.
    ``measured`` counts the acquisitions *this* client's submissions
    enqueued; work served from the shared store or deduped against another
    client is free here, exactly as cache hits are free on a private
    engine.

    With ``fallback=True``, a batch the service cannot answer — failed
    after retries (quarantined work), past the client's ``timeout``, or
    refused by a closed service — is served by the private fallback engine
    of :class:`~repro.runtime.cost_engine.EngineSurface`.  That engine's
    store is an in-memory snapshot of this client's shard, read once from
    the service's store when the engine is built: whatever the service
    persisted by then is a cache hit, and the service stays the store's
    single writer.
    """

    def __init__(
        self,
        service: CampaignService,
        machine: "MachineConfig | SimulatedMachine",
        seed: int = 0,
        objective: "str | Objective" = "cycles",
        fallback: bool = False,
        timeout: float | None = None,
    ):
        super().__init__(machine, objective, seed, fallback)
        self.service = service
        self.timeout = timeout
        #: This client's record shard in the service's store.
        self.key = CostLogKey(
            machine_hash=machine_config_hash(self.config), seed=self.seed
        )

    def _fallback_store(self) -> CampaignStore:
        store = MemoryStore()
        store.append_cost_records(self.key, self.service.store.get_cost_records(self.key))
        return store

    def records(
        self, plans: Sequence[Plan], metrics: Sequence[str] | None = None
    ) -> "list[CostRecord]":
        """Cost records of ``plans`` in order, via the service."""
        names = tuple(metrics) if metrics is not None else self.objective.metrics
        self.evaluations += len(plans)
        try:
            ticket = self.service.submit(
                CampaignJob(self.config, tuple(plans), names, self.seed)
            )
            result = ticket.result(timeout=self.timeout)
        except ServiceError as error:
            return self._degrade(error, plans, names)
        self.measured += ticket.owned_units
        return result

    def __repr__(self) -> str:
        return (
            f"ServiceClient(machine={self.config.name!r}, seed={self.seed}, "
            f"objective={self.objective.describe()!r}, "
            f"{self.measured}/{self.evaluations} measured, "
            f"service={self.service.name!r})"
        )


class ServiceBackend:
    """An :class:`~repro.runtime.backends.ExecutionBackend` over a service.

    Lets the existing campaign driver (``run_campaign``, ``measure_plans``)
    execute through a shared :class:`CampaignService`: every unit batch runs
    on the service's machine (see :meth:`CampaignService.measure_units`), so
    two sessions measuring the same campaign concurrently prepare each
    distinct plan once.
    """

    name = "service"

    def __init__(self, service: CampaignService):
        self.service = service

    def measure_units(
        self, machine: SimulatedMachine, units: Sequence[WorkUnit]
    ) -> "list[Measurement]":
        return self.service.measure_units(machine.config, units)

    def close(self) -> None:
        """No-op: the shared service's lifecycle belongs to its owner."""
        return None

    def __repr__(self) -> str:
        return f"ServiceBackend({self.service.name!r})"


def serve(
    store: "str | CampaignStore | None" = None,
    backend: "str | ExecutionBackend" = "batched",
    workers: int = 2,
    **kwargs: object,
) -> CampaignService:
    """Start a :class:`CampaignService` (the ``repro.serve(...)`` entry point).

    >>> service = repro.serve(store="./campaigns", workers=4)
    >>> a = repro.Session.connect(service)
    >>> b = repro.Session.connect(service)          # shares a's measurements
    >>> best = a.search(14)                          # measured once, total
    >>> service.stats().measured                     # real work, fleet-wide
    """
    from repro.runtime.backends import resolve_backend

    return CampaignService(
        store=store, backend=resolve_backend(backend), workers=workers, **kwargs
    )
