"""Deterministic fault injection for the campaign runtime.

The service's robustness story (DESIGN.md §12) is only worth anything if it
can be *exercised on demand*: a chaos run must fail the same way on every
machine, every CI shard and every bisect step.  This module provides that —
a :class:`FaultPlan` that decides, purely from a seed and a per-site call
counter, whether the *i*-th operation at an injection site fails, and two
wrappers that apply those decisions to real components:

* :class:`FaultyBackend` wraps any
  :class:`~repro.runtime.backends.ExecutionBackend` and injects thrown
  exceptions, added latency, simulated worker deaths and **mid-batch
  crashes** (the first ``k`` units of a batch execute for real, then the
  call dies — exactly the partial-progress shape that turns naive retry
  loops into duplicate-measurement machines).
* :class:`FaultyStore` wraps any :class:`~repro.runtime.store.CampaignStore`
  and makes record appends fail — either *before* anything is written
  (clean failure) or *after* writing plus **tearing the log's tail**
  (a crash mid-``write(2)``: the bytes are partially on disk, the caller
  saw an error, and a later reader must cope with the torn line).
* :class:`~repro.runtime.transport.FaultyTransport` (in the transport
  module) applies the plan's ``network`` spec to the wire: dropped frames,
  added latency, partial writes that disconnect mid-frame, abrupt
  disconnects and garbage frames — the failure shapes a socket client's
  reconnect/resubmit discipline must survive.  Sites whose name starts
  with ``"net"`` draw from the ``network`` spec.

Because every decision is ``derive_seed(seed, "fault", site, index)``-driven,
two runs over the same workload see the same fault at the same operation;
``REPRO_CHAOS_SEED`` (see ``tests/runtime/test_faults.py``) turns the CI
chaos job into a seed matrix instead of a dice roll.

Poison work is a separate axis: ``poison_plans`` names plan keys whose
batches *always* fail, independent of rates — the deterministic-poison job
that must end in the service's quarantine rather than an infinite retry
loop.

>>> plan = FaultPlan(seed=7, backend=FaultSpec(error_rate=0.25))
>>> chaotic = FaultyBackend(BatchedBackend(), plan)
>>> service = CampaignService(backend=chaotic)    # doctest: +SKIP
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.machine.machine import SimulatedMachine
from repro.machine.measurement import Measurement
from repro.runtime.backends import ExecutionBackend, WorkUnit
from repro.runtime.store import CampaignKey, CampaignStore, CostLogKey, CostRecords
from repro.runtime.table import MeasurementTable
from repro.util.rng import derive_seed
from repro.wht.encoding import plan_key

__all__ = [
    "InjectedFault",
    "InjectedCrash",
    "FaultSpec",
    "FaultDecision",
    "FaultPlan",
    "FaultyBackend",
    "FaultyStore",
]


class InjectedFault(RuntimeError):
    """An exception raised on purpose by a fault wrapper (an *expected* chaos
    failure, distinguishable from a real defect in test assertions)."""


class InjectedCrash(BaseException):
    """A simulated worker-thread death.

    Deliberately **not** an :class:`Exception`: the service's worker loop
    catches ``Exception`` for its retry discipline, so an ``InjectedCrash``
    escapes it and kills the thread exactly as a segfaulting C extension or
    an interpreter-level error would — the case worker supervision exists
    for.
    """


#: One in 2^53 resolution is plenty for rates; keep the draw integer-exact.
_DRAW_DENOMINATOR = float(1 << 53)


def _draw(seed: int, *tags: object) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from a seed and tags."""
    return (derive_seed(seed, *[str(tag) for tag in tags]) >> 10) / _DRAW_DENOMINATOR


@dataclass(frozen=True)
class FaultSpec:
    """Per-site fault rates (all independent probabilities in ``[0, 1]``).

    ``error_rate`` — raise :class:`InjectedFault` before doing any work.
    ``crash_rate`` — *backend only*: execute a prefix of the batch for real,
    then raise (partial progress, nothing reported to the caller).
    ``torn_tail_rate`` — *store only*: perform the append, then truncate the
    log mid-line and raise (a crash inside ``write(2)``).
    ``kill_rate`` — *backend only*: raise :class:`InjectedCrash`, killing the
    calling worker thread outright.
    ``delay_rate``/``delay`` — sleep ``delay`` seconds before proceeding
    (latency injection; the operation itself succeeds).

    At a **network** site (:class:`~repro.runtime.transport.FaultyTransport`)
    the same axes map onto wire failures: ``error`` drops the frame and
    resets the connection, ``crash`` writes a prefix of the frame's bytes
    and disconnects mid-frame (``crash_fraction`` picks how much of the
    frame lands), ``torn`` delivers a garbage frame (correct length prefix,
    corrupted payload), ``kill`` disconnects abruptly before writing
    anything, and ``delay`` adds latency.
    """

    error_rate: float = 0.0
    crash_rate: float = 0.0
    torn_tail_rate: float = 0.0
    kill_rate: float = 0.0
    delay_rate: float = 0.0
    delay: float = 0.001

    def __post_init__(self) -> None:
        for name in ("error_rate", "crash_rate", "torn_tail_rate", "kill_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {rate}")
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")

    @property
    def total_failure_rate(self) -> float:
        """The probability an operation at this site raises (any mode)."""
        ok = (
            (1.0 - self.error_rate)
            * (1.0 - self.crash_rate)
            * (1.0 - self.torn_tail_rate)
            * (1.0 - self.kill_rate)
        )
        return 1.0 - ok


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one operation at one site (at most one failure mode)."""

    index: int
    error: bool = False
    crash_fraction: float | None = None  # backend: fraction of units to run first
    torn: bool = False
    kill: bool = False
    delay: float = 0.0

    @property
    def fails(self) -> bool:
        return self.error or self.crash_fraction is not None or self.torn or self.kill


class FaultPlan:
    """A seed-deterministic schedule of faults across named injection sites.

    Each site (``"backend"``, ``"store"``, ``"net-send"``/``"net-recv"``
    — any ``net*`` site draws from the ``network`` spec — any ``fleet*``
    site draws from the ``fleet`` spec (member kill / member partition,
    see :class:`~repro.runtime.fleet.FleetClient`), or any name a
    custom wrapper picks) owns a thread-safe call counter; the decision
    for call ``i`` is a
    pure function of ``(seed, site, i)`` — independent of thread timing, so
    a run is reproducible as long as the per-site *order* of operations is
    (which the service guarantees by serialising execution per machine and
    per shard writer).

    ``poison_plans`` accepts plans or plan-key strings; any backend batch
    containing one always raises, regardless of rates — the deterministic
    poison jobs the service must quarantine.
    """

    def __init__(
        self,
        seed: int = 0,
        backend: FaultSpec | None = None,
        store: FaultSpec | None = None,
        network: FaultSpec | None = None,
        fleet: FaultSpec | None = None,
        poison_plans: Sequence[object] = (),
    ):
        self.seed = int(seed)
        self.backend = backend if backend is not None else FaultSpec()
        self.store = store if store is not None else FaultSpec()
        self.network = network if network is not None else FaultSpec()
        self.fleet = fleet if fleet is not None else FaultSpec()
        self.poison_keys = frozenset(
            key if isinstance(key, str) else plan_key(key) for key in poison_plans
        )
        self._lock = threading.Lock()
        self._counters: dict[str, itertools.count] = {}
        self._injected: dict[str, int] = {}
        self._calls: dict[str, int] = {}

    def _spec_for(self, site: str) -> FaultSpec:
        if site == "store":
            return self.store
        if site.startswith("fleet"):
            return self.fleet
        if site.startswith("net"):
            return self.network
        return self.backend

    def decide(self, site: str) -> FaultDecision:
        """Consume one call at ``site`` and return its fate.

        At most one failure mode fires per call (priority: kill, crash,
        torn tail, error), plus an independent latency decision — an
        operation can be slow *and* then fail, like real hardware.
        """
        with self._lock:
            counter = self._counters.get(site)
            if counter is None:
                counter = self._counters[site] = itertools.count()
            index = next(counter)
            self._calls[site] = index + 1
        decision = self.peek(site, index)
        if decision.fails:
            with self._lock:
                self._injected[site] = self._injected.get(site, 0) + 1
        return decision

    def peek(self, site: str, index: int) -> FaultDecision:
        """The decision for call ``index`` at ``site``, without consuming it."""
        spec = self._spec_for(site)
        kill = _draw(self.seed, "fault", site, index, "kill") < spec.kill_rate
        crash = _draw(self.seed, "fault", site, index, "crash") < spec.crash_rate
        torn = _draw(self.seed, "fault", site, index, "torn") < spec.torn_tail_rate
        error = _draw(self.seed, "fault", site, index, "error") < spec.error_rate
        delayed = _draw(self.seed, "fault", site, index, "delay") < spec.delay_rate
        fraction: float | None = None
        if kill:
            crash = torn = error = False
        elif crash:
            fraction = _draw(self.seed, "fault", site, index, "fraction")
            torn = error = False
        elif torn:
            error = False
        return FaultDecision(
            index=index,
            error=error,
            crash_fraction=fraction,
            torn=torn,
            kill=kill,
            delay=spec.delay if delayed else 0.0,
        )

    def injected(self, site: str | None = None) -> int:
        """How many failures have been injected (at ``site``, or in total)."""
        with self._lock:
            if site is not None:
                return self._injected.get(site, 0)
            return sum(self._injected.values())

    def calls(self, site: str) -> int:
        """How many operations ``site`` has seen."""
        with self._lock:
            return self._calls.get(site, 0)

    def __repr__(self) -> str:
        with self._lock:
            calls = dict(self._calls)
            injected = dict(self._injected)
        return (
            f"FaultPlan(seed={self.seed}, calls={calls}, injected={injected}, "
            f"poison={len(self.poison_keys)})"
        )


class FaultyBackend:
    """An :class:`~repro.runtime.backends.ExecutionBackend` that misbehaves
    on the :class:`FaultPlan`'s schedule.

    Failure modes, in the order they are applied to one ``measure_units``
    call:

    1. **Poison**: a batch containing a poisoned plan always raises —
       the deterministic failure that must end in quarantine.
    2. **Kill**: raise :class:`InjectedCrash` (a ``BaseException``) —
       the calling worker thread dies.
    3. **Crash mid-batch**: really execute the first ``k`` units on the
       machine (mutating simulator state, warming caches), then raise.
       Nothing is reported to the caller — the retry must cope with the
       partial progress without persisting duplicates.
    4. **Error**: raise before touching the machine.
    5. **Delay**: sleep, then execute normally.
    """

    def __init__(self, inner: ExecutionBackend, plan: FaultPlan, site: str = "backend"):
        self.inner = inner
        self.plan = plan
        self.site = site
        self.name = f"faulty-{getattr(inner, 'name', type(inner).__name__)}"

    def measure_units(
        self, machine: SimulatedMachine, units: Sequence[WorkUnit]
    ) -> "list[Measurement]":
        poisoned = [
            key for key in (plan_key(unit.plan) for unit in units)
            if key in self.plan.poison_keys
        ]
        if poisoned:
            raise InjectedFault(f"poisoned plan in batch: {poisoned[0]}")
        decision = self.plan.decide(self.site)
        if decision.delay > 0.0:
            time.sleep(decision.delay)
        if decision.kill:
            raise InjectedCrash(f"injected worker death (call {decision.index})")
        if decision.crash_fraction is not None:
            prefix = units[: max(1, int(len(units) * decision.crash_fraction))]
            if len(prefix) < len(units):
                self.inner.measure_units(machine, list(prefix))
            raise InjectedFault(
                f"injected mid-batch crash after {len(prefix)}/{len(units)} units "
                f"(call {decision.index})"
            )
        if decision.error:
            raise InjectedFault(f"injected backend failure (call {decision.index})")
        return self.inner.measure_units(machine, units)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()

    def __repr__(self) -> str:
        return f"FaultyBackend({self.inner!r}, {self.plan!r})"


class FaultyStore:
    """A :class:`~repro.runtime.store.CampaignStore` whose record appends
    fail on the :class:`FaultPlan`'s schedule.

    Two failure modes (reads always pass through — the lock-free reader path
    is exercised by the *consequences*, not by failing the read call):

    * **Error**: raise before delegating — nothing was written.
    * **Torn tail**: delegate the append, then truncate the log file
      mid-line and raise.  This is a crash inside ``write(2)``: some bytes
      landed, the writer saw an error, and the log now ends in a partial
      line a reader must skip.  A retried append rewrites the same values,
      so recovery is an idempotent merge, never a duplicate record.

    Disk-backed stores (:class:`~repro.runtime.store.DiskStore` and its
    subclasses) expose their log path for the tear; for in-memory stores a
    scheduled tear degrades to a plain post-append error.
    """

    def __init__(self, inner: CampaignStore, plan: FaultPlan, site: str = "store"):
        self.inner = inner
        self.plan = plan
        self.site = site

    # -- faulted write path ------------------------------------------------------

    def append_cost_records(
        self, key: CostLogKey, records: Mapping[str, Mapping[str, float]]
    ) -> None:
        decision = self.plan.decide(self.site)
        if decision.delay > 0.0:
            time.sleep(decision.delay)
        if decision.error:
            raise InjectedFault(f"injected store failure (call {decision.index})")
        self.inner.append_cost_records(key, records)
        if decision.torn:
            self._tear_tail(key)
            raise InjectedFault(
                f"injected crash mid-append: log tail torn (call {decision.index})"
            )

    def _tear_tail(self, key: CostLogKey) -> None:
        log_path = getattr(self.inner, "log_path", None)
        path = log_path(key) if callable(log_path) else None
        if path is None or not os.path.exists(path):
            return
        size = os.path.getsize(path)
        if size < 4:
            return
        with open(path, "rb") as handle:
            handle.seek(max(0, size - 512))
            tail = handle.read()
        # Cut into the final record: strip the trailing newline, then drop
        # half of the last line so what remains cannot parse as JSON.
        stripped = tail.rstrip(b"\n")
        last_line_start = stripped.rfind(b"\n") + 1
        last_line = stripped[last_line_start:]
        if not last_line:
            return
        keep = size - len(tail) + last_line_start + max(1, len(last_line) // 2)
        with open(path, "rb+") as handle:
            handle.truncate(keep)

    # -- transparent delegation --------------------------------------------------

    def get(self, key: CampaignKey) -> MeasurementTable | None:
        return self.inner.get(key)

    def put(self, key: CampaignKey, table: MeasurementTable) -> None:
        self.inner.put(key, table)

    def get_cost_records(self, key: CostLogKey) -> CostRecords:
        return self.inner.get_cost_records(key)

    def compact_cost_records(self, key: CostLogKey) -> None:
        self.inner.compact_cost_records(key)

    def clear(self) -> None:
        self.inner.clear()

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()

    def __getattr__(self, name: str):
        # Optional-protocol passthrough (shard_stats, cost_logs, ...):
        # the wrapper is as capable as whatever it wraps.
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return f"FaultyStore({self.inner!r}, {self.plan!r})"
