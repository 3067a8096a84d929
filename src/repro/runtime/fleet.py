"""Fleet topology: many servers, one record space.

The transport puts one :class:`~repro.runtime.service.CampaignService`
behind a socket; this module puts **one or several** behind a single
engine surface.  A :class:`FleetClient`
(``Session.connect(["tcp://a", "tcp://b", ...])``, or
``Session.connect("tcp://a")`` for a one-member fleet) stripes every
submit across the member servers by
``hash(machine_hash, plan_key)`` over a **rendezvous ring** — a pure
derivation, so each key has one well-defined owner at any membership,
which the client caches per live ring: a warm round hashes nothing —
while all members persist into one shared record space (a
:class:`~repro.runtime.sharded_store.ShardedRecordStore` directory — one
flat directory, one append log per ``(machine_hash, seed)`` key — whose
flock-guarded whole-batch appends make concurrent writers safe).

Robustness discipline
---------------------

* **Membership.**  A :class:`MembershipRegistry` tracks each member as
  ``healthy`` / ``draining`` / ``partitioned`` / ``dead``.  Members can
  :meth:`join <FleetClient.add_member>` at runtime; ``draining`` and
  death are learned passively from submit outcomes and from the
  ``draining`` flag of heartbeat ``pong`` replies, or actively via
  :meth:`FleetClient.probe`.  The client is the only router: a server
  measures every key of a submit it accepts.
* **Failover.**  On member death or a ``draining`` answer, the failed
  group's keys **rehash over the survivors** and are resubmitted.  A
  group that lands back on the same member (a healed partition) reuses
  its *original request id*, so the server's ticket LRU answers "work
  done, response lost" with the finished ticket — one extra round trip,
  zero duplicate measurements.  A group adopted by a *different*
  survivor cannot be deduped by ids (the dead member's ticket table died
  with it); there the shared record space closes the gap: a
  ``shared_store=True`` service re-reads the store under the machine
  lock before measuring, so everything the dead member persisted is
  served as store hits and only genuinely lost work is re-executed.
* **Chaos.**  The fault plan's ``fleet`` axis injects member-level
  faults at sites ``"fleet-<url>"``, deterministically per seed: a
  ``kill`` decision is permanent member death, an ``error`` decision is
  a **partition** that heals after ``partition_duration`` seconds.  The
  chaos invariant (tests/runtime/test_fleet.py): DP n=14 against a
  3-server fleet with one member SIGKILLed — or partitioned — mid-search
  completes bit-identically to a serial engine with zero duplicate
  measurements and zero conflicting persisted records.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Sequence

from repro.machine.machine import MachineConfig, SimulatedMachine
from repro.runtime.cost_engine import EngineSurface
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import CostRecord
from repro.runtime.objectives import Objective
from repro.runtime.service import ServiceError
from repro.runtime.store import machine_config_hash
from repro.runtime.transport import (
    RemoteServiceError,
    RemoteTransport,
    TransportError,
    machine_config_to_wire,
)
from repro.util.lru import LRUCache
from repro.util.rng import derive_seed
from repro.wht.encoding import plan_key
from repro.wht.plan import Plan

__all__ = [
    "HEALTHY",
    "DRAINING",
    "PARTITIONED",
    "DEAD",
    "ring_weight",
    "ring_owner",
    "ring_assign",
    "MembershipRegistry",
    "FleetClient",
    "RemoteServiceClient",
]

#: Membership states.  ``healthy`` members receive striped work;
#: ``draining`` and ``dead`` never do; ``partitioned`` members rejoin
#: the ring when their partition heals.
HEALTHY = "healthy"
DRAINING = "draining"
PARTITIONED = "partitioned"
DEAD = "dead"


# -- the ring ------------------------------------------------------------------


def ring_weight(member: str, machine_hash: str, key: str) -> int:
    """Rendezvous (highest-random-weight) score of ``member`` for one key.

    A pure function of ``(member, machine_hash, plan_key)`` through
    :func:`~repro.util.rng.derive_seed` — no shared state, so the same
    member list always gives the same ownership, and removing a member
    moves *only that member's keys*.
    """
    return derive_seed(0, "fleet-ring", member, machine_hash, key)


def ring_owner(members: Sequence[str], machine_hash: str, key: str) -> str:
    """The member owning ``(machine_hash, key)`` under rendezvous hashing."""
    if not members:
        raise ServiceError("fleet has no live members")
    if len(members) == 1:
        return members[0]  # the sole member owns every key
    return max(members, key=lambda member: (ring_weight(member, machine_hash, key), member))


def ring_assign(
    members: Sequence[str], machine_hash: str, keys: Sequence[str]
) -> "dict[str, list[str]]":
    """Group ``keys`` by :func:`ring_owner`, preserving key order within groups."""
    groups: "dict[str, list[str]]" = {}
    for key in keys:
        groups.setdefault(ring_owner(members, machine_hash, key), []).append(key)
    return groups


# -- membership ----------------------------------------------------------------


class MembershipRegistry:
    """A thread-safe member table: URL -> state, with partition healing.

    The registry is the client-side source of truth for striping:
    :meth:`alive` is the ring's member list.  ``version`` bumps on every
    state change, so observers can detect membership churn cheaply.
    """

    def __init__(self, urls: Sequence[str]):
        members = list(dict.fromkeys(urls))
        if not members:
            raise ValueError("a fleet needs at least one member URL")
        self._lock = threading.Lock()
        self._states: "dict[str, str]" = {url: HEALTHY for url in members}
        #: Monotonic heal deadline per partitioned member.
        self._heals: "dict[str, float]" = {}
        self.version = 0

    def members(self) -> "tuple[str, ...]":
        with self._lock:
            return tuple(self._states)

    def alive(self) -> "tuple[str, ...]":
        """Members currently eligible for striped submits."""
        now = time.monotonic()
        with self._lock:
            healed = [
                url
                for url, deadline in self._heals.items()
                if deadline <= now and self._states.get(url) == PARTITIONED
            ]
            for url in healed:
                del self._heals[url]
                self._states[url] = HEALTHY
                self.version += 1
            return tuple(url for url, state in self._states.items() if state == HEALTHY)

    def state(self, url: str) -> "str | None":
        with self._lock:
            return self._states.get(url)

    def snapshot(self) -> "dict[str, str]":
        with self._lock:
            return dict(self._states)

    def mark(self, url: str, state: str) -> bool:
        """Transition ``url`` to ``state``; dead is terminal.  Returns changed."""
        with self._lock:
            current = self._states.get(url)
            if current is None or current == state or current == DEAD:
                return False
            if current == DRAINING and state == HEALTHY:
                return False  # drain is one-way for striping purposes
            self._states[url] = state
            self._heals.pop(url, None)
            self.version += 1
            return True

    def mark_partitioned(self, url: str, duration: float) -> bool:
        """Mark ``url`` unreachable, healing after ``duration`` seconds."""
        with self._lock:
            current = self._states.get(url)
            if current is None or current in (DEAD, DRAINING):
                return False
            self._states[url] = PARTITIONED
            self._heals[url] = time.monotonic() + float(duration)
            self.version += 1
            return True

    def earliest_heal(self) -> "float | None":
        """Seconds until the next partitioned member heals (None if none will)."""
        now = time.monotonic()
        with self._lock:
            deadlines = [
                deadline
                for url, deadline in self._heals.items()
                if self._states.get(url) == PARTITIONED
            ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - now)

    def add(self, url: str) -> bool:
        """A member joins (or rejoins after death) at runtime."""
        with self._lock:
            if self._states.get(url) == HEALTHY:
                return False
            self._states[url] = HEALTHY
            self._heals.pop(url, None)
            self.version += 1
            return True

    def __repr__(self) -> str:
        with self._lock:
            states = dict(self._states)
        return f"MembershipRegistry({states}, version={self.version})"


# -- the client ----------------------------------------------------------------


class _GroupFailure(Exception):
    """One striped group failed; its keys rehash over the survivors."""


class FleetClient(EngineSurface):
    """The engine surface over one or more :class:`ServiceServer`\\ s.

    ``urls`` is a list of member URLs, or one URL: a single server is a
    one-member fleet.  Every acquisition is striped by
    ``(machine_hash, plan_key)`` over the live members of a rendezvous
    ring.  Values are bit-identical to a private serial engine no matter
    which member measures: plans travel as canonical keys, the machine as
    its exact configuration payload, and noise seeds derive per plan on
    whichever side executes.

    A member whose group fails is marked partitioned (dead on a repeat)
    or draining, and its keys rehash over the survivors.  When no other
    live member is left to fail over to, the failure raises instead —
    :class:`~repro.runtime.transport.TransportError` for a dead wire,
    :class:`~repro.runtime.transport.RemoteServiceError` for a draining
    server — and marks nothing, so the next call redials.  That makes a
    one-member fleet the plain single-server client, which also skips
    ring hashing and defaults to 8 reconnect attempts (3 for several
    members, so failover stays fast).  ``fallback=True`` serves a batch
    that raised through the private engine of
    :class:`~repro.runtime.cost_engine.EngineSurface`.  A closed client
    raises :class:`~repro.runtime.transport.TransportError` and never
    redials.
    """

    def __init__(
        self,
        urls: "str | Sequence[str]",
        machine: "MachineConfig | SimulatedMachine",
        seed: int = 0,
        objective: "str | Objective" = "cycles",
        fallback: bool = False,
        timeout: "float | None" = None,
        *,
        connect_timeout: float = 5.0,
        heartbeat_interval: "float | None" = 2.0,
        max_attempts: "int | None" = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retry_seed: int = 0,
        fault_plan: "FaultPlan | None" = None,
        partition_duration: float = 0.25,
        client_id: "str | None" = None,
    ):
        super().__init__(machine, objective, seed, fallback)
        self.registry = MembershipRegistry([urls] if isinstance(urls, str) else urls)
        if max_attempts is None:
            max_attempts = 8 if len(self.registry.members()) == 1 else 3
        self.timeout = timeout
        self.fault_plan = fault_plan
        self.partition_duration = float(partition_duration)
        self._machine_payload = machine_config_to_wire(self.config)
        self.machine_hash = machine_config_hash(self.config)
        self._transport_options = {
            "connect_timeout": connect_timeout,
            "heartbeat_interval": heartbeat_interval,
            "max_attempts": max_attempts,
            "backoff_base": backoff_base,
            "backoff_cap": backoff_cap,
            "retry_seed": retry_seed,
            "fault_plan": fault_plan,
        }
        self._lock = threading.Lock()
        #: The member connections, by URL (emptied by :meth:`close`).
        self.transports: "dict[str, RemoteTransport]" = {}
        #: Consecutive transport failures per member: one failure is a
        #: partition (it may heal), two in a row without a success in
        #: between is death — a SIGKILLed member stops costing rounds.
        self._failures: "dict[str, int]" = {}
        #: Each key's ring owner, memoised for the live-member tuple ``_ring``.
        self._ring, self._owners = (), LRUCache(1 << 16)
        self._seq = 0
        self.client_id = client_id or uuid.uuid4().hex[:12]
        #: Groups rehashed to survivors after a member died or drained.
        self.failovers = 0
        #: Always 0: a member measures every key it is sent and never
        #: forwards one.  Kept because the benchmark's tracer reads it.
        self.redirects = 0
        #: Injected fleet faults (the fault plan's ``fleet`` axis).
        self.injected_kills = 0
        self.injected_partitions = 0
        self.closed = False
        for url in self.registry.members():
            self._transport_for(url)

    # -- members -------------------------------------------------------------

    def _transport_for(self, url: str) -> RemoteTransport:
        with self._lock:
            if self.closed:
                raise TransportError(f"transport to {url} is closed")
            transport = self.transports.get(url)
            if transport is None:
                transport = RemoteTransport(url, **self._transport_options)
                transport.on_pong = self._pong_handler(url)
                self.transports[url] = transport
        return transport

    def _pong_handler(self, url: str):
        def handle(frame: "dict | None") -> None:
            if frame is None:
                return  # a failed probe; death is decided at submit time
            if frame.get("draining"):
                self.registry.mark(url, DRAINING)

        return handle

    def _can_fail_over(self, url: str) -> bool:
        """Whether a live member other than ``url`` could adopt its keys."""
        return any(member != url for member in self.registry.alive())

    def add_member(self, url: str) -> bool:
        """A member joins the ring at runtime; new keys stripe to it."""
        joined = self.registry.add(url)
        self._transport_for(url)
        return joined

    def probe(self, timeout: float = 2.0) -> "dict[str, str]":
        """Actively health-probe every member (the heartbeat ping, on demand).

        Updates the registry from each reply: an unreachable
        healthy member is marked partitioned (it may heal), a draining
        reply marks it draining.  Returns the post-probe state map.
        """
        for url in self.registry.members():
            state = self.registry.state(url)
            if state == DEAD:
                continue
            transport = self._transport_for(url)
            try:
                reply = transport.call(
                    {"type": "ping", "id": transport.next_request_id()}, timeout=timeout
                )
            except (TransportError, RemoteServiceError):
                self.registry.mark_partitioned(url, self.partition_duration)
                continue
            self._failures[url] = 0
            handler = transport.on_pong
            if handler is not None:
                handler(reply)
        return self.registry.snapshot()

    def next_request_id(self) -> str:
        """Fleet-level request ids: stable across member failover."""
        with self._lock:
            self._seq += 1
            return f"{self.client_id}:f{self._seq}"

    # -- striped submission ---------------------------------------------------

    def _assign(self, members: "tuple[str, ...]", keys: Sequence[str]) -> "dict[str, list[str]]":
        """:func:`ring_assign` over the live ``members``, through the owner memo."""
        groups: "dict[str, list[str]]" = {}
        with self._lock:
            if members != self._ring:
                self._ring, self._owners = members, LRUCache(1 << 16)
            for key in keys:
                owner = self._owners.get(key)
                if owner is None:
                    owner = ring_owner(members, self.machine_hash, key)
                    self._owners.put(key, owner)
                groups.setdefault(owner, []).append(key)
        return groups

    def _inject(self, url: str) -> None:
        """Consume one fleet fault decision for a submit to ``url``."""
        if self.fault_plan is None:
            return
        decision = self.fault_plan.decide(f"fleet-{url}")
        if decision.delay:
            time.sleep(decision.delay)
        if decision.kill:
            self.injected_kills += 1
            self.registry.mark(url, DEAD)
            raise _GroupFailure(f"injected member kill: {url}")
        if decision.error:
            self.injected_partitions += 1
            self.registry.mark_partitioned(url, self.partition_duration)
            raise _GroupFailure(f"injected member partition: {url}")

    def _send_group(
        self, url: str, rid: str, keys: Sequence[str], names: "tuple[str, ...]"
    ) -> "tuple[RemoteTransport, dict, object]":
        """Send one striped sub-batch to its owner, for :meth:`_await_group`."""
        self._inject(url)
        transport = self._transport_for(url)
        frame = {
            "type": "submit",
            "id": rid,
            "machine": self._machine_payload,
            "plans": list(keys),
            "metrics": list(names),
            "seed": self.seed,
        }
        return transport, frame, transport.send(frame)

    def _await_group(
        self, url: str, transport: RemoteTransport, frame: dict, sent: object
    ) -> "tuple[dict[str, dict[str, float]], int]":
        """A sent group's ``(values, owned)``, its timeout counted from its send;
        raises :class:`_GroupFailure` when its keys should rehash over the survivors."""
        try:
            reply = transport.call(frame, timeout=self.timeout, sent=sent)
        except TransportError as exc:
            if not self._can_fail_over(url):
                raise
            # The member's reconnect budget is exhausted: the first time,
            # treat it as a partition (it may come back) and rehash its
            # keys now; a repeat without an intervening success is death.
            failures = self._failures[url] = self._failures.get(url, 0) + 1
            if failures >= 2:
                self.registry.mark(url, DEAD)
            else:
                self.registry.mark_partitioned(url, self.partition_duration)
            raise _GroupFailure(f"member {url} unreachable: {exc}") from exc
        self._failures[url] = 0
        kind = reply.get("type")
        if kind == "result":
            values = {
                record["p"]: {name: float(value) for name, value in record["v"].items()}
                for record in reply["records"]
            }
            return values, int(reply.get("owned", 0))
        if kind == "draining":
            if not self._can_fail_over(url):
                raise RemoteServiceError(f"{url} is draining and refused the submit")
            self.registry.mark(url, DRAINING)
            raise _GroupFailure(f"member {url} is draining")
        raise RemoteServiceError(
            reply.get("message", f"unexpected reply type {kind!r} from {url}")
        )

    def _acquire(
        self, keys: Sequence[str], names: "tuple[str, ...]"
    ) -> "dict[str, dict[str, float]]":
        """Stripe ``keys`` across the live ring until every key has values.

        Each round assigns the pending keys over the currently-alive
        members, sends every group's frame, then waits for each reply on
        the calling thread; groups whose member died or drained mid-round
        are rehashed over the survivors in the next round.  Request ids are
        remembered per ``(member, group)``, so a group resubmitted to the
        *same* member (a healed partition) reuses its original id and
        dedupes against the member's ticket table; groups adopted by a
        different member dedupe through the shared record space instead.
        """
        pending = list(dict.fromkeys(keys))
        values: "dict[str, dict[str, float]]" = {}
        rids: "dict[tuple[str, tuple[str, ...]], str]" = {}
        while pending:
            members = self.registry.alive()
            if not members:
                heal = self.registry.earliest_heal()
                if heal is None:
                    raise RemoteServiceError(
                        f"no live fleet members (registry: {self.registry.snapshot()})"
                    )
                time.sleep(min(heal + 0.01, self.partition_duration))
                continue
            groups = self._assign(members, pending)
            outcomes: "dict[str, object]" = {}
            for url, keys_for_url in groups.items():
                rid_key = (url, tuple(keys_for_url))
                rid = rids[rid_key] = rids.get(rid_key) or self.next_request_id()
                try:
                    outcomes[url] = self._send_group(url, rid, keys_for_url, names)
                except (_GroupFailure, ServiceError) as exc:
                    outcomes[url] = exc
            pending, error = [], None
            for url, keys_for_url in groups.items():
                try:
                    if isinstance(outcomes[url], Exception):
                        raise outcomes[url]
                    group_values, owned = self._await_group(url, *outcomes[url])
                except _GroupFailure:
                    self.failovers += 1
                    pending.extend(keys_for_url)
                except ServiceError as exc:
                    error = error or exc  # raised once every sent group is answered
                else:
                    values.update(group_values)
                    self.measured += owned
            if error is not None:
                raise error
        return values

    # -- engine surface -------------------------------------------------------

    def records(
        self, plans: Sequence[Plan], metrics: "Sequence[str] | None" = None
    ) -> "list[CostRecord]":
        """Cost records of ``plans`` in order, striped across the fleet."""
        names = tuple(metrics) if metrics is not None else self.objective.metrics
        self.evaluations += len(plans)
        keys = [plan_key(plan) for plan in plans]
        try:
            values = self._acquire(keys, names)
        except ServiceError as error:
            return self._degrade(error, plans, names)
        return [CostRecord(plan_key=key, values=values[key]) for key in keys]

    # -- observability --------------------------------------------------------

    def fleet_stats(self) -> dict:
        """Client-side fleet counters plus the registry snapshot."""
        states = self.registry.snapshot()
        return {
            "members": len(states),
            "members_healthy": sum(1 for s in states.values() if s == HEALTHY),
            "failovers": self.failovers,
            "injected_kills": self.injected_kills,
            "injected_partitions": self.injected_partitions,
            "states": states,
        }

    def _ask(self, kind: str, timeout: "float | None") -> "dict[str, dict]":
        """Each reachable member's ``kind`` reply frame, keyed by URL."""
        replies: "dict[str, dict]" = {}
        for url in self.registry.members():
            transport = self._transport_for(url)
            try:
                reply = transport.call(
                    {"type": kind, "id": transport.next_request_id()}, timeout=timeout
                )
            except (TransportError, RemoteServiceError):
                continue
            if reply.get("type") == kind:
                replies[url] = reply
        return replies

    def server_stats(self, timeout: "float | None" = 5.0) -> "dict[str, dict]":
        """Each reachable member's service counters, keyed by URL."""
        return {url: reply["stats"] for url, reply in self._ask("stats", timeout).items()}

    def server_health(self, timeout: "float | None" = 5.0) -> "dict[str, dict]":
        """Each reachable member's health (``draining`` while drained), keyed by URL."""
        return {
            url: {"state": reply["state"], "detail": reply.get("detail", "")}
            for url, reply in self._ask("health", timeout).items()
        }

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close every member transport (joining their threads) — idempotent."""
        with self._lock:
            self.closed = True
            transports, self.transports = list(self.transports.values()), {}
        for transport in transports:
            transport.close()
        super().close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        states = self.registry.snapshot()
        healthy = sum(1 for s in states.values() if s == HEALTHY)
        return (
            f"FleetClient({len(states)} members, {healthy} healthy, "
            f"machine={self.config.name!r}, seed={self.seed}, "
            f"{self.measured}/{self.evaluations} measured, "
            f"failovers={self.failovers})"
        )


def RemoteServiceClient(
    url: str, machine: "MachineConfig | SimulatedMachine", seed: int = 0, **options: object
) -> FleetClient:
    """The client of the single server at ``url``: a one-member :class:`FleetClient`."""
    return FleetClient(url, machine, seed, **options)
