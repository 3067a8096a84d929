"""Multi-host service transport: JSON frames over TCP / Unix-domain sockets.

The :class:`~repro.runtime.service.CampaignService` makes measurement a
*service* for any number of in-process tenants; this module makes it a
service for tenants on **other hosts**.  PR 6's backend protocol and
single-writer shard discipline left exactly one gap — a wire — and the
robustness machinery of DESIGN.md §12 (deterministic retries, idempotent
re-execution, chaos injection) extends across it unchanged:

* :func:`serve_tcp` / :func:`serve_unix` start a :class:`ServiceServer` —
  a threaded accept loop fronting an existing service.  Each connection
  speaks **length-prefixed JSON frames** (4-byte big-endian length, then a
  UTF-8 JSON object).  A connection's ``hello`` declares its machine
  once (protocol version 2); a ``submit`` carries plan keys and metric
  names only, and its ``result`` is one row of values per key, in the
  submit's order.  A submit is answered on the connection thread when
  the record cache holds every key; otherwise a handler thread waits for
  its ticket, so a slow batch never blocks the connection's heartbeats.
  The keys go to :meth:`CampaignService.submit` as they came, which
  answers the cached ones in rows and parses only keys it must queue, so
  a warm submit recomputes nothing.
* :class:`RemoteTransport` is the supervised client end of one
  connection.  No thread reads its socket: a caller waiting for a reply
  reads frames itself and hands each to its waiter by request id.  The
  engine surface over it is :class:`~repro.runtime.fleet.FleetClient` —
  a single server URL is a one-member fleet — so
  ``Session.connect("tcp://host:port")`` and ``dp_search`` run unchanged
  against a remote server, bit-identically to a private serial engine,
  because plans travel as canonical plan keys and noise seeds derive
  from ``(seed, "plan-cost", plan_key)`` on whichever side measures.

Robustness discipline
---------------------

* **Reconnect.**  Connect and request timeouts, with exponential backoff
  and deterministic jitter between attempts — the same
  ``min(base * 2**(k-1), cap)``-times-``[0.5, 1.5)`` schedule the
  service's retry heap uses, derived through
  :func:`~repro.util.rng.derive_seed` so two identically-configured
  clients back off on identical schedules.
* **Idempotent request ids.**  Every submit carries a
  ``"<client>:<seq>"`` id.  A resubmit after a reconnect — the response
  frame was lost, not the work — is answered from the service's
  request-id table (:meth:`CampaignService.submit`'s ``request_id``):
  the original ticket, whether in flight or finished.  No duplicate
  measurement, ever; resubmits show up in ``service.stats().resubmits``.
* **Heartbeats and idle expiry.**  The client pings on an interval; the
  server expires connections idle past ``idle_timeout`` (pings count as
  activity, in-flight submits do too).  An expired client reconnects
  transparently on its next request.
* **Backpressure.**  Per-connection in-flight submits are bounded; past
  the bound the server answers a ``busy`` frame immediately and the
  client waits out a backoff before resubmitting the same id.
* **Drain.**  :meth:`ServiceServer.drain` stops accepting new submits
  (they get a ``draining`` frame, which a ``fallback=True`` client turns
  into a private-engine evaluation), lets in-flight work finish, and
  returns once the wire is quiet.
* **Chaos.**  :class:`FaultyTransport` wraps the client's frame layer and
  applies a :class:`~repro.runtime.faults.FaultPlan`'s ``network`` spec:
  dropped frames, added latency, partial writes that disconnect
  mid-frame, abrupt disconnects, garbage frames.  The invariant the
  chaos suite pins end-to-end: a DP search over a ~20%-faulty socket to
  a ~20%-faulty backend completes **bit-identically** with zero
  duplicate or conflicting persisted records.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import select
import socket
import struct
import threading
import time
import uuid
from typing import Mapping, Sequence

from repro.machine.cache import CacheConfig
from repro.machine.cpu import CycleModel, InstructionCostModel
from repro.machine.machine import MachineConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.service import CampaignJob, CampaignService, JobTicket, ServiceError
from repro.util.rng import backoff_delay

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "TransportError",
    "RemoteServiceError",
    "FrameTransport",
    "FaultyTransport",
    "ServiceServer",
    "serve_tcp",
    "serve_unix",
    "RemoteTransport",
    "machine_config_to_wire",
    "machine_config_from_wire",
]

#: Protocol revision spoken by both ends; a mismatch fails the handshake.
PROTOCOL_VERSION = 2

#: Upper bound on one frame's body.  Generous for record batches, small
#: enough that a corrupted length prefix cannot trigger a giant allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: What parsing a hostile frame field raises (``Infinity`` overflows ``int``,
#: a plan key nested past the recursion limit is refused as malformed too).
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


class TransportError(ServiceError):
    """A connection-level failure (dial, send, receive, timeout, garbage).

    Retryable by design: the request may not have reached the service, or
    the response may have been lost after the work finished — either way
    the client reconnects and resubmits the *same request id*, and the
    service's idempotency table makes the retry free.
    """


class RemoteServiceError(ServiceError):
    """The server answered, and the answer was a failure (quarantined work,
    a shut-down service, a protocol violation).  Not retryable at the
    transport level — resubmitting would replay the same answer."""


# -- frame codec ---------------------------------------------------------------


class FrameTransport:
    """Length-prefixed JSON frames over one connected socket.

    The codec is deliberately minimal: 4-byte big-endian body length, then
    the body — one UTF-8 JSON object.  ``recv`` returns ``None`` on a clean
    EOF *between* frames and raises :class:`TransportError` on a mid-frame
    disconnect or an unparseable body, so callers can tell a graceful
    goodbye from a torn one.  Not internally locked; callers serialise
    sends (the connection layers here do).
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock

    @staticmethod
    def encode(payload: Mapping) -> bytes:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise TransportError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
        return _LENGTH.pack(len(body)) + body

    def send_bytes(self, data: bytes) -> None:
        try:
            self.sock.sendall(data)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def send(self, payload: Mapping) -> None:
        self.send_bytes(self.encode(payload))

    def _read_exact(self, count: int, *, at_boundary: bool) -> "bytes | None":
        chunks: "list[bytes]" = []
        remaining = count
        while remaining:
            try:
                chunk = self.sock.recv(min(remaining, 1 << 20))
            except OSError as exc:
                raise TransportError(f"receive failed: {exc}") from exc
            if not chunk:
                if at_boundary and remaining == count:
                    return None  # clean EOF between frames
                raise TransportError(
                    f"mid-frame disconnect: {count - remaining}/{count} bytes"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv(self) -> "dict | None":
        prefix = self._read_exact(_LENGTH.size, at_boundary=True)
        if prefix is None:
            return None
        (length,) = _LENGTH.unpack(prefix)
        if length > MAX_FRAME_BYTES:
            raise TransportError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
        body = self._read_exact(length, at_boundary=False)
        try:
            frame = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise TransportError(f"garbage frame: {exc}") from exc
        if not isinstance(frame, dict):
            raise TransportError(f"frame body must be an object, got {type(frame).__name__}")
        return frame

    def close(self) -> None:
        try:
            # shutdown() wakes a thread blocked in recv() on this socket;
            # on Linux close() alone leaves it parked until the peer hangs up.
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close never fails on healthy FDs
            pass


class FaultyTransport:
    """A frame transport that misbehaves on a :class:`FaultPlan`'s schedule.

    Applies the plan's ``network`` spec (sites ``"net-send"`` and
    ``"net-recv"``) to a wrapped :class:`FrameTransport`:

    * **error** — *drop*: the frame never reaches the wire and the
      connection is reset (a lost packet / RST).
    * **crash** — *partial write then disconnect*: ``crash_fraction`` of
      the frame's bytes land, then the socket closes mid-frame — the peer
      sees a torn frame and must discard it.
    * **torn** — *garbage frame*: the length prefix is intact but the
      body's bytes are corrupted; the send "succeeds" and the *receiver*
      chokes, exactly like wire corruption.
    * **kill** — *abrupt disconnect* before anything is written.
    * **delay** — added latency; the operation then proceeds normally.

    On the receive path every failure mode degrades to "the response was
    lost and the connection is dead" — which is the interesting case: the
    server may have *completed* the work, and only the request-id
    idempotency table keeps the client's resubmit from measuring twice.
    """

    def __init__(
        self,
        inner: FrameTransport,
        plan: FaultPlan,
        send_site: str = "net-send",
        recv_site: str = "net-recv",
    ):
        self.inner = inner
        self.plan = plan
        self.send_site = send_site
        self.recv_site = recv_site

    def send(self, payload: Mapping) -> None:
        decision = self.plan.decide(self.send_site)
        if decision.delay > 0.0:
            time.sleep(decision.delay)
        if decision.kill:
            self.inner.close()
            raise TransportError(f"injected abrupt disconnect (call {decision.index})")
        if decision.error:
            self.inner.close()
            raise TransportError(f"injected dropped frame (call {decision.index})")
        data = self.inner.encode(payload)
        if decision.crash_fraction is not None:
            cut = max(1, min(len(data) - 1, int(len(data) * decision.crash_fraction)))
            try:
                self.inner.send_bytes(data[:cut])
            finally:
                self.inner.close()
            raise TransportError(
                f"injected mid-frame disconnect after {cut}/{len(data)} bytes "
                f"(call {decision.index})"
            )
        if decision.torn:
            prefix, body = data[: _LENGTH.size], bytearray(data[_LENGTH.size :])
            for offset in range(0, len(body), 2):
                body[offset] ^= 0xA5  # unparseable, same length
            self.inner.send_bytes(prefix + bytes(body))
            return  # the sender believes it succeeded; the receiver chokes
        self.inner.send_bytes(data)

    def recv(self) -> "dict | None":
        decision = self.plan.decide(self.recv_site)
        if decision.delay > 0.0:
            time.sleep(decision.delay)
        if decision.kill:
            self.inner.close()
            raise TransportError(f"injected receive disconnect (call {decision.index})")
        if decision.fails:
            # Drop / tear / garble the inbound frame: consume it (the server
            # really sent it — the work happened), then fail the connection.
            try:
                self.inner.recv()
            except TransportError:
                pass
            self.inner.close()
            raise TransportError(f"injected lost response (call {decision.index})")
        return self.inner.recv()

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:
        return f"FaultyTransport({self.inner!r}, {self.plan!r})"


# -- machine configuration on the wire -----------------------------------------


def machine_config_to_wire(config: MachineConfig) -> dict:
    """``config`` as a JSON-serialisable payload (nested plain dicts)."""
    return dataclasses.asdict(config)


def machine_config_from_wire(payload: Mapping) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from :func:`machine_config_to_wire`.

    Every nested field is a flat dataclass of scalars, so the round-trip is
    exact — and therefore so is the machine hash, which is what keeps a
    remote submit landing in the same record shard as a local one.
    """
    if not isinstance(payload, Mapping):
        raise TypeError(f"a machine payload is an object, not {type(payload).__name__}")
    l2 = payload.get("l2")
    return MachineConfig(
        name=str(payload["name"]),
        l1=CacheConfig(**payload["l1"]),
        l2=CacheConfig(**l2) if l2 is not None else None,
        instruction_model=InstructionCostModel(**payload["instruction_model"]),
        cycle_model=CycleModel(**payload["cycle_model"]),
        element_size=int(payload["element_size"]),
        vectorized_caches=bool(payload["vectorized_caches"]),
    )


# -- server --------------------------------------------------------------------


class _ServerConnection:
    """One accepted client connection: reader loop + per-submit handlers."""

    def __init__(self, server: "ServiceServer", sock: socket.socket, peer: str):
        self.server = server
        self.frames = FrameTransport(sock)
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self.inflight = 0
        self.last_activity = time.monotonic()
        self.closed = False
        #: The machine the last accepted ``hello`` declared.
        self._machine: "MachineConfig | None" = None
        self.thread = threading.Thread(
            target=self._run, name=f"{server.name}-conn-{peer}", daemon=True
        )

    def _reply(self, payload: Mapping) -> None:
        try:
            with self._send_lock:
                self.frames.send(payload)
        except TransportError:
            self.close()  # the client is gone; its resubmit will be deduped

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
        self.frames.close()

    def _run(self) -> None:
        try:
            while True:
                try:
                    frame = self.frames.recv()
                except TransportError:
                    break  # torn frame or garbage: drop the connection
                if frame is None:
                    break
                self.last_activity = time.monotonic()
                self._dispatch(frame)
        finally:
            self.close()
            self.server._forget(self)

    def _dispatch(self, frame: Mapping) -> None:
        kind = frame.get("type")
        rid = frame.get("id")
        if kind == "ping":
            self._reply({"type": "pong", "id": rid, "draining": self.server.draining})
        elif kind == "hello":
            if frame.get("version") != PROTOCOL_VERSION:
                self._reply(
                    {
                        "type": "error",
                        "id": rid,
                        "message": f"protocol version mismatch: server speaks "
                        f"{PROTOCOL_VERSION}, client sent {frame.get('version')!r}",
                    }
                )
                self.close()
                return
            try:
                self._machine = machine_config_from_wire(frame["machine"])
            except _MALFORMED as exc:  # the last declared machine stays
                self._reply({"type": "error", "id": rid, "message": f"malformed hello: {exc}"})
                return
            self._reply(
                {
                    "type": "hello",
                    "id": rid,
                    "version": PROTOCOL_VERSION,
                    "server": self.server.service.name,
                    "draining": self.server.draining,
                }
            )
        elif kind == "submit":
            self._accept_submit(frame, rid)
        elif kind == "stats":
            stats = self.server.service.stats()
            self._reply(
                {
                    "type": "stats",
                    "id": rid,
                    "stats": {
                        "jobs": stats.jobs,
                        "measured": stats.measured,
                        "store_hits": stats.store_hits,
                        "dedup_savings": stats.dedup_savings,
                        "retries": stats.retries,
                        "retrying": stats.retrying,
                        "next_retry_eta": stats.next_retry_eta,
                        "resubmits": stats.resubmits,
                        "failures": stats.failures,
                        "quarantined": stats.quarantined,
                        "members": stats.members,
                    },
                }
            )
        elif kind == "health":
            health = self.server.service.health()
            self._reply(
                {
                    "type": "health",
                    "id": rid,
                    "state": "draining" if self.server.draining else health.state,
                    "detail": health.describe(),
                }
            )
        elif kind == "bye":
            self.close()
        else:
            self._reply(
                {"type": "error", "id": rid, "message": f"unknown frame type {kind!r}"}
            )

    def _accept_submit(self, frame: Mapping, rid: object) -> None:
        """Submit on this thread (a shard's first submit seeds its record cache
        here) and answer a done ticket inline; an unfinished one goes to a
        handler thread, so a slow batch never blocks this connection's pings."""
        if self.server.draining or self.server.closed:
            self.server._count("drained")
            self._reply({"type": "draining", "id": rid})
            return
        with self._lock:
            if self.inflight >= self.server.max_inflight:
                self.server._count("backpressure")
                limit = self.server.max_inflight
                self._reply({"type": "busy", "id": rid, "inflight": self.inflight, "limit": limit})
                return
            self.inflight += 1
        self.server._begin_request()
        try:
            if self._machine is None:
                raise ValueError("no machine declared in hello")
            deadline = frame.get("deadline")
            job = CampaignJob(
                machine_config=self._machine,
                plan_batch=tuple(map(str, frame["plans"])),
                metrics=tuple(frame["metrics"]),
                seed=int(frame.get("seed", 0)),
                deadline=float(deadline) if deadline is not None else None,
            )
            ticket = self.server.service.submit(job, request_id=None if rid is None else str(rid))
        except BaseException as exc:
            self._end_submit()
            if isinstance(exc, _MALFORMED):  # the service parses keys and names
                self._reply({"type": "error", "id": rid, "message": f"malformed submit: {exc}"})
            elif isinstance(exc, ServiceError):
                self._reply({"type": "error", "id": rid, "message": str(exc)})
            else:
                raise
            return
        if ticket.done():
            self._answer(ticket, rid)
        else:
            threading.Thread(
                target=self._answer,
                args=(ticket, rid),
                name=f"{self.server.name}-submit-{rid}",
                daemon=True,
            ).start()

    def _answer(self, ticket: JobTicket, rid: object) -> None:
        """Wait for ``ticket``'s rows and send the result (or error) frame:
        one row of values per key, in the submit's key and metric order."""
        reply = {"type": "result", "id": rid, "owned": ticket.owned_units}
        try:
            try:
                reply["values"] = ticket.result()
            except ServiceError as exc:
                reply = {"type": "error", "id": rid, "message": str(exc)}
            self._reply(reply)
        finally:
            self._end_submit()

    def _end_submit(self) -> None:
        with self._lock:
            self.inflight -= 1
        self.last_activity = time.monotonic()
        self.server._end_request()


class ServiceServer:
    """A threaded socket front-end for one :class:`CampaignService`.

    Accepts connections on a bound listener (see :func:`serve_tcp` /
    :func:`serve_unix`), speaks the frame protocol, and maps ``submit``
    frames onto :meth:`CampaignService.submit` with the frame's request id
    — so reconnecting clients dedupe against in-flight and completed work.
    The server fronts the service; it does not own it (closing the server
    leaves the service running for in-process tenants).

    Parameters
    ----------
    max_inflight:
        Per-connection bound on concurrently executing submits; past it
        the connection answers ``busy`` frames (explicit backpressure)
        instead of queueing unboundedly.
    idle_timeout:
        Seconds of inactivity (no frames, no executing submits) after
        which a connection is expired server-side.  ``None`` disables
        expiry.  Clients heartbeat to stay under it, and reconnect
        transparently when expired anyway.
    """

    def __init__(
        self,
        service: CampaignService,
        listener: socket.socket,
        url: str,
        *,
        max_inflight: int = 8,
        idle_timeout: "float | None" = 30.0,
        name: "str | None" = None,
        unix_path: "str | None" = None,
    ):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive or None, got {idle_timeout}")
        self.service = service
        self.url = url
        self.name = name or f"{service.name}-server"
        self.max_inflight = int(max_inflight)
        self.idle_timeout = idle_timeout
        self._listener = listener
        self._unix_path = unix_path
        self._lock = threading.Lock()
        self._quiet = threading.Condition(self._lock)
        self._connections: "set[_ServerConnection]" = set()
        self._active_requests = 0
        self._counters = {
            "connections": 0,
            "requests": 0,
            "backpressure": 0,
            "drained": 0,
            "expired": 0,
        }
        self.draining = False
        self.closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{self.name}-accept", daemon=True
        )
        self._accept_thread.start()
        self._sweeper: "threading.Thread | None" = None
        if idle_timeout is not None:
            self._sweeper = threading.Thread(
                target=self._sweep_idle, name=f"{self.name}-sweeper", daemon=True
            )
            self._sweeper.start()

    # -- bookkeeping -------------------------------------------------------------

    def _count(self, name: str) -> None:
        with self._lock:
            self._counters[name] += 1

    def _begin_request(self) -> None:
        with self._lock:
            self._counters["requests"] += 1
            self._active_requests += 1

    def _end_request(self) -> None:
        with self._quiet:
            self._active_requests -= 1
            self._quiet.notify_all()

    def _forget(self, connection: _ServerConnection) -> None:
        with self._quiet:
            self._connections.discard(connection)
            self._quiet.notify_all()

    # -- accept / expiry loops ---------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            if self.closed:
                sock.close()
                return
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # Unix-domain sockets have no Nagle to disable
            peer = f"{addr[0]}:{addr[1]}" if isinstance(addr, tuple) else "unix"
            connection = _ServerConnection(self, sock, peer)
            with self._lock:
                self._counters["connections"] += 1
                self._connections.add(connection)
            connection.thread.start()

    def _sweep_idle(self) -> None:
        interval = max(0.05, min(self.idle_timeout / 4.0, 1.0))
        while not self.closed:
            time.sleep(interval)
            now = time.monotonic()
            with self._lock:
                candidates = list(self._connections)
            for connection in candidates:
                with connection._lock:
                    busy = connection.inflight > 0
                if busy or connection.closed:
                    continue
                if now - connection.last_activity > self.idle_timeout:
                    self._count("expired")
                    connection.close()

    # -- fleet membership --------------------------------------------------------

    def join_fleet(self, members: "Sequence[str]", self_url: "str | None" = None) -> None:
        """Record the fleet this server belongs to, for its stats and health.

        ``members`` lists every member URL; this server's own URL
        (``self_url``, default :attr:`url`) is added if missing.  Routing
        stays with the client (:class:`~repro.runtime.fleet.FleetClient`
        stripes keys over the ring); the server measures every key it is
        sent.
        """
        self.service.fleet_members = tuple(dict.fromkeys([*members, self_url or self.url]))

    # -- lifecycle ---------------------------------------------------------------

    def drain(self, timeout: "float | None" = None) -> bool:
        """Refuse new submits, let in-flight work finish, return once quiet.

        New ``submit`` frames are answered with ``draining`` immediately
        (a ``fallback=True`` client turns that into a private-engine
        evaluation); connections stay open for heartbeats and status.
        Returns whether the wire went quiet within ``timeout``.
        """
        self.draining = True
        with self._quiet:
            quiet = self._quiet.wait_for(
                lambda: self._active_requests == 0, timeout=timeout
            )
        if quiet:
            self.service.drain()
        return quiet

    def close(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight work, drop connections."""
        if self.closed:
            return
        if drain:
            self.drain()
        self.closed = True
        try:
            # shutdown() wakes the thread blocked in accept(); close() alone
            # would leave it parked until the join timeout.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()
        self._accept_thread.join(timeout=5.0)
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass

    def __enter__(self) -> "ServiceServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- observability -----------------------------------------------------------

    def stats(self) -> dict:
        """Transport-level counters (service-level ones live in the service)."""
        with self._lock:
            snapshot = dict(self._counters)
            snapshot["open_connections"] = len(self._connections)
            snapshot["active_requests"] = self._active_requests
            snapshot["draining"] = self.draining
        return snapshot

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("draining" if self.draining else "open")
        return f"ServiceServer({self.url!r}, {state}, service={self.service.name!r})"


def serve_tcp(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: object,
) -> ServiceServer:
    """Front ``service`` with a TCP :class:`ServiceServer`.

    ``port=0`` binds an ephemeral port; the returned server's ``url``
    (``tcp://host:port``) is what remote sessions connect to::

        with repro.serve_tcp(service) as server:
            sess = repro.Session.connect(server.url)
            best = sess.search(12)
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind((host, int(port)))
        listener.listen(128)
    except OSError:
        listener.close()
        raise
    bound_host, bound_port = listener.getsockname()[:2]
    return ServiceServer(
        service, listener, f"tcp://{bound_host}:{bound_port}", **kwargs
    )


def serve_unix(service: CampaignService, path: "str | os.PathLike[str]", **kwargs: object) -> ServiceServer:
    """Front ``service`` with a Unix-domain-socket :class:`ServiceServer`."""
    path = os.fspath(path)
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        listener.bind(path)
        listener.listen(128)
    except OSError:
        listener.close()
        raise
    return ServiceServer(service, listener, f"unix://{path}", unix_path=path, **kwargs)


# -- client --------------------------------------------------------------------


class _ReplySlot:
    """One sent request's pending reply: what the send half hands the wait half."""

    __slots__ = ("rid", "conn", "sent_at", "reply", "error")

    def __init__(self, rid: str, conn: "_ClientConnection | None", error=None) -> None:
        self.rid, self.conn, self.sent_at = rid, conn, time.monotonic()
        self.reply: "dict | None" = None
        self.error: "ServiceError | None" = error

    def wait(self, timeout: "float | None") -> dict:
        if self.conn is not None:
            self.conn.wait_for(self, timeout)
        if self.error is not None:
            raise self.error
        return self.reply


class _ClientConnection:
    """One live connection, read by its callers rather than by a thread.

    A waiting caller takes the read turn and hands each frame it reads to
    its slot by request id, until its own reply has come; other waiters
    sleep on the turn meanwhile and wake as each frame is handed over.
    """

    def __init__(self, transport: "FrameTransport | FaultyTransport", sock: socket.socket):
        self.transport, self.sock = transport, sock
        self._send_lock = threading.Lock()
        #: Guards ``_pending``, ``alive`` and ``_reading``; waiters sleep on it.
        self._turn = threading.Condition(threading.Lock())
        self._pending: "dict[str, _ReplySlot]" = {}
        self._reading = False
        self.alive = True

    def wait_for(self, slot: _ReplySlot, timeout: "float | None") -> None:
        """Return once ``slot`` holds its reply or error; raise
        :class:`TransportError` when ``timeout`` expires first.  A timed wait
        reads only once the socket is readable, so it never tears a frame."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._turn:
            while slot.reply is None and slot.error is None:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._pending.pop(slot.rid, None)
                    raise TransportError(f"request {slot.rid} timed out after {timeout} s")
                if self._reading:
                    self._turn.wait(remaining)
                    continue
                self._reading, frame = True, None
                self._turn.release()
                try:
                    if remaining is None or select.select([self.sock], [], [], remaining)[0]:
                        frame = self.transport.recv()
                        if frame is None:
                            raise TransportError("server closed the connection")
                except (TransportError, OSError, ValueError) as exc:
                    self.fail(exc if isinstance(exc, TransportError) else TransportError(str(exc)))
                finally:
                    self._turn.acquire()
                    self._reading = False
                    self._turn.notify_all()
                rid = frame.get("id") if frame is not None else None
                waiter = self._pending.pop(rid, None) if isinstance(rid, str) else None
                if waiter is not None:
                    waiter.reply = frame

    def fail(self, error: TransportError) -> None:
        with self._turn:
            if not self.alive:
                return
            self.alive = False
            for slot in self._pending.values():
                slot.error = error
            self._pending.clear()
            self._turn.notify_all()
        self.transport.close()

    def send(self, payload: Mapping) -> _ReplySlot:
        with self._turn:
            if not self.alive:
                return _ReplySlot(payload["id"], None, TransportError("connection is dead"))
            slot = self._pending[payload["id"]] = _ReplySlot(payload["id"], self)
        try:
            with self._send_lock:
                self.transport.send(payload)
        except TransportError as exc:
            self.fail(exc)  # resolves the registered slot
        return slot

    def close(self) -> None:
        self.fail(TransportError("connection closed by client"))


class RemoteTransport:
    """A supervised client endpoint for one server URL and one machine.

    Owns the dial/handshake/reconnect discipline: connections are built
    lazily, verified with a ``hello`` handshake that declares ``machine``
    (a :func:`machine_config_to_wire` payload) once per connection, kept
    warm by a heartbeat thread, and replaced on any failure after an
    exponential backoff with deterministic jitter — the service retry
    heap's schedule, derived from
    ``(retry_seed, "reconnect-jitter", client_id, attempt)``.  ``call``
    retries :class:`TransportError`\\ s and ``busy`` (backpressure) frames
    with the *same request id*; answers of any other type are returned for
    the caller to interpret.
    """

    def __init__(
        self,
        url: str,
        machine: Mapping,
        *,
        connect_timeout: float = 5.0,
        heartbeat_interval: "float | None" = 2.0,
        max_attempts: int = 8,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retry_seed: int = 0,
        fault_plan: "FaultPlan | None" = None,
        client_id: "str | None" = None,
    ):
        self.url = url
        self.family, self.address = self._parse(url)
        self.machine = machine
        self.connect_timeout = float(connect_timeout)
        self.heartbeat_interval = heartbeat_interval
        self.max_attempts = int(max_attempts)
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.retry_seed = int(retry_seed)
        self.fault_plan = fault_plan
        self.client_id = client_id or uuid.uuid4().hex[:12]
        #: Optional observer of heartbeat replies (``None`` on a failed
        #: ping) — the hook fleet clients use to learn a member is
        #: draining without a second probing thread.
        self.on_pong = None
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self._dial_lock = threading.Lock()
        self._conn: "_ClientConnection | None" = None
        self.closed = False
        #: Times a dead connection was replaced with a fresh dial.
        self.reconnects = 0
        #: ``busy`` frames waited out (explicit server backpressure).
        self.backpressure = 0
        #: Requests re-sent with an already-used id after a failure.
        self.resubmits = 0
        self._stop = threading.Event()
        self._heartbeat: "threading.Thread | None" = None
        if heartbeat_interval is not None:
            if heartbeat_interval <= 0:
                raise ValueError(
                    f"heartbeat_interval must be positive or None, got {heartbeat_interval}"
                )
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                name=f"remote-heartbeat-{self.client_id}",
                daemon=True,
            )
            self._heartbeat.start()

    @staticmethod
    def _parse(url: str) -> "tuple[int, object]":
        if url.startswith("tcp://"):
            rest = url[len("tcp://") :]
            host, _, port = rest.rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(f"malformed tcp URL {url!r}; expected tcp://host:port")
            return socket.AF_INET, (host, int(port))
        if url.startswith("unix://"):
            path = url[len("unix://") :]
            if not path:
                raise ValueError(f"malformed unix URL {url!r}; expected unix://path")
            return socket.AF_UNIX, path
        raise ValueError(
            f"unsupported service URL {url!r}; expected tcp://host:port or unix://path"
        )

    def next_request_id(self) -> str:
        return f"{self.client_id}:{next(self._seq)}"

    def _backoff_delay(self, attempt: int) -> float:
        """The service's backoff schedule, keyed by this client for reconnects."""
        return backoff_delay(
            attempt,
            self.backoff_base,
            self.backoff_cap,
            self.retry_seed,
            "reconnect-jitter",
            self.client_id,
        )

    def _dial(self) -> _ClientConnection:
        sock = socket.socket(self.family, socket.SOCK_STREAM)
        sock.settimeout(self.connect_timeout)
        try:
            sock.connect(self.address)
            if self.family == socket.AF_INET:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
        except OSError as exc:
            sock.close()
            raise TransportError(f"connect to {self.url} failed: {exc}") from exc
        transport: "FrameTransport | FaultyTransport" = FrameTransport(sock)
        if self.fault_plan is not None:
            transport = FaultyTransport(transport, self.fault_plan)
        connection = _ClientConnection(transport, sock)
        hello = connection.send(
            {
                "type": "hello",
                "id": self.next_request_id(),
                "version": PROTOCOL_VERSION,
                "machine": self.machine,
            }
        ).wait(self.connect_timeout)
        if hello.get("type") == "error":
            connection.close()
            raise RemoteServiceError(hello.get("message", "handshake rejected"))
        if hello.get("type") != "hello" or hello.get("version") != PROTOCOL_VERSION:
            connection.close()
            raise TransportError(f"unexpected handshake reply {hello!r}")
        return connection

    def _ensure_connected(self) -> _ClientConnection:
        # The dial lock serialises concurrent callers so exactly one
        # connection exists per transport — the per-connection inflight
        # bound and backpressure accounting depend on it.
        with self._dial_lock:
            with self._lock:
                if self.closed:
                    raise TransportError(f"transport to {self.url} is closed")
                conn = self._conn
                if conn is not None and conn.alive:
                    return conn
                replacing = conn is not None
            conn = self._dial()
            with self._lock:
                if self.closed:
                    conn.close()
                    raise TransportError(f"transport to {self.url} is closed")
                if replacing:
                    self.reconnects += 1
                self._conn = conn
            return conn

    def send(self, payload: Mapping) -> _ReplySlot:
        """The send half of :meth:`call`: dial if need be, write the frame.
        Never raises: a failed dial or write lands in the returned slot."""
        try:
            conn = self._ensure_connected()
        except ServiceError as exc:
            return _ReplySlot(payload["id"], None, exc)
        return conn.send(payload)

    def call(
        self, payload: dict, timeout: "float | None" = None, sent: "_ReplySlot | None" = None
    ) -> dict:
        """Send ``payload`` (unless ``sent``, the slot of an earlier :meth:`send`
        of it, is given) and return the server's answer, supervising the wire.

        Connection failures and ``busy`` frames are retried up to
        ``max_attempts`` times with backoff, always with the same request
        id — the resubmit-after-reconnect path the service's idempotency
        table exists for.  ``timeout`` bounds the *total* wait, counted from
        the first send.
        """
        slot = self.send(payload) if sent is None else sent
        deadline = None if timeout is None else slot.sent_at + timeout
        last_error: "TransportError | None" = None
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                self.resubmits += 1
                delay = self._backoff_delay(attempt - 1)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    delay = min(delay, remaining)
                time.sleep(delay)
                slot = self.send(payload)
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            try:
                reply = slot.wait(remaining)
            except TransportError as exc:
                last_error = exc
                continue
            if reply.get("type") == "busy":
                self.backpressure += 1
                last_error = TransportError("server applied backpressure (busy)")
                continue
            return reply
        message = f"request to {self.url} failed after {self.max_attempts} attempts"
        if deadline is not None and time.monotonic() >= deadline:
            message = f"request to {self.url} timed out after {timeout} s"
        raise TransportError(message) from last_error

    def _heartbeat_loop(self) -> None:
        interval = float(self.heartbeat_interval)
        while not self._stop.wait(interval):
            with self._lock:
                conn = self._conn
            if conn is None or not conn.alive:
                continue  # reconnects are lazy: the next real request dials
            observer = self.on_pong
            try:
                reply = conn.send({"type": "ping", "id": self.next_request_id()}).wait(interval)
            except TransportError:
                conn.fail(TransportError("heartbeat failed"))
                reply = None
            if observer is not None:
                try:
                    observer(reply)
                except Exception:  # pragma: no cover - observers must not kill pings
                    pass

    def close(self) -> None:
        """Stop the heartbeat, say goodbye, drop the connection (idempotent).

        The heartbeat, the only thread a transport owns, is joined with a
        bounded timeout, so 100 connect/close cycles leave zero lingering
        threads (the regression the leak test pins).
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            conn, self._conn = self._conn, None
        self._stop.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=2.0)
        if conn is not None:
            if conn.alive:
                try:
                    with conn._send_lock:
                        conn.transport.send({"type": "bye"})
                except TransportError:
                    pass
                conn.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"RemoteTransport({self.url!r}, {state}, reconnects={self.reconnects})"
