"""The multi-host transport: frames, supervision, idempotency, chaos.

The load-bearing guarantee (ISSUE 8 acceptance, DESIGN.md §13): a DP
search through a :class:`RemoteServiceClient` over a ~20%-faulty socket
(drops, delays, mid-frame disconnects, garbage) to a ~20%-faulty backend
**completes**, is **bit-identical** to a fault-free serial run, executes
**zero duplicate measurements** (counting backend), and persists **zero
conflicting records** — the wire extends the service's failure
discipline, it does not weaken it.

``REPRO_CHAOS_SEED`` selects the fault schedule so CI can run a seed
matrix; every test must hold for any seed.
"""

import dataclasses
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
import repro.runtime.transport as transport_module
import repro.wht.encoding as encoding_module
from repro.machine.configs import default_machine_config, tiny_machine_config
from repro.runtime.backends import BatchedBackend
from repro.runtime.faults import FaultPlan, FaultSpec, FaultyBackend
from repro.runtime.service import CampaignJob, CampaignService
from repro.runtime.session import Session, session
from repro.runtime.sharded_store import ShardedRecordStore
from repro.runtime.store import MemoryStore, machine_config_hash
from repro.runtime.transport import (
    PROTOCOL_VERSION,
    FaultyTransport,
    FrameTransport,
    RemoteServiceError,
    RemoteTransport,
    TransportError,
    machine_config_from_wire,
    machine_config_to_wire,
    serve_tcp,
    serve_unix,
)
from repro.machine.machine import SimulatedMachine
from repro.runtime.cost_engine import CostEngine
from repro.runtime.fleet import RemoteServiceClient
from repro.wht.canonical import iterative_plan, right_recursive_plan
from repro.wht.encoding import plan_key
from repro.wht.grammar import parse_plan
from repro.wht.random_plans import RSUSampler

#: The CI chaos matrix sets this; locally it defaults to schedule 0.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def _private_engine(config, seed=0):
    """A fault-free serial reference engine with an explicit noise seed."""
    return CostEngine(
        SimulatedMachine(config),
        backend=BatchedBackend(),
        store=MemoryStore(),
        seed=seed,
    )


class CountingBackend:
    """A backend wrapper recording every unit it actually executes."""

    name = "counting"

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else BatchedBackend()
        self.lock = threading.Lock()
        self.executed = []  # (machine_hash, plan_key, noise_seed)

    def measure_units(self, machine, units):
        with self.lock:
            digest = machine_config_hash(machine.config)
            self.executed.extend(
                (digest, plan_key(unit.plan), unit.noise_seed) for unit in units
            )
        return self.inner.measure_units(machine, units)

    def duplicate_executions(self):
        with self.lock:
            seen, duplicates = set(), []
            for item in self.executed:
                if item in seen:
                    duplicates.append(item)
                seen.add(item)
            return duplicates

    def close(self):
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()


class GatedBackend:
    """Blocks every batch on an event — for backpressure/drain tests."""

    name = "gated"

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else BatchedBackend()
        self.gate = threading.Event()

    def measure_units(self, machine, units):
        if not self.gate.wait(timeout=30.0):
            raise RuntimeError("gate never opened")
        return self.inner.measure_units(machine, units)

    def close(self):
        self.gate.set()
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()


@pytest.fixture
def config():
    return tiny_machine_config()


@pytest.fixture
def plans():
    return [iterative_plan(4), right_recursive_plan(4)]


def _frame_pair():
    left, right = socket.socketpair()
    return FrameTransport(left), FrameTransport(right)


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- frame codec ---------------------------------------------------------------


class TestFrameCodec:
    def test_round_trips_a_frame(self):
        tx, rx = _frame_pair()
        payload = {"type": "submit", "id": "c:1", "plans": ["small[4]"], "π": 3.25}
        tx.send(payload)
        assert rx.recv() == payload
        tx.close()
        rx.close()

    def test_clean_eof_between_frames_is_none(self):
        tx, rx = _frame_pair()
        tx.send({"type": "bye"})
        tx.close()
        assert rx.recv() == {"type": "bye"}
        assert rx.recv() is None
        rx.close()

    def test_mid_frame_eof_raises(self):
        tx, rx = _frame_pair()
        frame = FrameTransport.encode({"type": "ping", "id": "c:9"})
        tx.send_bytes(frame[: len(frame) // 2])
        tx.close()
        with pytest.raises(TransportError, match="mid-frame"):
            rx.recv()
        rx.close()

    def test_garbage_body_raises(self):
        tx, rx = _frame_pair()
        body = b"\x00\xffnot json at all"
        tx.send_bytes(len(body).to_bytes(4, "big") + body)
        with pytest.raises(TransportError, match="garbage"):
            rx.recv()
        tx.close()
        rx.close()

    def test_non_object_body_raises(self):
        tx, rx = _frame_pair()
        body = b"[1, 2, 3]"
        tx.send_bytes(len(body).to_bytes(4, "big") + body)
        with pytest.raises(TransportError, match="must be an object"):
            rx.recv()
        tx.close()
        rx.close()

    def test_oversize_length_prefix_raises(self):
        from repro.runtime.transport import MAX_FRAME_BYTES

        tx, rx = _frame_pair()
        tx.send_bytes((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(TransportError, match="exceeds"):
            rx.recv()
        tx.close()
        rx.close()


class TestMachineOnTheWire:
    def test_config_round_trips_exactly(self, config):
        payload = json.loads(json.dumps(machine_config_to_wire(config)))
        rebuilt = machine_config_from_wire(payload)
        assert rebuilt == config
        assert machine_config_hash(rebuilt) == machine_config_hash(config)

    def test_config_without_l2_round_trips(self, config):
        flat = dataclasses.replace(config, l2=None)
        payload = json.loads(json.dumps(machine_config_to_wire(flat)))
        assert machine_config_from_wire(payload) == flat


# -- fault injection at the frame layer ----------------------------------------


class TestFaultyTransport:
    def test_kill_disconnects_before_writing(self):
        tx, rx = _frame_pair()
        faulty = FaultyTransport(tx, FaultPlan(network=FaultSpec(kill_rate=1.0)))
        with pytest.raises(TransportError, match="abrupt disconnect"):
            faulty.send({"type": "ping"})
        assert rx.recv() is None  # nothing hit the wire: clean EOF
        rx.close()

    def test_drop_loses_the_frame_and_resets(self):
        tx, rx = _frame_pair()
        faulty = FaultyTransport(tx, FaultPlan(network=FaultSpec(error_rate=1.0)))
        with pytest.raises(TransportError, match="dropped frame"):
            faulty.send({"type": "ping"})
        assert rx.recv() is None
        rx.close()

    def test_crash_is_a_partial_write_then_disconnect(self):
        tx, rx = _frame_pair()
        faulty = FaultyTransport(tx, FaultPlan(network=FaultSpec(crash_rate=1.0)))
        with pytest.raises(TransportError, match="mid-frame disconnect"):
            faulty.send({"type": "submit", "id": "c:1", "plans": ["small[4]"] * 16})
        with pytest.raises(TransportError, match="mid-frame"):
            rx.recv()  # the peer sees a torn frame, never a short parse
        rx.close()

    def test_torn_sends_a_garbage_frame_the_receiver_rejects(self):
        tx, rx = _frame_pair()
        faulty = FaultyTransport(tx, FaultPlan(network=FaultSpec(torn_tail_rate=1.0)))
        faulty.send({"type": "ping", "id": "c:1"})  # sender believes it worked
        with pytest.raises(TransportError, match="garbage"):
            rx.recv()
        tx.close()
        rx.close()

    def test_recv_fault_consumes_the_real_response(self):
        tx, rx = _frame_pair()
        faulty = FaultyTransport(rx, FaultPlan(network=FaultSpec(error_rate=1.0)))
        tx.send({"type": "result", "id": "c:1"})
        with pytest.raises(TransportError, match="lost response"):
            faulty.recv()  # the work happened server-side; the answer is gone
        tx.close()

    def test_delay_is_latency_not_loss(self):
        tx, rx = _frame_pair()
        plan = FaultPlan(network=FaultSpec(delay_rate=1.0, delay=0.01))
        faulty = FaultyTransport(tx, plan)
        faulty.send({"type": "ping", "id": "c:1"})
        assert rx.recv() == {"type": "ping", "id": "c:1"}
        assert plan.calls("net-send") == 1
        assert plan.injected() == 0  # a delay is latency, not a failure
        tx.close()
        rx.close()

    def test_schedule_is_seed_deterministic(self):
        spec = FaultSpec(error_rate=0.3, crash_rate=0.2, delay_rate=0.2, delay=0.001)
        a = FaultPlan(seed=CHAOS_SEED, network=spec)
        b = FaultPlan(seed=CHAOS_SEED, network=spec)
        assert [a.decide("net-send") for _ in range(50)] == [
            b.decide("net-send") for _ in range(50)
        ]


# -- the remote engine surface -------------------------------------------------


class TestRemoteRoundTrip:
    def test_records_are_bit_identical_to_a_private_engine(self, config):
        plans = RSUSampler().sample_many(7, count=8, rng=3)
        with CampaignService() as service, serve_tcp(service) as server:
            with RemoteServiceClient(server.url, config, seed=11) as client:
                remote = client.records(plans, ("cycles", "instructions"))
                again = client.records(plans, ("cycles", "instructions"))
        reference = _private_engine(config, seed=11)
        local = reference.records(plans, ("cycles", "instructions"))
        assert [r.values for r in remote] == [r.values for r in local]
        assert [r.values for r in again] == [r.values for r in remote]

    def test_unix_domain_socket_round_trip(self, config, plans, tmp_path):
        path = tmp_path / "service.sock"
        with CampaignService() as service:
            server = serve_unix(service, path)
            assert server.url == f"unix://{path}"
            with RemoteServiceClient(server.url, config) as client:
                values = [r.values["cycles"] for r in client.records(plans)]
            assert all(v > 0 for v in values)
            server.close()
        assert not path.exists()  # the socket file is cleaned up

    def test_server_stats_and_health_over_the_wire(self, config, plans):
        with CampaignService() as service, serve_tcp(service) as server:
            with RemoteServiceClient(server.url, config) as client:
                client.records(plans)
                stats = client.server_stats()[server.url]
                assert stats["jobs"] == 1
                assert stats["measured"] > 0
                assert stats["resubmits"] == 0
                health = client.server_health()[server.url]
                assert health["state"] == "ok"

    def test_dedup_with_an_in_process_tenant(self, config, plans):
        counting = CountingBackend()
        with CampaignService(backend=counting) as service:
            local = service.client(config, seed=5)
            local_values = [r.values for r in local.records(plans)]
            with serve_tcp(service) as server:
                with RemoteServiceClient(server.url, config, seed=5) as remote:
                    remote_values = [r.values for r in remote.records(plans)]
        assert remote_values == local_values
        assert counting.duplicate_executions() == []

    def test_server_repr_and_stats(self, config):
        with CampaignService() as service, serve_tcp(service) as server:
            assert "open" in repr(server)
            stats = server.stats()
            assert stats["open_connections"] == 0
            assert stats["draining"] is False


# -- robustness: reconnect, idempotency, backpressure, drain -------------------


def _handshake(url):
    host, _, port = url[len("tcp://") :].rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=5.0)
    frames = FrameTransport(sock)
    frames.send({"type": "hello", "id": "raw:0", "version": PROTOCOL_VERSION})
    reply = frames.recv()
    assert reply["type"] == "hello"
    return frames


class TestIdempotentResubmission:
    def test_resubmit_after_lost_response_reuses_the_work(self, config, plans):
        counting = CountingBackend()
        submit = None
        with CampaignService(backend=counting) as service:
            with serve_tcp(service) as server:
                submit = {
                    "type": "submit",
                    "id": "client-a:1",
                    "machine": machine_config_to_wire(config),
                    "plans": [plan_key(p) for p in plans],
                    "metrics": ["cycles", "instructions"],
                    "seed": 7,
                }
                first = _handshake(server.url)
                first.send(submit)
                reply_one = first.recv()
                assert reply_one["type"] == "result"
                first.close()  # the client "loses" the response and reconnects

                second = _handshake(server.url)
                second.send(submit)
                reply_two = second.recv()
                second.close()

            assert reply_two["type"] == "result"
            assert reply_two["records"] == reply_one["records"]
            assert reply_two["owned"] == reply_one["owned"]
            assert service.stats().resubmits == 1
        assert counting.duplicate_executions() == []
        executed = len(counting.executed)
        assert executed == len(set(counting.executed))  # each key measured once

    def test_distinct_request_ids_still_dedupe_by_key(self, config, plans):
        counting = CountingBackend()
        with CampaignService(backend=counting) as service:
            job = CampaignJob(config, tuple(plans), ("cycles",), seed=0)
            a = service.submit(job, request_id="x:1")
            b = service.submit(job, request_id="x:2")
            assert a is not b  # different requests...
            assert a.result() == b.result()  # ...same records, and
        assert counting.duplicate_executions() == []  # ...one measurement

    def test_service_resubmit_counter_in_stats(self, config, plans):
        with CampaignService() as service:
            job = CampaignJob(config, tuple(plans), ("cycles",), seed=0)
            first = service.submit(job, request_id="r:1")
            again = service.submit(job, request_id="r:1")
            assert again is first
            assert service.stats().resubmits == 1


class TestConnectionSupervision:
    def test_idle_connection_expires_and_client_redials(self, config, plans):
        with CampaignService() as service:
            with serve_tcp(service, idle_timeout=0.3) as server:
                client = RemoteServiceClient(
                    server.url, config, heartbeat_interval=None
                )
                before = [r.values for r in client.records(plans)]
                assert _wait_until(lambda: server.stats()["expired"] >= 1, timeout=5.0)
                after = [r.values for r in client.records(plans)]
                assert after == before
                assert client.transports[server.url].reconnects == 1
                client.close()

    def test_heartbeat_keeps_an_idle_connection_alive(self, config, plans):
        with CampaignService() as service:
            with serve_tcp(service, idle_timeout=0.6) as server:
                client = RemoteServiceClient(
                    server.url, config, heartbeat_interval=0.1
                )
                client.records(plans)
                time.sleep(1.5)  # several expiry windows, all crossed by pings
                client.records(plans)
                assert client.transports[server.url].reconnects == 0
                assert server.stats()["expired"] == 0
                client.close()

    def test_failing_a_live_connection_stops_its_reader_thread(self, config, plans):
        # The server keeps the connection open, so only the client's own
        # close can wake the reader thread parked in recv().
        with CampaignService() as service:
            with serve_tcp(service) as server:
                client = RemoteServiceClient(server.url, config, heartbeat_interval=None)
                client.records(plans)
                connection = client.transports[server.url]._conn
                connection.fail(TransportError("connection replaced"))
                connection.join(1.0)
                assert not connection._reader.is_alive()
                client.close()

    def test_reconnect_backoff_is_deterministic(self):
        a = RemoteTransport("tcp://127.0.0.1:9", heartbeat_interval=None,
                            retry_seed=3, client_id="peer")
        b = RemoteTransport("tcp://127.0.0.1:9", heartbeat_interval=None,
                            retry_seed=3, client_id="peer")
        delays_a = [a._backoff_delay(k) for k in range(1, 8)]
        delays_b = [b._backoff_delay(k) for k in range(1, 8)]
        assert delays_a == delays_b
        # exponential shape: each delay is at most cap * 1.5 and grows until the cap
        assert all(d <= a.backoff_cap * 1.5 for d in delays_a)
        a.close()
        b.close()

    def test_connecting_to_a_dead_port_raises_transport_error(self, config, plans):
        client = RemoteServiceClient(
            "tcp://127.0.0.1:1", config,
            max_attempts=2, backoff_base=0.001, connect_timeout=0.5,
            heartbeat_interval=None,
        )
        with pytest.raises(TransportError, match="after 2 attempts"):
            client.records(plans)
        client.close()

    def test_dead_port_with_fallback_degrades_bit_identically(self, config, plans):
        client = RemoteServiceClient(
            "tcp://127.0.0.1:1", config, seed=4, fallback=True,
            max_attempts=2, backoff_base=0.001, connect_timeout=0.5,
            heartbeat_interval=None,
        )
        values = [r.values for r in client.records(plans)]
        assert client.fallbacks == 1
        expected = [r.values for r in _private_engine(config, seed=4).records(plans)]
        assert [v["cycles"] for v in values] == [v["cycles"] for v in expected]
        client.close()

    def test_protocol_version_mismatch_is_rejected(self, config):
        with CampaignService() as service, serve_tcp(service) as server:
            host, _, port = server.url[len("tcp://") :].rpartition(":")
            sock = socket.create_connection((host, int(port)), timeout=5.0)
            frames = FrameTransport(sock)
            frames.send({"type": "hello", "id": "raw:0", "version": 99})
            reply = frames.recv()
            assert reply["type"] == "error"
            assert "version mismatch" in reply["message"]
            frames.close()

    def test_unknown_frame_type_gets_an_error_reply(self, config):
        with CampaignService() as service, serve_tcp(service) as server:
            frames = _handshake(server.url)
            frames.send({"type": "frobnicate", "id": "raw:1"})
            reply = frames.recv()
            assert reply["type"] == "error"
            assert "frobnicate" in reply["message"]
            frames.close()

    def test_garbage_frame_drops_the_connection_not_the_server(self, config, plans):
        with CampaignService() as service, serve_tcp(service) as server:
            frames = _handshake(server.url)
            frames.send_bytes(b"\x00\x00\x00\x04haha")
            assert frames.recv() is None  # server hung up on the vandal...
            frames.close()
            with RemoteServiceClient(server.url, config) as client:
                assert client.records(plans)  # ...and keeps serving others

    def test_unknown_metric_names_get_an_error_not_a_hang(self, config, plans):
        # An unknown name and an unhashable one are refused when the frame
        # is parsed; the client gets an error frame, and its connection
        # keeps serving (a timeout turns a regression into a failure).
        with CampaignService() as service, serve_tcp(service) as server:
            with RemoteServiceClient(server.url, config, timeout=10.0) as client:
                with pytest.raises(RemoteServiceError, match="malformed submit.*nope"):
                    client.records(plans, metrics=["nope"])
                with pytest.raises(RemoteServiceError, match="malformed submit.*unhashable"):
                    client.records(plans, metrics=[["x"]])
                reference = _private_engine(config).records(plans, ["cycles"])
                assert client.records(plans, metrics=["cycles"]) == reference
                assert client.transports[server.url].reconnects == 0

    def test_a_ping_is_answered_while_a_cold_submit_measures(self, config, plans):
        # The connection thread only submits; a ticket with work in flight
        # is waited on by a handler thread, so the pong overtakes the result.
        gated = GatedBackend()
        with CampaignService(backend=gated, workers=1) as service:
            with serve_tcp(service) as server:
                frames = _handshake(server.url)
                frames.send(
                    {
                        "type": "submit",
                        "id": "raw:submit",
                        "machine": machine_config_to_wire(config),
                        "plans": [plan_key(plan) for plan in plans],
                        "metrics": ["cycles"],
                    }
                )
                frames.send({"type": "ping", "id": "raw:ping"})
                assert frames.recv()["id"] == "raw:ping"
                gated.gate.set()
                reply = frames.recv()
                assert (reply["type"], reply["id"]) == ("result", "raw:submit")
                assert reply["owned"] == len(plans)
                frames.close()

    def test_bad_urls_are_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unsupported service URL"):
            RemoteTransport("http://example.com")
        with pytest.raises(ValueError, match="malformed tcp URL"):
            RemoteTransport("tcp://no-port")


def _raw_submit(frames, rid, machine, plans):
    frames.send(
        {
            "type": "submit",
            "id": rid,
            "machine": machine,
            "plans": [plan_key(plan) for plan in plans],
            "metrics": ["cycles"],
        }
    )
    reply = frames.recv()
    assert reply["id"] == rid
    return reply


class TestWarmSubmitCaches:
    def test_switching_machine_payload_serves_the_new_machine(self, config, plans):
        # A connection caches its last machine payload's config; a submit
        # naming another machine must get that machine's records, exactly
        # as a fresh connection (and a private engine) would.
        other = default_machine_config(noise_sigma=0.0)
        with CampaignService() as service, serve_tcp(service) as server:
            frames = _handshake(server.url)
            first = _raw_submit(frames, "raw:1", machine_config_to_wire(config), plans)
            switched = _raw_submit(frames, "raw:2", machine_config_to_wire(other), plans)
            back = _raw_submit(frames, "raw:3", machine_config_to_wire(config), plans)
            frames.close()
            fresh = _handshake(server.url)
            expected = _raw_submit(fresh, "raw:4", machine_config_to_wire(other), plans)
            fresh.close()
        assert switched["records"] == expected["records"]
        assert switched["records"] != first["records"]
        assert back["records"] == first["records"]
        reference = _private_engine(other).records(plans, ["cycles"])
        assert [record["v"] for record in switched["records"]] == [
            record.values for record in reference
        ]

    @pytest.mark.parametrize(
        "machine", [{"name": "broken"}, "garbage", [1, 2], None], ids=repr
    )
    def test_malformed_machine_keeps_the_cached_config(
        self, config, plans, machine, monkeypatch
    ):
        parsed = []
        original = transport_module.machine_config_from_wire

        def counting(payload):
            parsed.append(payload)
            return original(payload)

        monkeypatch.setattr(transport_module, "machine_config_from_wire", counting)
        payload = machine_config_to_wire(config)
        with CampaignService() as service, serve_tcp(service) as server:
            frames = _handshake(server.url)
            first = _raw_submit(frames, "raw:1", payload, plans)
            reply = _raw_submit(frames, "raw:2", machine, plans)
            assert reply["type"] == "error"
            assert reply["message"].startswith("malformed submit")
            again = _raw_submit(frames, "raw:3", payload, plans)
            frames.close()
            assert server.stats()["connections"] == 1  # no reconnect
        assert again["type"] == "result"
        assert again["records"] == first["records"]
        assert parsed.count(payload) == 1  # the cached config was kept

    def test_plan_key_is_the_wire_key_and_cached_per_object(self, plans, monkeypatch):
        rendered = []
        original = encoding_module.plan_to_string

        def counting(plan):
            rendered.append(plan)
            return original(plan)

        monkeypatch.setattr(encoding_module, "plan_to_string", counting)
        for key in [plan_key(plan) for plan in plans] + ["small[3]"]:
            plan = parse_plan(key)
            assert plan_key(plan) == key and plan_key(plan) == key
            clone = pickle.loads(pickle.dumps(plan))
            assert clone == plan and plan_key(clone) == key
            assert rendered[-1] is plan  # rendered once; the clone kept it
        leaf = parse_plan("small[3]")
        assert plan_key(leaf) == "small[3]"
        assert plan_key(dataclasses.replace(leaf, n=2)) == "small[2]"


class TestBackpressure:
    def test_busy_frames_bound_inflight_and_both_submits_finish(self, config):
        gated = GatedBackend(CountingBackend())
        with CampaignService(backend=gated, workers=2) as service:
            with serve_tcp(service, max_inflight=1) as server:
                client = RemoteServiceClient(
                    server.url, config, max_attempts=400,
                    backoff_base=0.005, backoff_cap=0.01,
                    heartbeat_interval=None,
                )
                batches = [[iterative_plan(4)], [right_recursive_plan(4)]]
                results = [None, None]

                def submit(slot):
                    results[slot] = client.records(batches[slot])

                threads = [
                    threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)
                ]
                for thread in threads:
                    thread.start()
                # One submit occupies the connection's single slot; the other
                # must be told to back off rather than queue invisibly.
                transport = client.transports[server.url]
                assert _wait_until(lambda: transport.backpressure >= 1)
                gated.gate.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert all(result is not None for result in results)
                assert server.stats()["backpressure"] >= 1
                client.close()


class TestDrain:
    def test_drained_server_refuses_submits_with_a_draining_frame(self, config, plans):
        with CampaignService() as service, serve_tcp(service) as server:
            assert server.drain(timeout=5.0) is True
            strict = RemoteServiceClient(server.url, config, heartbeat_interval=None)
            with pytest.raises(RemoteServiceError, match="draining"):
                strict.records(plans)
            strict.close()

    def test_draining_triggers_client_fallback_bit_identically(self, config, plans):
        with CampaignService() as service, serve_tcp(service) as server:
            server.drain(timeout=5.0)
            armed = RemoteServiceClient(
                server.url, config, seed=2, fallback=True, heartbeat_interval=None
            )
            values = [r.values["cycles"] for r in armed.records(plans)]
            assert armed.fallbacks == 1
            reference = _private_engine(config, seed=2)
            expected = [r.values["cycles"] for r in reference.records(plans)]
            assert values == expected
            assert armed.server_health()[server.url]["state"] == "draining"
            armed.close()

    def test_drain_waits_for_inflight_work(self, config, plans):
        gated = GatedBackend()
        with CampaignService(backend=gated, workers=2) as service:
            with serve_tcp(service) as server:
                client = RemoteServiceClient(
                    server.url, config, heartbeat_interval=None
                )
                result = {}

                def submit():
                    result["records"] = client.records(plans)

                worker = threading.Thread(target=submit)
                worker.start()
                assert _wait_until(
                    lambda: server.stats()["active_requests"] == 1
                )
                drained = {}

                def drain():
                    drained["quiet"] = server.drain(timeout=30.0)

                drainer = threading.Thread(target=drain)
                drainer.start()
                time.sleep(0.05)
                assert not drained  # in-flight work pins the drain...
                gated.gate.set()
                drainer.join(timeout=30.0)
                worker.join(timeout=30.0)
                assert drained["quiet"] is True
                assert result["records"]  # ...and still completes
                client.close()


# -- retry observability (satellite) -------------------------------------------


class TestRetryObservability:
    def test_stats_expose_retrying_and_eta_and_health_degrades(self, config, plans):
        fplan = FaultPlan(seed=CHAOS_SEED, poison_plans=[plans[0]])
        service = CampaignService(
            backend=FaultyBackend(BatchedBackend(), fplan),
            max_attempts=4,
            backoff_base=30.0,  # park the first retry far in the future
            backoff_cap=60.0,
        )
        try:
            service.submit(CampaignJob(config, (plans[0],), ("cycles",), seed=0))
            assert _wait_until(lambda: service.stats().retrying >= 1)
            stats = service.stats()
            assert stats.next_retry_eta is not None
            assert 0.0 < stats.next_retry_eta <= 90.0
            health = service.health()
            assert health.state == "degraded"
            assert "retries_scheduled=1" in health.describe()
        finally:
            service.shutdown()

    def test_quiet_service_reports_no_retry_eta(self, config, plans):
        with CampaignService() as service:
            service.submit(CampaignJob(config, tuple(plans), ("cycles",))).result()
            stats = service.stats()
            assert stats.retrying == 0
            assert stats.next_retry_eta is None
            assert service.health().state == "ok"


# -- session integration (tentpole + close satellite) --------------------------


class TestRemoteSession:
    def test_remote_dp_search_is_bit_identical(self, config):
        reference = session(machine=config, scale="ci", store=MemoryStore())
        expected = reference.search(10)
        with CampaignService() as service, serve_tcp(service) as server:
            sess = Session.connect(server.url, machine=config, scale="ci")
            result = sess.search(10)
            assert plan_key(result.best_plan) == plan_key(expected.best_plan)
            assert result.best_cost == expected.best_cost
            sess.close()

    def test_session_close_closes_the_remote_transport(self, config, plans):
        with CampaignService() as service, serve_tcp(service) as server:
            sess = Session.connect(server.url, machine=config)
            client = sess.cost_engine()
            client.records(plans)
            transport = client.transports[server.url]
            sess.close()
            assert transport.closed
            assert sess._cost_engine is None  # the next use redials
            sess.close()  # idempotent
            rebuilt = sess.cost_engine()
            assert rebuilt is not client
            assert rebuilt.records(plans)
            sess.close()

    def test_session_close_closes_a_service_clients_fallback_engine(
        self, config, plans
    ):
        service = CampaignService()
        service.shutdown()  # every submit will be refused
        sess = Session.connect(service, machine=config, fallback=True)
        client = sess.cost_engine()
        client.records(plans)  # degrades: builds the private fallback engine
        assert client.fallbacks == 1
        assert client._fallback_engine is not None
        sess.close()
        assert client._fallback_engine is None

    def test_session_close_keeps_a_plain_engine_memoised(self, config, plans):
        sess = session(machine=config, store=MemoryStore())
        engine = sess.cost_engine()
        engine.records(plans)
        sess.close()
        assert sess.cost_engine() is engine  # its record cache survives

    def test_context_manager_exit_closes_remote_session(self, config, plans):
        with CampaignService() as service, serve_tcp(service) as server:
            with Session.connect(server.url, machine=config) as sess:
                client = sess.cost_engine()
                client.records(plans)
                transport = client.transports[server.url]
            assert transport.closed

    def test_transport_options_require_a_url(self, config):
        with CampaignService() as service:
            with pytest.raises(TypeError, match="transport options"):
                Session.connect(service, machine=config, max_attempts=3)

    def test_remote_session_fallback_flag_reaches_the_client(self, config):
        with CampaignService() as service, serve_tcp(service) as server:
            armed = Session.connect(server.url, machine=config, fallback=True)
            plain = Session.connect(server.url, machine=config)
            assert armed.cost_engine().fallback is True
            assert plain.cost_engine().fallback is False
            armed.close()
            plain.close()


# -- concurrent remote clients dedupe across processes (satellite) -------------


CHILD_CLIENT = """
import json
import sys

from repro.machine.configs import tiny_machine_config
from repro.runtime.fleet import RemoteServiceClient
from repro.wht.random_plans import RSUSampler

plans = RSUSampler().sample_many(8, count=10, rng=5)
client = RemoteServiceClient(sys.argv[1], tiny_machine_config(), seed=9)
records = client.records(plans, ("cycles", "instructions"))
client.close()
print(json.dumps([record.values for record in records], sort_keys=True), flush=True)
"""


class TestConcurrentRemoteClients:
    def test_four_processes_dedupe_to_one_measurement_per_key(self, tmp_path):
        script = tmp_path / "remote_client.py"
        script.write_text(CHILD_CLIENT, encoding="utf-8")
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        counting = CountingBackend()
        with CampaignService(backend=counting, workers=3) as service:
            with serve_tcp(service) as server:
                procs = [
                    subprocess.Popen(
                        [sys.executable, str(script), server.url],
                        stdout=subprocess.PIPE,
                        stderr=subprocess.PIPE,
                        env=env,
                        text=True,
                    )
                    for _ in range(4)
                ]
                outputs = []
                for proc in procs:
                    out, err = proc.communicate(timeout=120)
                    assert proc.returncode == 0, f"client failed: {err}"
                    outputs.append(out.strip())
            stats = service.stats()

        # Every process saw bit-identical records...
        assert len(set(outputs)) == 1
        # ...exactly one real measurement happened per distinct
        # (machine_hash, plan_key, seed, channel) key...
        assert counting.duplicate_executions() == []
        assert len(counting.executed) == len(set(counting.executed))
        # ...and the other three processes' work was deduped, not run.
        assert stats.jobs == 4
        assert stats.dedup_savings + stats.store_hits > 0


# -- the acceptance criterion --------------------------------------------------


class TestNetworkChaosInvariant:
    """DP n=14 over a ~20%-faulty wire to a ~20%-faulty backend."""

    N = 14

    def test_chaotic_remote_search_is_bit_identical_with_zero_duplicates(
        self, config, tmp_path
    ):
        reference = session(machine=config, scale="ci", store=MemoryStore())
        expected = reference.search(self.N)

        fplan = FaultPlan(
            seed=CHAOS_SEED,
            # ~20% of backend batches fail before touching the machine.
            backend=FaultSpec(error_rate=0.20),
            # ~20% of frames misbehave: drops, abrupt and mid-frame
            # disconnects, garbage, plus independent delays.
            network=FaultSpec(
                error_rate=0.06,
                crash_rate=0.06,
                kill_rate=0.04,
                torn_tail_rate=0.05,
                delay_rate=0.08,
                delay=0.002,
            ),
        )
        counting = CountingBackend()
        inner_store = ShardedRecordStore(tmp_path / "campaigns")
        service = CampaignService(
            store=inner_store,
            backend=FaultyBackend(counting, fplan),
            workers=3,
            max_attempts=8,
            backoff_base=0.002,
            backoff_cap=0.05,
        )
        server = serve_tcp(service, idle_timeout=10.0)
        try:
            sess = Session.connect(
                server.url,
                machine=config,
                scale="ci",
                fallback=True,
                fault_plan=fplan,
                max_attempts=12,
                backoff_base=0.002,
                backoff_cap=0.05,
                heartbeat_interval=0.5,
            )
            result = sess.search(self.N)

            # 1. The search completed, bit-identical to the fault-free run.
            assert plan_key(result.best_plan) == plan_key(expected.best_plan)
            assert result.best_cost == expected.best_cost

            # 2. Chaos actually happened — on the wire, not just the backend.
            assert fplan.injected() > 0
            assert fplan.calls("net-send") + fplan.calls("net-recv") > 0
            assert fplan.calls("backend") > 0

            # 3. Zero duplicate measurements, however many resubmits the
            #    faulty wire forced.
            assert counting.duplicate_executions() == []

            sess.close()
            server.drain(timeout=30.0)
        finally:
            server.close()
            service.shutdown()
            inner_store.close()

        # 4. Zero conflicting persisted records: every parseable line in
        #    every shard agrees with every other line for its key.
        with ShardedRecordStore(tmp_path / "campaigns") as reopened:
            by_key = {}
            for log in reopened.cost_logs():
                for line in Path(log).read_text(encoding="utf-8").splitlines():
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if "p" not in payload:
                        continue  # header
                    for metric, value in payload["v"].items():
                        seen = by_key.setdefault((payload["p"], metric), value)
                        assert seen == value, (
                            f"conflicting persisted values for {payload['p']}:{metric}"
                        )
            assert by_key  # the search persisted records through the chaos
