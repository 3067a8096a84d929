"""The fleet client: many servers, one record space, chaos-tolerant.

The load-bearing guarantee (ISSUE 10 acceptance, DESIGN.md §15): a DP
search striped over a 3-server fleet whose members share one record
space **completes bit-identically to a serial engine** even when one
member is SIGKILLed — or partitioned — mid-search, with zero duplicate
measurements and zero conflicting persisted shard records.

``REPRO_CHAOS_SEED`` selects the fault schedule (and the SIGKILL victim)
so CI can run a seed matrix; every test must hold for any seed.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.runtime.fleet as fleet_module
import repro.runtime.transport as transport_module
import repro.wht.encoding as encoding_module
from repro.machine.configs import tiny_machine_config
from repro.machine.machine import SimulatedMachine
from repro.runtime.backends import BatchedBackend
from repro.runtime.cost_engine import CostEngine
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.fleet import (
    DEAD,
    DRAINING,
    HEALTHY,
    PARTITIONED,
    FleetClient,
    MembershipRegistry,
    RemoteServiceClient,
    ring_assign,
    ring_owner,
    ring_weight,
)
from repro.runtime.service import CampaignService, ServiceError
from repro.runtime.session import Session, session
from repro.runtime.sharded_store import ShardedRecordStore
from repro.runtime.store import MemoryStore, machine_config_hash
from repro.runtime.transport import (
    RemoteServiceError,
    TransportError,
    serve_tcp,
)
from repro.wht.canonical import iterative_plan
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

    def close(self):
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()


def _duplicates(*countings):
    """Units executed more than once across every member's backend."""
    seen, duplicates = set(), []
    for counting in countings:
        for item in counting.executed:
            if item in seen:
                duplicates.append(item)
            seen.add(item)
    return duplicates


class Fleet:
    """Test helper: N in-process servers joined into one fleet."""

    def __init__(self, tmp_path, size=3, workers=2):
        self.countings = [CountingBackend() for _ in range(size)]
        self.services = [
            CampaignService(
                store=ShardedRecordStore(tmp_path / "campaigns", auto_compact=None),
                backend=counting,
                workers=workers,
                shared_store=True,
            )
            for counting in self.countings
        ]
        self.servers = [serve_tcp(service) for service in self.services]
        self.urls = [server.url for server in self.servers]
        for server in self.servers:
            server.join_fleet(self.urls, self_url=server.url)

    def close(self):
        for server in self.servers:
            server.close()
        for service in self.services:
            service.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


@pytest.fixture
def config():
    return tiny_machine_config()


@pytest.fixture
def plans():
    return RSUSampler().sample_many(8, count=12, rng=3)


# -- the rendezvous ring -------------------------------------------------------


class TestRendezvousRing:
    MEMBERS = ("tcp://a:1", "tcp://b:1", "tcp://c:1")

    def test_owner_is_deterministic_and_order_independent(self):
        keys = [plan_key(p) for p in RSUSampler().sample_many(6, count=20, rng=1)]
        for key in keys:
            owner = ring_owner(self.MEMBERS, "mh", key)
            assert owner in self.MEMBERS
            assert owner == ring_owner(tuple(reversed(self.MEMBERS)), "mh", key)
            assert owner == ring_owner(self.MEMBERS, "mh", key)

    def test_keys_spread_over_every_member(self):
        keys = [f"key-{i}" for i in range(240)]
        groups = ring_assign(self.MEMBERS, "mh", keys)
        assert set(groups) == set(self.MEMBERS)
        # Rendezvous hashing is roughly uniform; no member starves.
        assert all(len(group) > 40 for group in groups.values())
        # Assignment partitions the keys and preserves per-group order.
        merged = [key for group in groups.values() for key in group]
        assert sorted(merged) == sorted(keys)
        for group in groups.values():
            assert group == [key for key in keys if key in set(group)]

    def test_removing_a_member_moves_only_its_keys(self):
        keys = [f"key-{i}" for i in range(200)]
        before = {key: ring_owner(self.MEMBERS, "mh", key) for key in keys}
        survivors = tuple(m for m in self.MEMBERS if m != "tcp://b:1")
        after = {key: ring_owner(survivors, "mh", key) for key in keys}
        for key in keys:
            if before[key] != "tcp://b:1":
                assert after[key] == before[key]
            else:
                assert after[key] in survivors

    def test_weight_depends_on_every_component(self):
        base = ring_weight("m", "mh", "k")
        assert ring_weight("m2", "mh", "k") != base
        assert ring_weight("m", "mh2", "k") != base
        assert ring_weight("m", "mh", "k2") != base

    def test_empty_ring_raises(self):
        with pytest.raises(ServiceError):
            ring_owner((), "mh", "k")
        with pytest.raises(ServiceError):
            ring_assign((), "mh", ["k"])
        assert ring_assign((), "mh", []) == {}

    @settings(max_examples=300, deadline=None)
    @given(
        members=st.lists(st.text(min_size=1, max_size=24), min_size=1, max_size=4, unique=True),
        machine_hash=st.one_of(
            st.text(alphabet="0123456789abcdef", min_size=64, max_size=64), st.text()
        ),
        keys=st.lists(st.text(max_size=40), max_size=24),
    )
    def test_assign_groups_exactly_as_ring_owner(self, members, machine_hash, keys):
        # ring_assign unrolls derive_seed; ring_owner/ring_weight stay the
        # reference it must match bit for bit, key order kept per group.
        expected = {}
        for key in keys:
            expected.setdefault(ring_owner(members, machine_hash, key), []).append(key)
        assert ring_assign(members, machine_hash, keys) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        ports=st.lists(st.integers(1, 65535), min_size=1, max_size=4, unique=True),
        pool=st.lists(st.text(max_size=30), min_size=1, max_size=10),
        rounds=st.lists(
            st.tuples(
                st.sampled_from(["kill", "partition", "heal", "rejoin", "none"]),
                st.integers(0, 3),
                st.lists(st.integers(0, 9), max_size=12),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_cached_owners_follow_the_live_ring(self, ports, pool, rounds):
        # The client memoises owners per live-member tuple; between rounds a
        # member dies, is partitioned, heals or rejoins, and every round's
        # grouping must equal ring_owner over the members alive right then.
        urls = [f"tcp://127.0.0.1:{port}" for port in ports]
        client = FleetClient(urls, tiny_machine_config(), heartbeat_interval=None)
        try:
            for action, which, picks in rounds:
                url = urls[which % len(urls)]
                if action == "kill":
                    client.registry.mark(url, DEAD)
                elif action == "partition":
                    client.registry.mark_partitioned(url, 3600.0)
                elif action == "heal" and client.registry.state(url) == PARTITIONED:
                    client.registry.mark_partitioned(url, 0.0)  # heals on alive()
                elif action == "rejoin":
                    client.registry.add(url)
                members = client.registry.alive()
                if not members:
                    continue
                keys = [pool[pick % len(pool)] for pick in picks]
                expected = {}
                for key in keys:
                    owner = ring_owner(members, client.machine_hash, key)
                    expected.setdefault(owner, []).append(key)
                assert client._assign(members, keys) == expected
        finally:
            client.close()


# -- membership ----------------------------------------------------------------


class TestMembershipRegistry:
    def test_starts_healthy_and_dedupes_urls(self):
        registry = MembershipRegistry(["tcp://a:1", "tcp://b:1", "tcp://a:1"])
        assert registry.members() == ("tcp://a:1", "tcp://b:1")
        assert registry.alive() == ("tcp://a:1", "tcp://b:1")
        assert all(state == HEALTHY for state in registry.snapshot().values())

    def test_needs_at_least_one_member(self):
        with pytest.raises(ValueError):
            MembershipRegistry([])

    def test_partition_heals_after_its_duration(self):
        registry = MembershipRegistry(["tcp://a:1", "tcp://b:1"])
        assert registry.mark_partitioned("tcp://a:1", duration=0.05)
        assert registry.alive() == ("tcp://b:1",)
        assert registry.state("tcp://a:1") == PARTITIONED
        heal = registry.earliest_heal()
        assert heal is not None and heal <= 0.05
        time.sleep(0.06)
        assert registry.alive() == ("tcp://a:1", "tcp://b:1")
        assert registry.state("tcp://a:1") == HEALTHY

    def test_dead_is_terminal_and_drain_is_one_way(self):
        registry = MembershipRegistry(["tcp://a:1", "tcp://b:1"])
        assert registry.mark("tcp://a:1", DEAD)
        assert not registry.mark("tcp://a:1", HEALTHY)
        assert not registry.mark_partitioned("tcp://a:1", duration=0.01)
        assert registry.state("tcp://a:1") == DEAD
        assert registry.mark("tcp://b:1", DRAINING)
        assert not registry.mark("tcp://b:1", HEALTHY)
        assert registry.alive() == ()

    def test_add_rejoins_a_dead_member(self):
        registry = MembershipRegistry(["tcp://a:1"])
        registry.mark("tcp://a:1", DEAD)
        version = registry.version
        assert registry.add("tcp://a:1")
        assert registry.state("tcp://a:1") == HEALTHY
        assert registry.version > version
        assert registry.add("tcp://b:1")
        assert registry.members() == ("tcp://a:1", "tcp://b:1")


# -- the engine surface --------------------------------------------------------


class TestFleetClientEngineSurface:
    def test_records_are_bit_identical_and_striped(self, config, plans, tmp_path):
        expected = _private_engine(config, seed=9).records(
            plans, ("cycles", "instructions")
        )
        with Fleet(tmp_path) as fleet:
            with FleetClient(fleet.urls, config, seed=9) as client:
                records = client.records(plans, ("cycles", "instructions"))
                assert [r.values for r in records] == [r.values for r in expected]
                assert client.evaluations == len(plans)
                assert client.measured > 0
                # One record space: replaying the batch is all store hits.
                again = client.records(plans, ("cycles", "instructions"))
                assert [r.values for r in again] == [r.values for r in records]
            # The work striped over more than one member...
            busy = [c for c in fleet.countings if c.executed]
            assert len(busy) >= 2
            # ...and nothing was measured twice, fleet-wide.
            assert _duplicates(*fleet.countings) == []

    def test_measured_counts_every_members_distinct_executions(
        self, config, plans, tmp_path
    ):
        """Members answer on concurrent threads; no count may be lost."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with Fleet(tmp_path) as fleet:
                with FleetClient(
                    fleet.urls, config, seed=9, heartbeat_interval=None
                ) as client:
                    client.records(plans, ("cycles",))
        finally:
            sys.setswitchinterval(interval)
        assert sum(1 for c in fleet.countings if c.executed) >= 2
        executed = {key for c in fleet.countings for _hash, key, _seed in c.executed}
        assert client.measured == len(executed)

    def test_session_connect_list_builds_a_fleet_engine(self, config, tmp_path):
        with Fleet(tmp_path, size=2) as fleet:
            sess = Session.connect(fleet.urls, machine=config, scale="ci")
            try:
                assert isinstance(sess.cost_engine(), FleetClient)
            finally:
                sess.close()

    def test_single_url_list_is_a_one_member_fleet(self, config, tmp_path):
        with Fleet(tmp_path, size=1) as fleet:
            sess = Session.connect([fleet.urls[0]], machine=config)
            try:
                assert isinstance(sess.cost_engine(), FleetClient)
            finally:
                sess.close()

    def test_bad_connect_lists_are_rejected(self, config):
        with pytest.raises(TypeError):
            Session.connect([], machine=config)
        with pytest.raises(TypeError):
            Session.connect([42], machine=config)

    def test_fleet_dp_search_is_bit_identical(self, config, tmp_path):
        expected = session(machine=config, scale="ci", store=MemoryStore()).search(10)
        with Fleet(tmp_path) as fleet:
            sess = Session.connect(fleet.urls, machine=config, scale="ci")
            try:
                result = sess.search(10)
                assert plan_key(result.best_plan) == plan_key(expected.best_plan)
                assert result.best_cost == expected.best_cost
                assert _duplicates(*fleet.countings) == []
            finally:
                sess.close()


# -- failover and membership change --------------------------------------------


class TestFailover:
    def test_killed_member_fails_over_to_survivors(self, config, plans, tmp_path):
        expected = _private_engine(config, seed=6).records(plans, ("cycles",))
        with Fleet(tmp_path) as fleet:
            client = FleetClient(
                fleet.urls,
                config,
                seed=6,
                max_attempts=2,
                backoff_base=0.01,
                backoff_cap=0.05,
                partition_duration=0.05,
                heartbeat_interval=None,
            )
            try:
                # Kill one member outright before any work reaches it.  The
                # ring hashes the members' random ports, so pick among the
                # members that own at least one of the plans.
                owners = ring_assign(
                    fleet.urls, client.machine_hash, [plan_key(p) for p in plans]
                )
                owning = [i for i, url in enumerate(fleet.urls) if url in owners]
                victim = owning[CHAOS_SEED % len(owning)]
                fleet.servers[victim].close()
                fleet.services[victim].shutdown()
                records = client.records(plans, ("cycles",))
                assert [r.values for r in records] == [r.values for r in expected]
                assert client.failovers >= 1
                assert _duplicates(*fleet.countings) == []
                # Keep submitting: once the partition heals, the victim
                # rejoins the ring, fails again, and the second consecutive
                # failure escalates to permanent death — a dead member must
                # not cost a rehash round forever.
                deadline = time.monotonic() + 20.0
                rng = 20
                while (
                    client.registry.state(fleet.urls[victim]) != DEAD
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.06)  # past partition_duration: heal, rejoin
                    more = RSUSampler().sample_many(7, count=8, rng=rng)
                    rng += 1
                    client.records(more, ("cycles",))
                assert client.registry.state(fleet.urls[victim]) == DEAD
            finally:
                client.close()

    def test_drain_mid_search_hands_off_bit_identically(self, config, tmp_path):
        """Satellite: a member drains mid-DP-search; keys hand off and the
        final result is bit-identical to a single-server run."""
        expected = session(machine=config, scale="ci", store=MemoryStore()).search(10)
        with Fleet(tmp_path) as fleet:
            victim = CHAOS_SEED % len(fleet.servers)
            sess = Session.connect(
                fleet.urls,
                machine=config,
                scale="ci",
                heartbeat_interval=0.2,
                partition_duration=0.05,
            )
            drainer = threading.Timer(
                0.3, lambda: fleet.servers[victim].drain(timeout=60.0)
            )
            drainer.start()
            try:
                result = sess.search(10)
                drainer.join()
                assert plan_key(result.best_plan) == plan_key(expected.best_plan)
                assert result.best_cost == expected.best_cost
                assert _duplicates(*fleet.countings) == []
                engine = sess.cost_engine()
                assert engine.registry.state(fleet.urls[victim]) in (
                    HEALTHY,  # the drain landed after the search finished
                    DRAINING,
                )
            finally:
                drainer.cancel()
                sess.close()

    def test_all_members_dead_degrades_with_fallback(self, config, plans, tmp_path):
        expected = _private_engine(config, seed=2).records(plans, ("cycles",))
        with Fleet(tmp_path, size=2) as fleet:
            client = FleetClient(
                fleet.urls,
                config,
                seed=2,
                fallback=True,
                max_attempts=1,
                backoff_base=0.01,
                backoff_cap=0.02,
                partition_duration=0.01,
                heartbeat_interval=None,
            )
            try:
                for url in fleet.urls:
                    client.registry.mark(url, DEAD)
                records = client.records(plans, ("cycles",))
                assert [r.values for r in records] == [r.values for r in expected]
                assert client.fallbacks == 1
            finally:
                client.close()

    def test_all_members_dead_without_fallback_raises(self, config, plans, tmp_path):
        with Fleet(tmp_path, size=2) as fleet:
            client = FleetClient(fleet.urls, config, heartbeat_interval=None)
            try:
                for url in fleet.urls:
                    client.registry.mark(url, DEAD)
                with pytest.raises(RemoteServiceError):
                    client.records(plans[:2], ("cycles",))
            finally:
                client.close()

    def test_a_lone_members_failure_raises_and_marks_nothing(self, config, plans):
        """With nowhere to fail over, each call redials and raises the wire's error."""
        url = "tcp://127.0.0.1:1"
        client = FleetClient(
            url, config, max_attempts=2, backoff_base=0.001,
            connect_timeout=0.5, heartbeat_interval=None,
        )
        try:
            for _ in range(2):
                with pytest.raises(TransportError, match="after 2 attempts"):
                    client.records(plans[:2], ("cycles",))
            assert client.registry.snapshot() == {url: HEALTHY}
            assert client.failovers == 0
        finally:
            client.close()

    def test_add_member_joins_the_ring_at_runtime(self, config, plans, tmp_path):
        with Fleet(tmp_path) as fleet:
            client = FleetClient(fleet.urls[:2], config, heartbeat_interval=None)
            try:
                assert client.registry.members() == tuple(fleet.urls[:2])
                assert client.add_member(fleet.urls[2])
                assert not client.add_member(fleet.urls[2])  # already in
                assert client.registry.members() == tuple(fleet.urls)
                records = client.records(plans, ("cycles",))
                assert len(records) == len(plans)
            finally:
                client.close()


# -- probes, routing, observability -------------------------------------------


class TestProbesAndRouting:
    def test_probe_learns_draining_from_the_pong_flag(self, config, tmp_path):
        with Fleet(tmp_path, size=2) as fleet:
            client = FleetClient(fleet.urls, config, heartbeat_interval=None)
            try:
                fleet.servers[0].drain(timeout=10.0)
                states = client.probe()
                assert states[fleet.urls[0]] == DRAINING
                assert states[fleet.urls[1]] == HEALTHY
            finally:
                client.close()

    def test_probe_partitions_an_unreachable_member(self, config, tmp_path):
        with Fleet(tmp_path, size=2) as fleet:
            client = FleetClient(
                fleet.urls,
                config,
                heartbeat_interval=None,
                max_attempts=1,
                backoff_base=0.01,
                backoff_cap=0.02,
                connect_timeout=0.5,
            )
            try:
                fleet.servers[0].close()
                states = client.probe(timeout=1.0)
                assert states[fleet.urls[0]] == PARTITIONED
            finally:
                client.close()

    def test_a_member_serves_keys_it_does_not_own(self, config, plans, tmp_path):
        """A plain remote client pointed at one member of a fleet gets
        correct records, measured by that member alone: the client's ring
        is the only router, so a server measures every key it is sent."""
        expected = _private_engine(config, seed=3).records(plans, ("cycles",))
        with Fleet(tmp_path) as fleet:
            client = RemoteServiceClient(fleet.urls[0], config, seed=3)
            try:
                records = client.records(plans, ("cycles",))
                assert [r.values for r in records] == [r.values for r in expected]
            finally:
                client.close()
            assert _duplicates(*fleet.countings) == []
            assert fleet.countings[0].executed
            assert [c.executed for c in fleet.countings[1:]] == [[], []]

    def test_stats_and_health_expose_fleet_fields(self, config, plans, tmp_path):
        with Fleet(tmp_path) as fleet:
            assert fleet.services[0].stats().members == 3
            assert fleet.services[0].health().members == 3
            client = FleetClient(fleet.urls, config, heartbeat_interval=None)
            try:
                client.records(plans[:4], ("cycles",))
                fstats = client.fleet_stats()
                assert fstats["members"] == 3
                assert fstats["members_healthy"] == 3
                remote = client.server_stats()
                assert set(remote) == set(fleet.urls)
                for payload in remote.values():
                    assert payload["members"] == 3
            finally:
                client.close()

    def test_standalone_service_reports_zero_members(self, config):
        with CampaignService(backend=BatchedBackend(), workers=1) as service:
            assert service.stats().members == 0
            assert service.health().members == 0


# -- the fault plan's fleet axis -----------------------------------------------


class _ManualClock:
    """Stands in for the fleet module's ``time``: time passes only while the
    client waits for a heal, so a partition outlives every round in which
    another member is alive, however slowly the host runs those rounds."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestFleetFaultAxis:
    def test_fleet_sites_draw_from_the_fleet_spec(self):
        fplan = FaultPlan(seed=3, fleet=FaultSpec(error_rate=1.0))
        assert fplan.decide("fleet-tcp://a:1").error
        assert not fplan.decide("net-send").error
        assert not fplan.decide("backend").error

    def test_injected_kills_are_permanent_member_death(self, config, plans, tmp_path):
        expected = _private_engine(config, seed=5).records(plans, ("cycles",))
        fplan = FaultPlan(seed=CHAOS_SEED, fleet=FaultSpec(kill_rate=1.0))
        with Fleet(tmp_path, size=2) as fleet:
            client = FleetClient(
                fleet.urls,
                config,
                seed=5,
                fallback=True,
                fault_plan=fplan,
                heartbeat_interval=None,
            )
            try:
                records = client.records(plans, ("cycles",))
                assert [r.values for r in records] == [r.values for r in expected]
                assert client.injected_kills == 2
                assert all(
                    state == DEAD for state in client.registry.snapshot().values()
                )
                assert client.fallbacks == 1
            finally:
                client.close()

    def test_injected_partitions_heal_and_the_batch_completes(
        self, config, plans, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(fleet_module, "time", _ManualClock())
        expected = _private_engine(config, seed=7).records(plans, ("cycles",))
        fplan = FaultPlan(seed=CHAOS_SEED, fleet=FaultSpec(error_rate=0.4))
        with Fleet(tmp_path) as fleet:
            client = FleetClient(
                fleet.urls,
                config,
                seed=7,
                fault_plan=fplan,
                partition_duration=0.05,
                heartbeat_interval=None,
            )
            try:
                records = client.records(plans, ("cycles",))
                assert [r.values for r in records] == [r.values for r in expected]
                assert _duplicates(*fleet.countings) == []
                assert sum(
                    fplan.calls(f"fleet-{url}") for url in fleet.urls
                ) >= len(fleet.urls)
            finally:
                client.close()

    def test_fault_schedule_is_seed_deterministic(
        self, config, plans, tmp_path, monkeypatch
    ):
        """Same seed + same member set → the same injection schedule.

        (The schedule keys on ``fleet-<url>`` sites, so it is deterministic
        *per member set* — exactly what a CI seed-matrix rerun replays.)
        """
        with Fleet(tmp_path, size=2) as fleet:

            def run():
                monkeypatch.setattr(fleet_module, "time", _ManualClock())
                fplan = FaultPlan(seed=CHAOS_SEED, fleet=FaultSpec(error_rate=0.3))
                client = FleetClient(
                    fleet.urls,
                    config,
                    seed=8,
                    fault_plan=fplan,
                    partition_duration=0.02,
                    heartbeat_interval=None,
                    client_id="determinism",
                )
                try:
                    values = [
                        r.values for r in client.records(plans, ("cycles",))
                    ]
                    draws = {url: fplan.calls(f"fleet-{url}") for url in fleet.urls}
                    return values, {**client.fleet_stats(), "draws": draws}
                finally:
                    client.close()

            first_values, first = run()
            second_values, second = run()
            detail = f"first run: {first}\nsecond run: {second}"
            counters = ("injected_partitions", "failovers")
            assert [first[name] for name in counters] == [
                second[name] for name in counters
            ], detail
            assert first_values == second_values, detail


# -- satellite: no thread leak on connect/close cycles -------------------------


class TestTransportThreadHygiene:
    def test_a_closed_client_raises_and_dials_nothing(self, config, plans, tmp_path):
        def transport_threads():
            return {t for t in threading.enumerate() if t.name.startswith("remote-heartbeat")}

        with Fleet(tmp_path, size=2) as fleet:
            before = transport_threads()
            client = FleetClient(fleet.urls, config, heartbeat_interval=0.05)
            client.records(plans[:2], ("cycles",))
            client.close()
            with pytest.raises(TransportError, match="closed"):
                client.records(plans[:2], ("cycles",))
            deadline = time.monotonic() + 5.0
            while (transport_threads() - before) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert transport_threads() - before == set()

    def test_warm_rounds_start_no_threads(self, config, plans, tmp_path, monkeypatch):
        # A warm round sends every group's frame from the calling thread,
        # and each server answers its all-cached submit on the connection
        # thread: no fleet-submit-* or *-submit-* thread, no thread at all.
        with Fleet(tmp_path, size=2) as fleet:
            client = FleetClient(fleet.urls, config, heartbeat_interval=None)
            cold = client.records(plans)
            keys = [record.plan_key for record in cold]
            assert len(ring_assign(fleet.urls, client.machine_hash, keys)) == 2
            started = []
            original = threading.Thread.start

            def start(thread):
                started.append(thread.name)
                return original(thread)

            monkeypatch.setattr(threading.Thread, "start", start)
            for _ in range(100):
                assert client.records(plans) == cold
            monkeypatch.setattr(threading.Thread, "start", original)
            client.close()
        assert started == []
        assert client.measured == len(plans)

    def test_warm_rounds_recompute_nothing(self, config, plans, tmp_path, monkeypatch):
        # A warm round reuses what an earlier round computed: the client's
        # ring owners, each server's parsed plans with their keys, and each
        # connection's parsed machine config.  Every round sends freshly
        # parsed plans, as a new DP search builds new candidate objects.
        calls = {"derive_seed": [], "plan_to_string": [], "machine": []}

        def counting(name, original):
            def wrapper(*args):
                calls[name].append(threading.current_thread().name)
                return original(*args)

            return wrapper

        for module, name in (
            (fleet_module, "derive_seed"),
            (encoding_module, "plan_to_string"),
            (transport_module, "machine_config_from_wire"),
        ):
            key = "machine" if name.startswith("machine") else name
            monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
        keys = [plan_key(plan) for plan in plans]
        with Fleet(tmp_path, size=2) as fleet:
            client = FleetClient(fleet.urls, config, heartbeat_interval=None)
            cold = client.records(plans)
            assert len(ring_assign(fleet.urls, client.machine_hash, keys)) == 2
            calls["derive_seed"].clear()
            calls["plan_to_string"].clear()
            for _ in range(100):
                assert client.records([parse_plan(key) for key in keys]) == cold
            client.close()
        assert calls["derive_seed"] == []
        assert [name for name in calls["plan_to_string"] if "-conn-" in name] == []
        assert len(calls["machine"]) == len(set(calls["machine"])) <= 2
        assert all("-conn-" in name for name in calls["machine"])

    def test_100_connect_close_cycles_leak_no_threads(self, config):
        with CampaignService(backend=BatchedBackend(), workers=1) as service:
            with serve_tcp(service) as server:
                plan = [iterative_plan(3)]
                baseline = threading.active_count()
                for index in range(100):
                    client = RemoteServiceClient(
                        server.url, config, heartbeat_interval=0.05
                    )
                    if index % 25 == 0:
                        client.records(plan, ("cycles",))
                    client.close()
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    leaked = [
                        t.name
                        for t in threading.enumerate()
                        if t.name.startswith("remote-heartbeat")
                    ]
                    if not leaked:
                        break
                    time.sleep(0.05)
                assert leaked == [], f"leaked transport threads: {leaked}"
                assert threading.active_count() <= baseline + 2


# -- suite integration ---------------------------------------------------------


class TestSuiteConnectList:
    SPEC = {
        "name": "fleet-suite",
        "machines": ["default"],
        "scale": "ci",
        "experiments": ["figure1"],
    }

    def test_spec_accepts_a_connect_list(self):
        from repro.suite.spec import SuiteSpec

        spec = SuiteSpec.from_dict(
            {**self.SPEC, "connect": ["tcp://a:1", "tcp://b:1"]}
        )
        assert spec.connect == ("tcp://a:1", "tcp://b:1")
        assert spec.to_dict()["connect"] == ["tcp://a:1", "tcp://b:1"]
        assert "connect=" in spec.describe()
        single = SuiteSpec.from_dict({**self.SPEC, "connect": "tcp://a:1"})
        assert single.connect == ("tcp://a:1",)

    def test_connect_free_specs_hash_as_before(self):
        from repro.suite.spec import SuiteSpec

        spec = SuiteSpec.from_dict(self.SPEC)
        assert spec.connect == ()
        assert "connect" not in spec.to_dict()

    def test_bad_connect_values_are_rejected(self):
        from repro.suite.spec import SpecError, SuiteSpec

        with pytest.raises(SpecError):
            SuiteSpec.from_dict({**self.SPEC, "connect": [1, 2]})
        with pytest.raises(SpecError):
            SuiteSpec.from_dict({**self.SPEC, "connect": {"url": "tcp://a:1"}})
        with pytest.raises(SpecError):
            SuiteSpec.from_dict(
                {**self.SPEC, "connect": ["tcp://a:1", "tcp://a:1"]}
            )

    def test_suite_defaults_connect_from_the_spec(self, tmp_path):
        run = repro.suite({**self.SPEC, "connect": ["tcp://a:1", "tcp://b:1"]})
        assert run.connect == ("tcp://a:1", "tcp://b:1")
        override = repro.suite(
            {**self.SPEC, "connect": ["tcp://a:1", "tcp://b:1"]},
            connect="tcp://c:1",
        )
        assert override.connect == "tcp://c:1"

    def test_cli_describe_prints_resolved_targets(self, tmp_path, capsys):
        from repro.suite.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({**self.SPEC, "connect": ["tcp://a:1", "tcp://b:1"]}),
            encoding="utf-8",
        )
        assert main(["describe", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "fleet of 2 member(s)" in out
        assert "tcp://a:1" in out and "tcp://b:1" in out

        assert main(["describe", str(spec_path), "--connect", "tcp://x:9"]) == 0
        out = capsys.readouterr().out
        assert "tcp://x:9 (remote session)" in out

        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(self.SPEC), encoding="utf-8")
        assert main(["describe", str(plain)]) == 0
        assert "(none — in-process sessions)" in capsys.readouterr().out

    def test_suite_runs_against_a_live_fleet(self, config, tmp_path):
        spec = {
            "name": "fleet-live",
            "machines": ["tiny"],
            "scale": "ci",
            "experiments": [
                {"id": "search", "kind": "search", "options": {"n": 6}}
            ],
        }
        with Fleet(tmp_path) as fleet:
            run = repro.suite({**spec, "connect": list(fleet.urls)})
            result = run.run()
            assert result.ok, [r.error for r in result.results]
            assert _duplicates(*fleet.countings) == []


# -- the acceptance criterion ---------------------------------------------------


CHILD_SERVER = """
import json
import sys
import threading

from repro.machine.configs import tiny_machine_config  # noqa: F401 (warms imports)
from repro.runtime.backends import BatchedBackend
from repro.runtime.service import CampaignService
from repro.runtime.sharded_store import ShardedRecordStore
from repro.runtime.transport import serve_tcp

service = CampaignService(
    store=ShardedRecordStore(sys.argv[1], auto_compact=None),
    backend=BatchedBackend(),
    workers=2,
    shared_store=True,
)
server = serve_tcp(service, host="127.0.0.1", port=0)
print(server.url, flush=True)
members = json.loads(sys.stdin.readline())
server.join_fleet(members, self_url=server.url)
print("ready", flush=True)
threading.Event().wait()
"""


def _assert_one_record_space(store_dir):
    """Every persisted shard line is unique per plan and conflict-free."""
    lines_per_key = {}
    values_per_key = {}
    with ShardedRecordStore(store_dir, auto_compact=None) as reopened:
        for log in reopened.cost_logs():
            for line in Path(log).read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn tail from the SIGKILL is legal
                if "p" not in payload:
                    continue  # header
                lines_per_key[payload["p"]] = lines_per_key.get(payload["p"], 0) + 1
                for metric, value in payload["v"].items():
                    seen = values_per_key.setdefault((payload["p"], metric), value)
                    assert seen == value, (
                        f"conflicting persisted values for {payload['p']}:{metric}"
                    )
    assert lines_per_key, "the search persisted no records"
    duplicated = {key: n for key, n in lines_per_key.items() if n > 1}
    assert duplicated == {}, f"duplicate persisted measurements: {duplicated}"


class TestFleetChaosInvariant:
    """DP n=14 on a 3-server fleet surviving one member's death mid-search."""

    N = 14

    def _reference(self, config):
        return session(machine=config, scale="ci", store=MemoryStore()).search(self.N)

    def test_sigkilled_member_mid_search_is_bit_identical(self, config, tmp_path):
        expected = self._reference(config)
        store_dir = tmp_path / "campaigns"
        script = tmp_path / "fleet_member.py"
        script.write_text(CHILD_SERVER, encoding="utf-8")
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(store_dir)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                text=True,
            )
            for _ in range(3)
        ]
        try:
            urls = [proc.stdout.readline().strip() for proc in procs]
            assert all(url.startswith("tcp://") for url in urls)
            membership = json.dumps(urls) + "\n"
            for proc in procs:
                proc.stdin.write(membership)
                proc.stdin.flush()
            for proc in procs:
                assert proc.stdout.readline().strip() == "ready"

            victim = CHAOS_SEED % len(procs)
            killed = threading.Event()

            def kill_once_progressed():
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    lines = 0
                    for log in store_dir.glob("costlog-*.jsonl"):
                        try:
                            lines += sum(1 for _ in log.open("r", encoding="utf-8"))
                        except OSError:
                            pass
                    if lines >= 5:
                        os.kill(procs[victim].pid, signal.SIGKILL)
                        killed.set()
                        return
                    time.sleep(0.01)

            killer = threading.Thread(target=kill_once_progressed, daemon=True)
            killer.start()

            sess = Session.connect(
                urls,
                machine=config,
                scale="ci",
                heartbeat_interval=0.5,
                max_attempts=3,
                backoff_base=0.01,
                backoff_cap=0.1,
                partition_duration=0.1,
            )
            try:
                result = sess.search(self.N)
                killer.join(timeout=60.0)

                # 1. The member really died mid-run...
                assert killed.is_set(), "the victim was never killed"
                assert procs[victim].poll() is not None
                # 2. ...and the search completed bit-identically anyway.
                assert plan_key(result.best_plan) == plan_key(expected.best_plan)
                assert result.best_cost == expected.best_cost
                # 3. The client noticed and failed the victim's keys over.
                engine = sess.cost_engine()
                assert engine.failovers >= 1
                assert engine.registry.state(urls[victim]) in (PARTITIONED, DEAD)
            finally:
                sess.close()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=10.0)

        # 4. One record space, zero duplicate measurements, zero conflicts.
        _assert_one_record_space(store_dir)

    def test_partitioned_member_mid_search_is_bit_identical(self, config, tmp_path):
        expected = self._reference(config)
        fplan = FaultPlan(seed=CHAOS_SEED, fleet=FaultSpec(error_rate=0.2))
        with Fleet(tmp_path) as fleet:
            sess = Session.connect(
                fleet.urls,
                machine=config,
                scale="ci",
                fault_plan=fplan,
                partition_duration=0.05,
                heartbeat_interval=0.5,
            )
            try:
                result = sess.search(self.N)

                assert plan_key(result.best_plan) == plan_key(expected.best_plan)
                assert result.best_cost == expected.best_cost
                # Partitions were really injected (any seed: the schedule
                # consumes hundreds of fleet-site decisions at 20%).
                assert sum(fplan.calls(f"fleet-{u}") for u in fleet.urls) > 0
                engine = sess.cost_engine()
                assert engine.failovers == engine.injected_partitions >= 0
                assert _duplicates(*fleet.countings) == []
            finally:
                sess.close()
        _assert_one_record_space(tmp_path / "campaigns")
