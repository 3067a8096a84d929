"""One engine surface over every record path.

:class:`~repro.runtime.cost_engine.CostEngine`,
:class:`~repro.runtime.service.ServiceClient` and
:class:`~repro.runtime.fleet.FleetClient` (a single URL is a one-member
fleet) share :class:`~repro.runtime.cost_engine.EngineSurface`.  Every
kind must answer ``records`` / ``batch`` / ``__call__`` / ``cost`` bit for
bit like a private engine, count ``evaluations`` and ``measured`` the same
way, degrade bit-identically under ``fallback=True`` and close idempotently.
"""

import contextlib

import pytest

from repro.machine.configs import tiny_machine_config
from repro.machine.machine import SimulatedMachine
from repro.runtime.backends import BatchedBackend
from repro.runtime.cost_engine import CostEngine, EngineSurface
from repro.runtime.fleet import FleetClient, RemoteServiceClient
from repro.runtime.service import CampaignService
from repro.runtime.session import Session
from repro.runtime.sharded_store import ShardedRecordStore
from repro.runtime.store import MemoryStore
from repro.runtime.transport import serve_tcp
from repro.wht.encoding import plan_key
from repro.wht.random_plans import RSUSampler

SEED = 4
METRICS = ("cycles", "instructions")
KINDS = ("engine", "service", "fleet-1", "fleet-2")
REMOTE_KINDS = ("service", "fleet-1", "fleet-2")
#: A fragment of each kind's ``repr``.
REPRS = {
    "engine": "CostEngine(",
    "service": "ServiceClient(",
    "fleet-1": "FleetClient(1 members",
    "fleet-2": "FleetClient(2 members",
}


def _private_engine(config):
    return CostEngine(
        SimulatedMachine(config), backend=BatchedBackend(), store=MemoryStore(), seed=SEED
    )


@pytest.fixture
def config():
    return tiny_machine_config()


@pytest.fixture
def plans():
    return RSUSampler().sample_many(8, count=12, rng=3)


@contextlib.contextmanager
def _surface(kind, config, store_dir):
    """A live engine surface of ``kind`` for ``config`` and :data:`SEED`."""
    if kind == "engine":
        yield CostEngine(SimulatedMachine(config), store=MemoryStore(), seed=SEED)
        return
    if kind == "service":
        with CampaignService(workers=1) as service:
            yield service.client(config, seed=SEED)
        return
    size = int(kind.split("-")[1])
    services = [
        CampaignService(
            store=ShardedRecordStore(store_dir, auto_compact=None),
            workers=1,
            shared_store=True,
        )
        for _ in range(size)
    ]
    servers = [serve_tcp(service) for service in services]
    urls = [server.url for server in servers]
    if size > 1:
        for server in servers:
            server.join_fleet(urls, self_url=server.url)
    target = urls[0] if size == 1 else urls  # one member: a bare URL string
    client = FleetClient(target, config, seed=SEED, heartbeat_interval=None)
    try:
        yield client
    finally:
        client.close()
        for server in servers:
            server.close()
        for service in services:
            service.shutdown()


@contextlib.contextmanager
def _dead_surface(kind, config):
    """A ``fallback=True`` surface of ``kind`` whose record source cannot answer."""
    if kind == "service":
        service = CampaignService(workers=1)
        service.shutdown()
        yield service.client(config, seed=SEED, fallback=True)
        return
    size = int(kind.split("-")[1])
    urls = [f"tcp://127.0.0.1:{port}" for port in range(1, size + 1)]
    client = FleetClient(
        urls[0] if size == 1 else urls,
        config,
        seed=SEED,
        fallback=True,
        max_attempts=1,
        connect_timeout=0.5,
        heartbeat_interval=None,
        partition_duration=0.01,
    )
    try:
        yield client
    finally:
        client.close()


@pytest.mark.parametrize("kind", KINDS)
def test_every_call_is_bit_identical_to_a_private_engine(kind, config, plans, tmp_path):
    reference = _private_engine(config)
    with _surface(kind, config, tmp_path / "campaigns") as surface:
        assert isinstance(surface, EngineSurface)
        records = surface.records(plans, METRICS)
        expected = reference.records(plans, METRICS)
        assert [r.plan_key for r in records] == [r.plan_key for r in expected]
        assert [r.values for r in records] == [r.values for r in expected]
        assert surface.batch(plans) == reference.batch(plans)
        assert [surface(plan) for plan in plans] == [reference(plan) for plan in plans]
        bound, expected_bound = surface.cost("instructions"), reference.cost("instructions")
        assert bound.batch(plans) == expected_bound.batch(plans)
        assert bound(plans[0]) == expected_bound(plans[0])


@pytest.mark.parametrize("kind", KINDS)
def test_evaluations_and_measured(kind, config, plans, tmp_path):
    batch = plans + plans[:3]
    distinct = len({plan_key(plan) for plan in batch})
    with _surface(kind, config, tmp_path / "campaigns") as surface:
        surface.records(batch, ("cycles",))
        assert surface.evaluations == len(batch)
        assert surface.measured == distinct
        surface.records(batch, ("cycles",))  # warm: every record is known
        assert surface.evaluations == 2 * len(batch)
        assert surface.measured == distinct
        assert surface.fallbacks == 0


@pytest.mark.parametrize("kind", REMOTE_KINDS)
def test_fallback_degrades_bit_identically(kind, config, plans):
    expected = [r.values for r in _private_engine(config).records(plans, METRICS)]
    with _dead_surface(kind, config) as surface:
        assert [r.values for r in surface.records(plans, METRICS)] == expected
        assert surface.fallbacks == 1
        assert surface.measured == len({plan_key(plan) for plan in plans})


@pytest.mark.parametrize("kind", KINDS)
def test_repr_and_idempotent_close(kind, config, plans, tmp_path):
    with _surface(kind, config, tmp_path / "campaigns") as surface:
        surface.records(plans[:2])
        assert REPRS[kind] in repr(surface)
        surface.close()
        surface.close()


def test_every_single_server_spelling_is_a_one_member_fleet(config):
    url = "tcp://127.0.0.1:1"
    sessions = [
        Session.connect(target, machine=config, heartbeat_interval=None)
        for target in (url, [url])
    ]
    clients = [sess.cost_engine() for sess in sessions]
    clients.append(RemoteServiceClient(url, config, heartbeat_interval=None))
    try:
        for client in clients:
            assert type(client) is FleetClient
            assert client.registry.members() == (url,)
            assert client.transports[url].max_attempts == 8
    finally:
        for sess in sessions:
            sess.close()
        clients[-1].close()
    pair = FleetClient([url, "tcp://127.0.0.1:2"], config, heartbeat_interval=None)
    assert {t.max_attempts for t in pair.transports.values()} == {3}
    pair.close()
