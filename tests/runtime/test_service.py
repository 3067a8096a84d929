"""The campaign service: cross-session dedup, worker fleet, retry, shutdown.

The load-bearing guarantee is the acceptance criterion of the service design:
any number of concurrent client sessions issuing overlapping work trigger
exactly one real measurement per distinct ``(machine_hash, plan_key, seed)``
— counter-verified against the backend, not inferred from stats — with costs
bit-identical to a single serial session.
"""

import threading
import time

import pytest

from repro.machine.configs import tiny_machine_config
from repro.machine.machine import PreparedPlanCache, SimulatedMachine
from repro.runtime.backends import BatchedBackend, WorkUnit
from repro.runtime.campaigns import sample_units
from repro.runtime.cost_engine import CostEngine
from repro.runtime.service import (
    CampaignJob,
    CampaignService,
    ServiceBackend,
    ServiceError,
    serve,
)
from repro.runtime.session import Session, session
from repro.runtime.store import MemoryStore, machine_config_hash
from repro.wht.canonical import iterative_plan, right_recursive_plan
from repro.wht.encoding import plan_key
from repro.wht.random_plans import RSUSampler

import numpy as np


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


class FlakyBackend:
    """Fails its first ``failures`` calls, then delegates."""

    name = "flaky"

    def __init__(self, failures, inner=None):
        self.inner = inner if inner is not None else BatchedBackend()
        self.lock = threading.Lock()
        self.remaining = failures
        self.calls = 0

    def measure_units(self, machine, units):
        with self.lock:
            self.calls += 1
            if self.remaining > 0:
                self.remaining -= 1
                raise RuntimeError("injected worker failure")
        return self.inner.measure_units(machine, units)


class OverlapProbeBackend:
    """Fails its first call, then records how many calls run at once.

    The first call after the failure lingers until another call enters (or
    a second passes), so an execution on the same machine hash that is not
    serialised against it is caught overlapping.
    """

    name = "overlap-probe"

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else BatchedBackend()
        self.lock = threading.Lock()
        self.calls = 0
        self.active = 0
        self.max_active = 0
        self.entered = threading.Event()

    def measure_units(self, machine, units):
        with self.lock:
            self.calls += 1
            call = self.calls
            if call == 1:
                raise RuntimeError("injected worker failure")
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            if call == 2:
                self.entered.wait(1.0)
            else:
                self.entered.set()
            return self.inner.measure_units(machine, units)
        finally:
            with self.lock:
                self.active -= 1


class FailingReadStore(MemoryStore):
    """A memory store whose record reads raise after the first."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def get_cost_records(self, key):
        self.reads += 1
        if self.reads > 1:
            raise OSError("injected store read failure")
        return super().get_cost_records(key)


@pytest.fixture
def config():
    return tiny_machine_config()


@pytest.fixture
def plans():
    return [iterative_plan(n) for n in range(3, 7)]


class TestSubmit:
    def test_lookup_returns_records_in_order(self, config, plans):
        with CampaignService() as service:
            records = service.lookup(config, plans, metrics=("cycles", "instructions"))
            assert [record.plan_key for record in records] == [
                plan_key(plan) for plan in plans
            ]
            for record in records:
                assert record["cycles"] > 0
                assert record["instructions"] > 0

    def test_repeat_lookup_measures_nothing_new(self, config, plans):
        counting = CountingBackend()
        with CampaignService(backend=counting) as service:
            service.lookup(config, plans)
            first = len(counting.executed)
            service.lookup(config, plans)
            assert len(counting.executed) == first
            assert service.stats().store_hits >= len(plans)

    def test_one_measurement_populates_all_counter_metrics(self, config, plans):
        counting = CountingBackend()
        with CampaignService(backend=counting) as service:
            service.lookup(config, plans, metrics=("cycles",))
            first = len(counting.executed)
            records = service.lookup(
                config, plans, metrics=("instructions", "l1_misses")
            )
            assert len(counting.executed) == first  # same channel, already known
            assert all("l1_misses" in record for record in records)

    def test_model_metrics_never_touch_the_machine(self, config, plans):
        counting = CountingBackend()
        with CampaignService(backend=counting) as service:
            records = service.lookup(config, plans, metrics=("model_instructions",))
            assert counting.executed == []
            assert all(record["model_instructions"] > 0 for record in records)

    def test_distinct_seeds_measure_separately(self, config, plans):
        counting = CountingBackend()
        with CampaignService(backend=counting) as service:
            service.lookup(config, plans, seed=0)
            service.lookup(config, plans, seed=1)
            assert len(counting.executed) == 2 * len(plans)
            assert counting.duplicate_executions() == []

    def test_empty_job_rejected(self, config):
        with pytest.raises(ValueError):
            CampaignJob(config, ())
        with pytest.raises(ValueError):
            CampaignJob(config, (iterative_plan(3),), metrics=())

    def test_submit_after_shutdown_raises(self, config, plans):
        service = CampaignService()
        service.shutdown()
        with pytest.raises(ServiceError):
            service.lookup(config, plans)


class TestConcurrencyStress:
    """The acceptance criterion, counter-verified."""

    def test_eight_sessions_dp14_one_measurement_per_key(self, config):
        counting = CountingBackend()
        with serve(backend=counting, workers=4) as service:
            sessions = [
                Session.connect(service, machine=config) for _ in range(8)
            ]
            results = [None] * len(sessions)
            errors = []

            def run(index):
                try:
                    results[index] = sessions[index].search(14)
                except BaseException as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(index,))
                for index in range(len(sessions))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []

            # Counter-verified: the backend never executed any
            # (machine_hash, plan_key, noise_seed) twice.
            assert counting.duplicate_executions() == []

            # Bit-identical to one serial engine-backed session.
            serial = session(machine=config)
            reference = serial.search(14)
            for result in results:
                assert str(result.best_plan) == str(reference.best_plan)
                assert result.best_cost == reference.best_cost

            # Exactly as many real measurements as the serial session needed.
            assert len(counting.executed) == serial.cost_engine().measured
            stats = service.stats()
            assert stats.measured == len(counting.executed)
            assert stats.dedup_savings + stats.store_hits > 0
            assert stats.failures == 0

    def test_concurrent_identical_jobs_single_measurement(self, config, plans):
        counting = CountingBackend()
        with CampaignService(backend=counting, workers=4) as service:
            barrier = threading.Barrier(8)
            tickets = [None] * 8

            def submit(index):
                barrier.wait()
                tickets[index] = service.submit(
                    CampaignJob(config, tuple(plans), ("cycles",), seed=0)
                )

            threads = [
                threading.Thread(target=submit, args=(index,)) for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            all_records = [ticket.result(timeout=60) for ticket in tickets]
            assert counting.duplicate_executions() == []
            assert len(counting.executed) == len(plans)
            first = [(r.plan_key, r["cycles"]) for r in all_records[0]]
            for records in all_records[1:]:
                assert [(r.plan_key, r["cycles"]) for r in records] == first
            # 8 submitters, one owner per plan: everyone else attached.
            assert sum(ticket.owned_units for ticket in tickets) == len(plans)


class TestMeasureUnits:
    def test_concurrent_tenants_prepare_each_distinct_plan_once(
        self, config, monkeypatch
    ):
        prepared = []
        original = SimulatedMachine._prepare_fused

        def recording(machine, plans):
            prepared.extend(plan_key(plan) for plan in plans)
            return original(machine, plans)

        monkeypatch.setattr(SimulatedMachine, "_prepare_fused", recording)
        probe = OverlapProbeBackend()
        with CampaignService(backend=probe) as service:
            units = sample_units(5, 12, seed=9)
            # The probe's injected first failure raises to its caller.
            with pytest.raises(RuntimeError, match="injected"):
                service.measure_units(config, units[:1])
            backend = ServiceBackend(service)
            machine_a = session(machine=config).machine
            machine_b = session(machine=config).machine
            results = [None, None]

            def run(index, machine):
                results[index] = backend.measure_units(machine, units)

            threads = [
                threading.Thread(target=run, args=(0, machine_a)),
                threading.Thread(target=run, args=(1, machine_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert probe.max_active == 1  # one machine, one batch at a time
            assert sorted(prepared) == sorted({plan_key(u.plan) for u in units})
            assert len(results[0]) == len(units)
            assert results[0] == results[1]
            assert service.stats().measured == 2 * len(units)
            # Room for two batches of the largest size, however many plans.
            cache = service._machine_for(config).prepared_cache
            assert cache.capacity >= 2 * len(units) + PreparedPlanCache.DEFAULT_CAPACITY

    def test_failed_batch_raises_and_the_next_runs_on_a_fresh_machine(self, config):
        units = sample_units(5, 6, seed=3)
        with CampaignService(backend=FlakyBackend(failures=1)) as service:
            before = service._machine_for(config)
            with pytest.raises(RuntimeError, match="injected worker failure"):
                service.measure_units(config, units)
            measured = service.measure_units(config, units)
            assert service._machine_for(config) is not before
            assert service.stats().measured == len(units)
        direct = BatchedBackend().measure_units(session(machine=config).machine, units)
        assert measured == direct

    def test_hard_shutdown_closes_the_backend_after_running_batches(self, config):
        entered, release = threading.Event(), threading.Event()
        closed = []

        class GatedBackend(BatchedBackend):
            def measure_units(self, machine, units):
                entered.set()
                release.wait(30)
                return super().measure_units(machine, units)

            def close(self):
                closed.append(True)

        service = CampaignService(backend=GatedBackend())
        units = sample_units(5, 2, seed=1)
        results = []
        batch = threading.Thread(
            target=lambda: results.append(service.measure_units(config, units))
        )
        batch.start()
        assert entered.wait(30)
        drain = threading.Thread(target=service.drain)
        drain.start()
        drain.join(0.2)
        assert drain.is_alive()  # a running batch is outstanding work
        stopper = threading.Thread(target=service.shutdown, kwargs={"wait": False})
        stopper.start()
        stopper.join(0.2)
        assert stopper.is_alive() and not closed  # the batch still runs
        with pytest.raises(ServiceError, match="shut down"):
            service.measure_units(config, units)
        release.set()
        for thread in (batch, stopper, drain):
            thread.join(30)
            assert not thread.is_alive()
        assert closed == [True]
        assert len(results) == 1 and len(results[0]) == len(units)

    def test_unseeded_units_run_direct(self, config, plans):
        with CampaignService() as service:
            units = [WorkUnit(plan=plan, noise_seed=None) for plan in plans]
            measured = service.measure_units(config, units)
            assert [m.plan for m in measured] == plans
            assert all(m.cycles > 0 for m in measured)

    def test_preserves_unit_order(self, config):
        with CampaignService(workers=3) as service:
            rng = np.random.default_rng(4)
            sampler = RSUSampler()
            units = [
                WorkUnit(plan=sampler.sample(5, rng), noise_seed=seed)
                for seed in (5, 3, 9, 1, 7)
            ]
            measured = service.measure_units(config, units)
            direct = BatchedBackend().measure_units(
                session(machine=config).machine, units
            )
            assert [m.cycles for m in measured] == [m.cycles for m in direct]


class TestRetryAndFailure:
    def test_worker_failure_is_retried(self, config, plans):
        flaky = FlakyBackend(failures=2)
        with CampaignService(backend=flaky, workers=1, max_attempts=3) as service:
            records = service.lookup(config, plans, timeout=60)
            assert len(records) == len(plans)
            stats = service.stats()
            assert stats.retries == 2
            assert stats.failures == 0

    def test_exhausted_retries_surface_as_service_error(self, config, plans):
        flaky = FlakyBackend(failures=100)
        with CampaignService(backend=flaky, workers=1, max_attempts=2) as service:
            ticket = service.submit(CampaignJob(config, tuple(plans)))
            with pytest.raises(ServiceError):
                ticket.result(timeout=60)
            assert service.stats().failures == 1
            # The failed work is no longer in flight: a later submit retries
            # fresh rather than attaching to a dead entry.
            assert service.stats().in_flight == 0

    def test_failure_then_recovery(self, config, plans):
        flaky = FlakyBackend(failures=100)
        with CampaignService(backend=flaky, workers=1, max_attempts=2) as service:
            ticket = service.submit(CampaignJob(config, tuple(plans)))
            with pytest.raises(ServiceError):
                ticket.result(timeout=60)
            with flaky.lock:
                flaky.remaining = 0  # backend heals
            records = service.lookup(config, plans, timeout=60)
            assert len(records) == len(plans)


    def test_rebuilt_machine_keeps_executions_serialised(self, config):
        # The failure evicts the machine; the retry and a fresh job on the
        # same machine hash must still never measure at the same time.
        probe = OverlapProbeBackend()
        first = [iterative_plan(n) for n in range(4, 7)]
        second = [right_recursive_plan(n) for n in range(4, 7)]
        with CampaignService(backend=probe, workers=2, max_attempts=3) as service:
            ticket_a = service.submit(CampaignJob(config, tuple(first)))
            while service.stats().retries == 0:
                time.sleep(0.001)
            ticket_b = service.submit(CampaignJob(config, tuple(second)))
            assert len(ticket_a.result(timeout=60)) == len(first)
            assert len(ticket_b.result(timeout=60)) == len(second)
        assert probe.calls == 3
        assert probe.max_active == 1

    def test_failing_store_read_does_not_fail_the_execution(self, config, plans):
        # A shared-store service re-reads the log before every execution;
        # a read that raises is skipped, not charged as a task failure.
        store = FailingReadStore()
        expected = CostEngine(SimulatedMachine(config)).records(plans, ("cycles",))
        with CampaignService(store=store, shared_store=True, workers=1) as service:
            records = service.lookup(config, plans, timeout=60)
            stats = service.stats()
        assert [r["cycles"] for r in records] == [r["cycles"] for r in expected]
        assert store.reads > 1
        assert (stats.retries, stats.failures) == (0, 0)


class TestLifecycleAndStats:
    def test_graceful_shutdown_completes_accepted_work(self, config, plans):
        service = CampaignService(workers=2)
        ticket = service.submit(CampaignJob(config, tuple(plans)))
        service.shutdown(wait=True)
        assert ticket.done()
        assert len(ticket.result(timeout=1)) == len(plans)
        service.shutdown()  # idempotent

    def test_drain_blocks_until_queue_empty(self, config, plans):
        with CampaignService(workers=2) as service:
            service.submit(CampaignJob(config, tuple(plans)))
            service.drain()
            stats = service.stats()
            assert stats.queue_depth == 0
            assert stats.in_flight == 0

    def test_stats_report_dedup_and_sharding(self, config, plans, tmp_path):
        with serve(store=str(tmp_path / "svc"), workers=2) as service:
            service.lookup(config, plans, seed=0)
            service.lookup(config, plans, seed=1)
            stats = service.stats()
            assert stats.jobs == 2
            assert stats.measured == 2 * len(plans)
            assert len(stats.shards) == 2
            assert {shard.seed for shard in stats.shards} == {0, 1}
            assert all(
                shard.distinct_plans == len(plans) for shard in stats.shards
            )
            assert "measured" in stats.describe()

    def test_service_repr_mentions_fleet(self):
        with CampaignService(workers=3, name="svc") as service:
            assert "svc" in repr(service)
            assert service.stats().workers == 3

    def test_bad_worker_counts_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            CampaignService(workers=0)
        with pytest.raises((TypeError, ValueError)):
            CampaignService(max_attempts=0)


class TestServicePersistence:
    def test_records_survive_service_restart(self, config, plans, tmp_path):
        store_path = str(tmp_path / "svc")
        counting_a = CountingBackend()
        with serve(store=store_path, backend=counting_a) as service:
            service.lookup(config, plans)
            assert len(counting_a.executed) == len(plans)
        counting_b = CountingBackend()
        with serve(store=store_path, backend=counting_b) as service:
            records = service.lookup(config, plans)
            assert counting_b.executed == []  # all served from the shard log
            assert len(records) == len(plans)

    @pytest.mark.parametrize(
        "metrics",
        [("wall_time",), ("cycles", "model_instructions", "wall_time")],
        ids=["wall", "counter-model-wall"],
    )
    def test_wall_metrics_never_persist(self, config, tmp_path, metrics):
        store_path = str(tmp_path / "svc")
        plans = [right_recursive_plan(4), iterative_plan(4)]
        stable = tuple(name for name in metrics if name != "wall_time")
        expected = CostEngine(SimulatedMachine(config)).records(plans, stable)
        with serve(store=store_path) as service:
            records = service.lookup(config, plans, metrics=metrics)
            assert all(record["wall_time"] > 0 for record in records)
            assert [{name: r[name] for name in stable} for r in records] == [
                r.values for r in expected
            ]
        with serve(store=store_path) as service:
            stored = service.store.get_cost_records(
                service.client(config).key
            )
            for values in stored.values():
                assert "wall_time" not in values


class TestSessionIntegration:
    def test_connected_session_uses_service_backend_and_store(self, config):
        with CampaignService() as service:
            sess = Session.connect(service, machine=config)
            assert isinstance(sess.backend, ServiceBackend)
            assert sess.store is service.store
            assert sess.service is service

    def test_connected_campaign_matches_plain_session(self, config):
        with CampaignService() as service:
            connected = Session.connect(service, machine=config, scale="ci")
            plain = session(machine=config, scale="ci")
            assert connected.campaign(5, 10).equals(plain.campaign(5, 10))

    def test_two_connected_sessions_share_campaign_work(self, config):
        counting = CountingBackend()
        with CampaignService(backend=counting) as service:
            a = Session.connect(service, machine=config, scale="ci")
            b = Session.connect(service, machine=config, scale="ci")
            table_a = a.campaign(5, 10)
            executed = len(counting.executed)
            table_b = b.campaign(5, 10)
            assert len(counting.executed) == executed  # b measured nothing
            assert table_a.equals(table_b)

    def test_fallback_serves_persisted_plans_without_writing(
        self, config, plans, tmp_path
    ):
        service = CampaignService(store=str(tmp_path / "campaigns"))
        expected = service.client(config).records(plans)
        service.shutdown()
        (log,) = service.store.shard_paths()
        before = log.read_bytes()
        degraded = service.client(config, fallback=True)
        assert degraded.records(plans) == expected
        assert degraded.fallbacks == 1
        assert degraded.measured == 0  # every plan was a snapshot hit
        degraded.records([right_recursive_plan(6)])  # a new plan, measured privately
        assert degraded.measured == 1
        assert log.read_bytes() == before

    def test_client_counters_attribute_owned_work(self, config, plans):
        with CampaignService() as service:
            first = service.client(config, seed=0)
            second = service.client(config, seed=0)
            first.records(plans)
            second.records(plans)
            assert first.measured == len(plans)
            assert second.measured == 0
            assert second.evaluations == len(plans)

    def test_session_factory_accepts_service(self, config):
        with CampaignService() as service:
            sess = session(machine=config, service=service)
            assert sess.service is service
            assert isinstance(sess.backend, ServiceBackend)
