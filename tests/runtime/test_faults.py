"""Fault injection and the service's failure discipline, end to end.

The load-bearing guarantee (ISSUE acceptance, DESIGN.md §12): under a
:class:`FaultPlan` injecting >= 20% backend failures and torn store tails,
a DP search through the service **completes**, is **bit-identical** to a
fault-free serial run, persists **zero conflicting records** per
``(machine_hash, plan_key, seed)``, and deterministic-poison jobs end in
**quarantine** instead of an infinite retry loop.

``REPRO_CHAOS_SEED`` selects the fault schedule so CI can run a seed
matrix; every test must hold for any seed.
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

import repro
from repro.machine.configs import tiny_machine_config
from repro.runtime.backends import BatchedBackend
from repro.runtime.faults import (
    FaultDecision,
    FaultPlan,
    FaultSpec,
    FaultyBackend,
    FaultyStore,
    InjectedCrash,
    InjectedFault,
)
from repro.runtime.metrics import counter_metric_names
from repro.runtime.service import (
    CampaignJob,
    CampaignService,
    ServiceError,
    _Task,
)
from repro.runtime.session import Session, session
from repro.runtime.sharded_store import ShardedRecordStore
from repro.runtime.store import CostLogKey, MemoryStore, machine_config_hash
from repro.wht.canonical import iterative_plan, right_recursive_plan
from repro.wht.encoding import plan_key
from repro.wht.grammar import parse_plan

#: The CI chaos matrix sets this; locally it defaults to schedule 0.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


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


@pytest.fixture
def config():
    return tiny_machine_config()


@pytest.fixture
def plans():
    return [iterative_plan(4), right_recursive_plan(4)]


class GatedBackend:
    """Blocks every batch on an event — for deadline/timeout tests."""

    name = "gated"

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else CountingBackend()
        self.gate = threading.Event()

    def measure_units(self, machine, units):
        if not self.gate.wait(timeout=30.0):
            raise RuntimeError("gate never opened")
        return self.inner.measure_units(machine, units)

    def close(self):
        self.gate.set()
        self.inner.close()


class DieOnceBackend:
    """Kills its calling thread on the first batch, then behaves."""

    name = "die-once"

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else BatchedBackend()
        self.lock = threading.Lock()
        self.died = False

    def measure_units(self, machine, units):
        with self.lock:
            if not self.died:
                self.died = True
                raise InjectedCrash("simulated segfault")
        return self.inner.measure_units(machine, units)

    def close(self):
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()


class TestFaultPlanDeterminism:
    def test_decide_sequence_is_a_pure_function_of_seed(self):
        spec = FaultSpec(error_rate=0.3, crash_rate=0.1, torn_tail_rate=0.2, delay_rate=0.1)
        first = FaultPlan(seed=CHAOS_SEED, backend=spec, store=spec)
        second = FaultPlan(seed=CHAOS_SEED, backend=spec, store=spec)
        for site in ("backend", "store"):
            assert [first.decide(site) for _ in range(64)] == [
                second.decide(site) for _ in range(64)
            ]

    def test_peek_never_consumes(self):
        plan = FaultPlan(seed=CHAOS_SEED, backend=FaultSpec(error_rate=0.5))
        previews = [plan.peek("backend", index) for index in range(32)]
        assert plan.calls("backend") == 0
        assert [plan.decide("backend") for _ in range(32)] == previews

    def test_sites_count_independently(self):
        plan = FaultPlan(seed=CHAOS_SEED)
        plan.decide("backend")
        plan.decide("backend")
        plan.decide("store")
        assert plan.calls("backend") == 2
        assert plan.calls("store") == 1

    def test_different_seeds_differ(self):
        spec = FaultSpec(error_rate=0.5)
        a = FaultPlan(seed=0, backend=spec)
        b = FaultPlan(seed=1, backend=spec)
        assert [a.decide("backend") for _ in range(64)] != [
            b.decide("backend") for _ in range(64)
        ]

    def test_extreme_rates(self):
        always = FaultPlan(seed=CHAOS_SEED, backend=FaultSpec(error_rate=1.0))
        never = FaultPlan(seed=CHAOS_SEED, backend=FaultSpec())
        assert all(always.decide("backend").error for _ in range(16))
        assert not any(never.decide("backend").fails for _ in range(16))
        assert always.injected("backend") == 16
        assert never.injected() == 0

    def test_empirical_rate_tracks_spec(self):
        # Fixed seed on purpose: the draw quality claim, not the matrix.
        plan = FaultPlan(seed=12345, backend=FaultSpec(error_rate=0.25))
        hits = sum(plan.decide("backend").error for _ in range(2000))
        assert 0.20 < hits / 2000 < 0.30

    def test_at_most_one_failure_mode_per_call(self):
        spec = FaultSpec(error_rate=0.9, crash_rate=0.9, torn_tail_rate=0.9, kill_rate=0.9)
        plan = FaultPlan(seed=CHAOS_SEED, backend=spec, store=spec)
        for _ in range(64):
            decision = plan.decide("backend")
            modes = [
                decision.error,
                decision.crash_fraction is not None,
                decision.torn,
                decision.kill,
            ]
            assert sum(modes) <= 1

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(error_rate=1.5)
        with pytest.raises(ValueError, match="delay"):
            FaultSpec(delay=-1.0)
        assert FaultSpec(error_rate=0.5, crash_rate=0.5).total_failure_rate == 0.75

    def test_decision_fails_property(self):
        assert not FaultDecision(index=0).fails
        assert FaultDecision(index=0, error=True).fails
        assert FaultDecision(index=0, crash_fraction=0.5).fails


class TestFaultyBackend:
    def test_error_injection_raises_before_work(self, config, plans):
        counting = CountingBackend()
        plan = FaultPlan(seed=CHAOS_SEED, backend=FaultSpec(error_rate=1.0))
        faulty = FaultyBackend(counting, plan)
        machine = repro.SimulatedMachine(config)
        units = [repro.runtime.WorkUnit(plan=p, noise_seed=1) for p in plans]
        with pytest.raises(InjectedFault):
            faulty.measure_units(machine, units)
        assert counting.executed == []

    def test_crash_executes_a_strict_prefix(self, config):
        counting = CountingBackend()
        plan = FaultPlan(seed=CHAOS_SEED, backend=FaultSpec(crash_rate=1.0))
        faulty = FaultyBackend(counting, plan)
        machine = repro.SimulatedMachine(config)
        units = [
            repro.runtime.WorkUnit(plan=iterative_plan(n), noise_seed=1)
            for n in (3, 4, 5, 6)
        ]
        with pytest.raises(InjectedFault, match="mid-batch"):
            faulty.measure_units(machine, units)
        # Partial progress happened, but the caller was told nothing.
        assert len(counting.executed) < len(units)

    def test_kill_is_not_an_exception(self, config, plans):
        plan = FaultPlan(seed=CHAOS_SEED, backend=FaultSpec(kill_rate=1.0))
        faulty = FaultyBackend(BatchedBackend(), plan)
        machine = repro.SimulatedMachine(config)
        units = [repro.runtime.WorkUnit(plan=plans[0], noise_seed=1)]
        with pytest.raises(InjectedCrash):
            faulty.measure_units(machine, units)
        assert not issubclass(InjectedCrash, Exception)

    def test_poison_overrides_clean_rates(self, config, plans):
        plan = FaultPlan(seed=CHAOS_SEED, poison_plans=[plans[0]])
        faulty = FaultyBackend(BatchedBackend(), plan)
        machine = repro.SimulatedMachine(config)
        units = [repro.runtime.WorkUnit(plan=p, noise_seed=1) for p in plans]
        with pytest.raises(InjectedFault, match="poison"):
            faulty.measure_units(machine, units)
        clean = [repro.runtime.WorkUnit(plan=plans[1], noise_seed=1)]
        assert len(faulty.measure_units(machine, clean)) == 1

    def test_zero_rates_are_bit_identical_to_inner(self, config, plans):
        plan = FaultPlan(seed=CHAOS_SEED)
        machine = repro.SimulatedMachine(config)
        units = [repro.runtime.WorkUnit(plan=p, noise_seed=7) for p in plans]
        faulty = FaultyBackend(BatchedBackend(), plan).measure_units(machine, units)
        direct = BatchedBackend().measure_units(repro.SimulatedMachine(config), units)
        assert [m.cycles for m in faulty] == [m.cycles for m in direct]


class TestFaultyStore:
    KEY = CostLogKey(machine_hash="f" * 64, seed=0)

    def test_error_raises_before_writing(self, tmp_path):
        plan = FaultPlan(seed=CHAOS_SEED, store=FaultSpec(error_rate=1.0))
        with ShardedRecordStore(tmp_path) as inner:
            store = FaultyStore(inner, plan)
            with pytest.raises(InjectedFault):
                store.append_cost_records(self.KEY, {"p": {"cycles": 1.0}})
            assert inner.get_cost_records(self.KEY) == {}

    def test_torn_tail_loses_at_most_the_last_record(self, tmp_path):
        plan = FaultPlan(seed=CHAOS_SEED, store=FaultSpec(torn_tail_rate=1.0))
        batch = {f"p{i}": {"cycles": float(i)} for i in range(4)}
        with ShardedRecordStore(tmp_path) as inner:
            store = FaultyStore(inner, plan)
            with pytest.raises(InjectedFault, match="torn"):
                store.append_cost_records(self.KEY, batch)
        # A fresh reader over the torn log: only complete lines survive.
        with ShardedRecordStore(tmp_path) as reopened:
            recovered = reopened.get_cost_records(self.KEY)
            assert len(recovered) >= len(batch) - 1
            for key, values in recovered.items():
                assert values == batch[key]
            [log] = reopened.shard_paths()
            lines = Path(log).read_text(encoding="utf-8").split("\n")
            torn = [line for line in lines if line.strip() and not _parses(line)]
            assert len(torn) <= 1

    def test_retry_after_torn_tail_merges_idempotently(self, tmp_path):
        plan = FaultPlan(seed=CHAOS_SEED, store=FaultSpec(torn_tail_rate=1.0))
        batch = {f"p{i}": {"cycles": float(i), "instructions": float(2 * i)} for i in range(3)}
        with ShardedRecordStore(tmp_path) as inner:
            store = FaultyStore(inner, plan)
            with pytest.raises(InjectedFault):
                store.append_cost_records(self.KEY, batch)
            plan.store = FaultSpec()  # heal, then retry the same append
            store.append_cost_records(self.KEY, batch)
            assert inner.get_cost_records(self.KEY) == batch

    def test_reads_and_clear_delegate(self, tmp_path):
        plan = FaultPlan(seed=CHAOS_SEED)
        with ShardedRecordStore(tmp_path) as inner:
            store = FaultyStore(inner, plan)
            store.append_cost_records(self.KEY, {"p": {"cycles": 1.0}})
            assert store.get_cost_records(self.KEY) == {"p": {"cycles": 1.0}}
            assert store.shard_stats()  # optional protocol passes through
            store.clear()
            assert store.get_cost_records(self.KEY) == {}


def _parses(line):
    try:
        json.loads(line)
        return True
    except ValueError:
        return False


class TestRetryDiscipline:
    def test_transient_failures_retried_with_counted_attempts(self, config, plans):
        flaky = FlakyBackend(failures=2)
        with CampaignService(backend=flaky, max_attempts=4, backoff_base=0.001) as service:
            ticket = service.submit(CampaignJob(config, tuple(plans)))
            records = ticket.result(timeout=60)
            assert len(records) == len(plans)
            stats = service.stats()
            assert stats.retries == 2
            assert stats.failures == 0
            assert flaky.calls == 3  # 2 failures + 1 success, nothing more

    def test_attempts_bounded_exactly_by_max_attempts(self, config, plans):
        flaky = FlakyBackend(failures=10**6)
        with CampaignService(backend=flaky, max_attempts=3, backoff_base=0.001) as service:
            ticket = service.submit(CampaignJob(config, tuple(plans)))
            with pytest.raises(ServiceError):
                ticket.result(timeout=60)
            service.drain()
            # No hot loop: the backend saw exactly max_attempts calls.
            assert flaky.calls == 3
            stats = service.stats()
            assert stats.retries == 2
            assert stats.failures == 1
            assert stats.quarantined == 1

    def test_backoff_is_exponential_bounded_and_deterministic(self, config, plans):
        def delays(retry_seed):
            service = CampaignService(
                backend=BatchedBackend(), backoff_base=0.1, backoff_cap=0.4,
                retry_seed=retry_seed,
            )
            try:
                task = _Task(
                    channel="counter",
                    config=config,
                    log_key=CostLogKey(machine_hash="a" * 64, seed=0),
                    plan_by_key={plan_key(plans[0]): plans[0]},
                )
                out = []
                for attempt in (1, 2, 3, 4, 5):
                    task.attempts = attempt
                    out.append(service._backoff_delay(task))
                return out
            finally:
                service.shutdown()

        first, second, other = delays(0), delays(0), delays(1)
        assert first == second
        assert first != other
        for attempt, delay in enumerate(first, start=1):
            ceiling = min(0.1 * 2.0 ** (attempt - 1), 0.4)
            assert 0.5 * ceiling <= delay < 1.5 * ceiling

    def test_zero_backoff_base_disables_delay(self, config, plans):
        with CampaignService(backend=BatchedBackend(), backoff_base=0.0) as service:
            task = _Task(
                channel="counter",
                config=config,
                log_key=CostLogKey(machine_hash="a" * 64, seed=0),
                plan_by_key={plan_key(plans[0]): plans[0]},
                attempts=3,
            )
            assert service._backoff_delay(task) == 0.0

    def test_backing_off_poison_does_not_starve_healthy_work(self, config):
        poison = iterative_plan(5)
        fplan = FaultPlan(seed=CHAOS_SEED, poison_plans=[poison])
        backend = FaultyBackend(BatchedBackend(), fplan)
        with CampaignService(
            backend=backend, workers=1, max_attempts=4, backoff_base=0.1, backoff_cap=0.2
        ) as service:
            poisoned = service.submit(CampaignJob(config, (poison,)))
            healthy = service.submit(CampaignJob(config, (right_recursive_plan(5),)))
            started = time.monotonic()
            assert len(healthy.result(timeout=60)) == 1
            # The healthy job did not wait out the poison job's retries.
            assert time.monotonic() - started < 5.0
            with pytest.raises(ServiceError):
                poisoned.result(timeout=60)


class TestDeadlinesAndWaiterLeak:
    def test_job_deadline_expires_and_detaches(self, config, plans):
        gated = GatedBackend()
        with CampaignService(backend=gated, workers=1) as service:
            ticket = service.submit(CampaignJob(config, tuple(plans), deadline=0.15))
            with pytest.raises(ServiceError, match="deadline"):
                ticket.result()
            gated.gate.set()
            service.drain()
            assert service.stats().in_flight == 0

    def test_invalid_deadline_rejected(self, config, plans):
        with pytest.raises(ValueError, match="deadline"):
            CampaignJob(config, tuple(plans), deadline=0.0)

    def test_timed_out_ticket_does_not_wedge_later_submits(self, config, plans):
        gated = GatedBackend()
        with CampaignService(backend=gated, workers=1) as service:
            first = service.submit(CampaignJob(config, tuple(plans)))
            with pytest.raises(ServiceError, match="timed out"):
                first.result(timeout=0.05)
            # The abandoned waiter must not absorb this fresh submission.
            second = service.submit(CampaignJob(config, tuple(plans)))
            gated.gate.set()
            records = second.result(timeout=60)
            assert len(records) == len(plans)
            service.drain()
            assert service.stats().in_flight == 0
            # Idempotent execution: the retry-era double-submit measured
            # each unit exactly once for all that.
            assert gated.inner.duplicate_executions() == []

    def test_detach_is_idempotent(self, config, plans):
        gated = GatedBackend()
        with CampaignService(backend=gated, workers=1) as service:
            ticket = service.submit(CampaignJob(config, tuple(plans)))
            ticket.detach()
            ticket.detach()
            gated.gate.set()
            service.drain()
            assert service.stats().in_flight == 0


class TestQuarantine:
    def test_poison_job_quarantined_not_looped(self, config):
        poison = iterative_plan(5)
        counting = CountingBackend()
        fplan = FaultPlan(seed=CHAOS_SEED, poison_plans=[poison])
        backend = FaultyBackend(counting, fplan)
        with CampaignService(backend=backend, max_attempts=3, backoff_base=0.001) as service:
            ticket = service.submit(CampaignJob(config, (poison,)))
            with pytest.raises(ServiceError):
                ticket.result(timeout=60)
            service.drain()
            entries = service.quarantined()
            assert len(entries) == 1
            entry = entries[0]
            assert entry.attempts == 3
            assert plan_key(poison) in entry.plan_keys
            assert entry.machine_hash == machine_config_hash(config)
            assert "poison" in entry.error
            assert counting.executed == []  # poison never reached the machine
            assert service.health().state == "degraded"

    def test_requeue_after_heal_serves_bit_identical_records(self, config):
        poison = iterative_plan(5)
        fplan = FaultPlan(seed=CHAOS_SEED, poison_plans=[poison])
        with CampaignService(
            backend=FaultyBackend(BatchedBackend(), fplan),
            max_attempts=2, backoff_base=0.001,
        ) as service:
            with pytest.raises(ServiceError):
                service.submit(CampaignJob(config, (poison,))).result(timeout=60)
            service.drain()
            fplan.poison_keys = frozenset()  # operator fixed the poison
            assert service.requeue_quarantined() == 1
            service.drain()
            assert service.quarantined() == ()
            revived = service.submit(CampaignJob(config, (poison,))).result(timeout=60)
            reference = session(machine=config, store=MemoryStore()).cost_engine().records([poison])
            assert revived[0].values["cycles"] == reference[0].values["cycles"]
            assert service.health().state == "ok"

    def test_requeue_filters_by_token(self, config):
        poison = iterative_plan(5)
        fplan = FaultPlan(seed=CHAOS_SEED, poison_plans=[poison])
        with CampaignService(
            backend=FaultyBackend(BatchedBackend(), fplan),
            max_attempts=2, backoff_base=0.001,
        ) as service:
            with pytest.raises(ServiceError):
                service.submit(CampaignJob(config, (poison,))).result(timeout=60)
            service.drain()
            assert service.requeue_quarantined(tokens=["no-such-token"]) == 0
            assert len(service.quarantined()) == 1

    def test_requeue_after_shutdown_raises(self, config):
        service = CampaignService()
        service.shutdown()
        with pytest.raises(ServiceError):
            service.requeue_quarantined()

    def test_fresh_submit_of_quarantined_key_gets_a_clean_budget(self, config):
        # Quarantine isolates tasks, it does not blacklist keys: a healed
        # backend plus a *new* submit succeeds without any requeue.
        poison = iterative_plan(5)
        fplan = FaultPlan(seed=CHAOS_SEED, poison_plans=[poison])
        with CampaignService(
            backend=FaultyBackend(BatchedBackend(), fplan),
            max_attempts=2, backoff_base=0.001,
        ) as service:
            with pytest.raises(ServiceError):
                service.submit(CampaignJob(config, (poison,))).result(timeout=60)
            service.drain()
            fplan.poison_keys = frozenset()
            fresh = service.submit(CampaignJob(config, (poison,))).result(timeout=60)
            assert fresh[0].values["cycles"] > 0


class TestSupervision:
    def test_dead_worker_is_respawned_and_task_retried(self, config, plans):
        backend = DieOnceBackend()
        with CampaignService(
            backend=backend, workers=1, supervision_interval=0.05, backoff_base=0.001
        ) as service:
            ticket = service.submit(CampaignJob(config, tuple(plans)))
            records = ticket.result(timeout=60)
            assert len(records) == len(plans)
            stats = service.stats()
            assert stats.respawns >= 1
            assert stats.retries >= 1
            health = service.health()
            assert health.ok
            assert health.alive_workers == health.expected_workers == 1

    def test_health_snapshot_states(self, config):
        service = CampaignService(workers=2)
        try:
            health = service.health()
            assert health.state == "ok"
            assert health.alive_workers == 2
            assert "workers=2/2" in health.describe()
        finally:
            service.shutdown()
        assert service.health().state == "closed"
        assert not service.health().ok


class TestGracefulDegradation:
    def test_fallback_covers_a_poisoned_batch_bit_identically(self, config, plans):
        fplan = FaultPlan(seed=CHAOS_SEED, poison_plans=[plans[0]])
        with CampaignService(
            backend=FaultyBackend(BatchedBackend(), fplan),
            max_attempts=2, backoff_base=0.001,
        ) as service:
            client = service.client(config, fallback=True)
            records = client.records(plans)
            assert client.fallbacks == 1
            reference = session(machine=config, store=MemoryStore()).cost_engine().records(plans)
            assert [r.values["cycles"] for r in records] == [
                r.values["cycles"] for r in reference
            ]

    def test_no_fallback_means_the_error_surfaces(self, config, plans):
        fplan = FaultPlan(seed=CHAOS_SEED, poison_plans=[plans[0]])
        with CampaignService(
            backend=FaultyBackend(BatchedBackend(), fplan),
            max_attempts=2, backoff_base=0.001,
        ) as service:
            client = service.client(config, fallback=False)
            with pytest.raises(ServiceError):
                client.records(plans)
            assert client.fallbacks == 0

    def test_fallback_routes_around_a_closed_service(self, config, plans):
        service = CampaignService()
        healthy = service.client(config, fallback=False)
        expected = [r.values["cycles"] for r in healthy.records(plans)]
        service.shutdown()
        degraded = service.client(config, fallback=True)
        records = degraded.records(plans)
        assert degraded.fallbacks == 1
        assert [r.values["cycles"] for r in records] == expected
        strict = service.client(config, fallback=False)
        with pytest.raises(ServiceError):
            strict.records(plans)

    def test_connected_session_fallback_flag_reaches_the_client(self, config):
        with CampaignService() as service:
            armed = Session.connect(service, machine=config, fallback=True)
            plain = Session.connect(service, machine=config)
            assert armed.cost_engine().fallback is True
            assert plain.cost_engine().fallback is False


class TestChaosInvariant:
    """The acceptance criterion, at the acceptance scale (DP n=14)."""

    N = 14

    def test_chaotic_search_is_bit_identical_with_poison_quarantined(
        self, config, tmp_path
    ):
        reference = session(machine=config, scale="ci", store=MemoryStore())
        expected = reference.search(self.N)
        poison_key = plan_key(expected.best_plan)

        fplan = FaultPlan(
            seed=CHAOS_SEED,
            # ~22% of backend batches fail (error or mid-batch crash).
            backend=FaultSpec(error_rate=0.15, crash_rate=0.08),
            # ~19% of appends fail, most tearing the log's tail.
            store=FaultSpec(error_rate=0.04, torn_tail_rate=0.15),
            poison_plans=[poison_key],
        )
        inner_store = ShardedRecordStore(tmp_path / "campaigns")
        service = CampaignService(
            store=FaultyStore(inner_store, fplan),
            backend=FaultyBackend(BatchedBackend(), fplan),
            workers=3,
            max_attempts=6,
            backoff_base=0.002,
            backoff_cap=0.05,
        )
        try:
            sess = Session.connect(service, machine=config, scale="ci", fallback=True)
            result = sess.search(self.N)

            # 1. The search completed and is bit-identical to fault-free.
            assert plan_key(result.best_plan) == poison_key
            assert result.best_cost == expected.best_cost

            # 2. Chaos actually happened (this is not a vacuous pass).  A
            #    per-site floor would be flaky — a seed can legitimately
            #    draw no failures for one site's ~16 calls — so the floor
            #    is across sites, plus the always-on poison failures.
            assert fplan.injected() > 0
            assert fplan.calls("backend") > 0 and fplan.calls("store") > 0
            assert service.stats().failures > 0  # the poison batch, at least

            # 3. The poison job is in quarantine, not looping: its batch
            #    failed exactly max_attempts times and was dead-lettered.
            tokens = [
                entry
                for entry in service.quarantined()
                if poison_key in entry.plan_keys
            ]
            assert tokens, "poison batch should be dead-lettered"
            assert all(entry.attempts == service.max_attempts for entry in tokens)

            # 4. The client degraded gracefully for the poisoned batches.
            client = sess.cost_engine()
            assert client.fallbacks >= 1

            service.drain()
            log_key = client.key
        finally:
            service.shutdown()
            inner_store.close()

        # 5. Zero duplicate records: a fresh reader sees one value set per
        #    plan, every line in the log agrees with every other line for
        #    its key (torn-tail retries may re-append, but only values
        #    bit-identical to what a fault-free run persists).
        with ShardedRecordStore(tmp_path / "campaigns") as reopened:
            persisted = reopened.get_cost_records(log_key)
            assert persisted  # the search did persist records
            by_key = {}
            for log in reopened.shard_paths():
                for line in Path(log).read_text(encoding="utf-8").splitlines():
                    if not line.strip() or not _parses(line):
                        continue
                    payload = json.loads(line)
                    if "p" not in payload:
                        continue  # header
                    for metric, value in payload["v"].items():
                        seen = by_key.setdefault((payload["p"], metric), value)
                        assert seen == value, (
                            f"conflicting persisted values for {payload['p']}:{metric}"
                        )

        # 6. Every persisted record is bit-identical to a fault-free
        #    serial engine's evaluation of the same plan.
        engine = session(machine=config, scale="ci", store=MemoryStore()).cost_engine()
        keys = sorted(persisted)
        clean = engine.records([parse_plan(key) for key in keys], counter_metric_names())
        for key, record in zip(keys, clean):
            for metric, value in persisted[key].items():
                if metric in record.values:
                    assert record.values[metric] == value, (
                        f"{key}:{metric} diverged from the fault-free run"
                    )


CHILD_APPEND = """
import sys
from repro.runtime.sharded_store import ShardedRecordStore
from repro.runtime.store import CostLogKey

store = ShardedRecordStore(sys.argv[1], auto_compact=None)
key = CostLogKey(machine_hash="f" * 64, seed=0)
index = 0
while True:
    store.append_cost_records(
        key, {f"p{index}": {"cycles": float(index), "instructions": float(2 * index)}}
    )
    print(index, flush=True)
    index += 1
"""

CHILD_COMPACT = """
import sys
from repro.runtime.sharded_store import ShardedRecordStore
from repro.runtime.store import CostLogKey

store = ShardedRecordStore(sys.argv[1], auto_compact=None)
key = CostLogKey(machine_hash="c" * 64, seed=0)
for index in range(60):
    store.append_cost_records(key, {f"p{index % 6}": {"cycles": float(index)}})
print("APPENDED", flush=True)
cycle = 0
while True:
    store.compact_cost_records(key)
    store.append_cost_records(key, {f"q{cycle}": {"cycles": float(cycle)}})
    print(f"C{cycle}", flush=True)
    cycle += 1
"""


def _spawn_writer(tmp_path, source, name):
    script = tmp_path / name
    script.write_text(source, encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, str(script), str(tmp_path / "store")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def _readline_or_fail(proc):
    line = proc.stdout.readline()
    if not line:
        proc.kill()
        raise AssertionError(f"writer died early: {proc.stderr.read()}")
    return line.strip()


def _kill_and_last_line(proc, last):
    """SIGKILL the writer, reap it, and return its last fully printed line.

    The writer keeps appending and confirming between the parent's last
    read and the kill, so later confirmations may still sit unread in the
    pipe; draining it after the writer is dead yields the true last one
    (``last`` when nothing more arrived).  A trailing partial line is not
    a confirmation.
    """
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    complete = proc.stdout.read().split("\n")[:-1]
    return complete[-1].strip() if complete else last


class TestSigkillRecovery:
    """A real process killed mid-write: the durability half of §12."""

    def test_sigkill_mid_append_loses_at_most_the_last_record(self, tmp_path):
        proc = _spawn_writer(tmp_path, CHILD_APPEND, "writer_append.py")
        try:
            confirmed = -1
            while confirmed < 39:
                confirmed = int(_readline_or_fail(proc))
            confirmed = int(_kill_and_last_line(proc, str(confirmed)))
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()

        key = CostLogKey(machine_hash="f" * 64, seed=0)
        with ShardedRecordStore(tmp_path / "store") as store:
            records = store.get_cost_records(key)
            # Every confirmed append is durable...
            for index in range(confirmed + 1):
                assert records[f"p{index}"] == {
                    "cycles": float(index),
                    "instructions": float(2 * index),
                }
            # ...and at most the one in-flight append extends past it.
            assert len(records) <= confirmed + 2
            # Readers never see a partial line: at most one unparseable
            # line exists, and only as the log's final line.
            [log] = store.shard_paths()
            lines = [
                line
                for line in Path(log).read_text(encoding="utf-8").split("\n")
                if line.strip()
            ]
            torn = [i for i, line in enumerate(lines) if not _parses(line)]
            assert torn in ([], [len(lines) - 1])
            # The shard stays writable after recovery.
            store.append_cost_records(key, {"fresh": {"cycles": 1.0}})
            assert store.get_cost_records(key)["fresh"] == {"cycles": 1.0}

    def test_sigkill_mid_compaction_loses_no_confirmed_record(self, tmp_path):
        proc = _spawn_writer(tmp_path, CHILD_COMPACT, "writer_compact.py")
        try:
            assert _readline_or_fail(proc) == "APPENDED"
            cycles = -1
            while cycles < 5:
                cycles = int(_readline_or_fail(proc)[1:])
            # The child is now somewhere in compact-then-append; kill it
            # cold.  Compaction replaces the log atomically, so whatever
            # instant this lands at, confirmed records survive.
            cycles = int(_kill_and_last_line(proc, f"C{cycles}")[1:])
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()

        key = CostLogKey(machine_hash="c" * 64, seed=0)
        with ShardedRecordStore(tmp_path / "store") as store:
            records = store.get_cost_records(key)
            # Last-write-wins values from the confirmed append phase.
            for k in range(6):
                assert records[f"p{k}"] == {"cycles": float(54 + k)}
            for c in range(cycles + 1):
                assert records[f"q{c}"] == {"cycles": float(c)}
            # At most the one unconfirmed in-flight append on top.
            assert len(records) <= 6 + (cycles + 1) + 1
            [log] = store.shard_paths()
            lines = [
                line
                for line in Path(log).read_text(encoding="utf-8").split("\n")
                if line.strip()
            ]
            torn = [i for i, line in enumerate(lines) if not _parses(line)]
            assert torn in ([], [len(lines) - 1])
