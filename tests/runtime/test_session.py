"""Tests for the Session façade: resolution, figures, persistence."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import ExperimentScale, ci_scale
from repro.machine.configs import opteron_like_config, tiny_machine, tiny_machine_config
from repro.machine.machine import PreparedPlanCache, SimulatedMachine
from repro.runtime.backends import MultiprocessBackend, SerialBackend
from repro.runtime.store import DiskStore, MemoryStore, NullStore


def _tiny_session(backend="serial", store=None, noise=0.02, rng=7):
    return repro.session(
        machine=tiny_machine(noise_sigma=noise, rng=rng),
        scale=ci_scale(),
        backend=backend,
        store=store if store is not None else MemoryStore(),
    )


class TestSessionFactory:
    def test_presets_resolve(self):
        sess = repro.session(machine="tiny", scale="ci", backend="serial", store="none")
        assert sess.machine.config.name == "tiny"
        assert sess.scale == ci_scale()
        assert isinstance(sess.backend, SerialBackend)
        assert isinstance(sess.store, NullStore)

    def test_concrete_objects_pass_through(self):
        machine = tiny_machine()
        store = MemoryStore()
        sess = repro.session(machine=machine, scale=ci_scale(), store=store)
        assert sess.machine is machine
        assert sess.store is store

    def test_machine_config_resolves(self):
        sess = repro.session(machine=tiny_machine_config(), scale="ci", store="none")
        assert isinstance(sess.machine, SimulatedMachine)

    def test_attaches_a_scale_sized_prepared_cache(self):
        machine = tiny_machine()
        assert machine.prepared_cache is None
        sess = repro.session(machine=machine, scale="ci", store="none")
        cache = sess.machine.prepared_cache
        assert isinstance(cache, PreparedPlanCache)
        assert cache.capacity == (
            2 * ci_scale().sample_count + PreparedPlanCache.DEFAULT_CAPACITY
        )

    def test_keeps_a_caller_supplied_prepared_cache(self):
        cache = PreparedPlanCache(8)
        machine = SimulatedMachine(tiny_machine_config(), prepared_cache=cache)
        sess = repro.session(machine=machine, scale="ci", store="none")
        assert sess.machine.prepared_cache is cache
        assert sess.cost_engine().machine.prepared_cache is cache

    def test_unknown_presets_raise(self):
        with pytest.raises(ValueError):
            repro.session(machine="cray")
        with pytest.raises(ValueError):
            repro.session(scale="galactic")
        with pytest.raises(ValueError):
            repro.session(backend="quantum")

    def test_describe_mentions_configuration(self):
        sess = repro.session(machine="tiny", scale="ci", backend="batched", store="none")
        text = sess.describe()
        assert "tiny" in text and "batched" in text


class TestSessionCampaigns:
    def test_tables_memoised_per_session(self):
        sess = _tiny_session()
        assert sess.small_table() is sess.small_table()
        assert sess.large_table() is sess.large_table()

    def test_campaign_count_defaults_to_scale(self):
        sess = _tiny_session()
        assert len(sess.small_table()) == sess.scale.sample_count

    def test_store_shared_across_sessions(self):
        store = MemoryStore()
        first = _tiny_session(store=store)
        table = first.campaign(5, 10)
        second = _tiny_session(store=store)
        assert second.campaign(5, 10) is table

    def test_campaign_forwards_sampler_settings(self):
        sess = _tiny_session()
        table = sess.campaign(6, 10, max_children=2)
        assert all(
            len(node.children) <= 2
            for plan in table.plans
            for node in plan.splits()
        )
        # distinct sampler settings get distinct memoisation slots
        assert sess.campaign(6, 10, max_children=2) is table
        assert sess.campaign(6, 10) is not table

    def test_measure_plans(self):
        sess = _tiny_session()
        from repro.wht.canonical import canonical_plans

        table = sess.measure_plans(list(canonical_plans(5).values()))
        assert len(table) == 3

    def test_search_strategies(self):
        sess = _tiny_session()
        dp = sess.search(5)
        assert dp.strategy == "dynamic-programming"
        rnd = sess.search(5, strategy="random", samples=20)
        assert rnd.best_plan is not None
        with pytest.raises(ValueError):
            sess.search(5, strategy="simulated-annealing")

    def test_batch_past_the_int32_line_space_fails_clearly(self):
        # 8,192 distinct 2^21-point plans span 2^31 64-byte lines, one past
        # the int32 line space, on a machine with one set class (a one-set
        # L1); the batch is refused before any simulation.
        config = opteron_like_config()
        config = dataclasses.replace(config, l1=dataclasses.replace(config.l1, associativity=1024))
        scale = ExperimentScale(small_size=9, large_size=21, sample_count=8192)
        sess = repro.session(machine=config, scale=scale, backend="batched", store="none")
        with pytest.raises(ValueError, match=r"past the int32 line space .* fewer or smaller plans"):
            sess.large_table()


class TestAllFiguresAcrossBackends:
    """Acceptance: all eleven figures end-to-end, serial vs multiprocess,
    identical numerical results."""

    @pytest.fixture(scope="class")
    def results(self):
        serial = _tiny_session(backend="serial")
        multi = _tiny_session(backend=MultiprocessBackend(max_workers=2))
        return serial, multi, serial.run_all(), multi.run_all()

    def test_every_figure_present(self, results):
        _, _, serial_results, multi_results = results
        expected = {f"figure{i}" for i in range(1, 12)} | {"correlations", "theory"}
        assert expected <= set(serial_results)
        assert expected <= set(multi_results)

    def test_campaign_tables_bit_identical(self, results):
        serial, multi, _, _ = results
        for getter in ("small_table", "large_table"):
            a, b = getattr(serial, getter)(), getattr(multi, getter)()
            assert a.plans == b.plans
            for name in a.columns:
                assert np.array_equal(a.columns[name], b.columns[name])

    def test_figure_numerics_identical(self, results):
        _, _, serial_results, multi_results = results
        assert serial_results["figure9"].best == multi_results["figure9"].best
        sc, mc = serial_results["correlations"], multi_results["correlations"]
        assert sc.rho_small_instructions == mc.rho_small_instructions
        assert sc.rho_large_instructions == mc.rho_large_instructions
        assert sc.rho_large_misses == mc.rho_large_misses
        assert sc.rho_large_combined == mc.rho_large_combined

    def test_sweep_identical(self, results):
        serial, multi, serial_results, multi_results = results
        assert serial_results["figure1"] == multi_results["figure1"]


class TestDiskStorePersistence:
    def test_second_session_hits_cache_with_zero_measure_calls(self, tmp_path, monkeypatch):
        path = tmp_path / "campaigns"
        first = repro.session(machine="tiny", scale="ci", backend="serial", store=path)
        table = first.campaign(5, 15)

        calls = 0
        original = SimulatedMachine.measure

        def counting(self, plan, rng=None):
            nonlocal calls
            calls += 1
            return original(self, plan, rng=rng)

        monkeypatch.setattr(SimulatedMachine, "measure", counting)
        second = repro.session(machine="tiny", scale="ci", backend="serial", store=path)
        reloaded = second.campaign(5, 15)
        assert calls == 0
        assert table.equals(reloaded)

    def test_cross_process_cache_hit(self, tmp_path, monkeypatch):
        """A real second process completes the campaign via DiskStore hit."""
        path = tmp_path / "campaigns"
        src_dir = Path(repro.__file__).resolve().parents[1]
        script = (
            "import repro; "
            f"sess = repro.session(machine='tiny', scale='ci', backend='serial', store={str(path)!r}); "
            "table = sess.campaign(5, 15); print(len(table))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "15"

        calls = 0
        original = SimulatedMachine.measure

        def counting(self, plan, rng=None):
            nonlocal calls
            calls += 1
            return original(self, plan, rng=rng)

        monkeypatch.setattr(SimulatedMachine, "measure", counting)
        sess = repro.session(machine="tiny", scale="ci", backend="serial", store=path)
        table = sess.campaign(5, 15)
        assert calls == 0
        assert len(table) == 15

    def test_different_backends_share_disk_entries(self, tmp_path):
        path = tmp_path / "campaigns"
        serial = repro.session(machine="tiny", scale="ci", backend="serial", store=path)
        a = serial.campaign(5, 12)
        batched = repro.session(machine="tiny", scale="ci", backend="batched", store=path)
        b = batched.campaign(5, 12)
        assert a.equals(b)
        assert len(list(DiskStore(path).entries())) == 1


    def test_run_all_replays_from_a_warm_store(self, tmp_path, monkeypatch):
        """Every figure, the Figure 1-3 sweep included, is store-native."""
        path = tmp_path / "campaigns"
        cold = repro.session(machine="tiny", scale="ci", store=path).run_all()

        calls = 0
        original = SimulatedMachine.measure_prepared

        def counting(self, prepared, rng=None):
            nonlocal calls
            calls += 1
            return original(self, prepared, rng=rng)

        monkeypatch.setattr(SimulatedMachine, "measure_prepared", counting)
        results = repro.session(machine="tiny", scale="ci", store=path).run_all()
        assert calls == 0
        assert results["figure1"] == cold["figure1"]
        assert results["figure9"].best == cold["figure9"].best


class TestSuiteSessionIntegration:
    def test_suite_binds_to_session(self):
        sess = _tiny_session()
        suite = sess.suite()
        assert suite.session is sess
        assert suite.machine is sess.machine
        assert suite.scale is sess.scale
        assert sess.suite() is suite

    def test_suite_tables_flow_through_session(self):
        sess = _tiny_session()
        suite = sess.suite()
        assert suite.small_table() is sess.small_table()
        assert suite.large_table() is sess.large_table()

    def test_suite_dp_searches_through_the_session_engine(self):
        sess = _tiny_session()
        suite = sess.suite()
        best = suite.best_plan(5)
        engine = sess.cost_engine()
        measured = engine.measured
        assert sess.search(5, objective="cycles").best_plan == best
        assert engine.measured == measured  # the sweep's DP already measured it all

    def test_connected_session_suite_is_service_mode(self):
        with repro.CampaignService(workers=1) as service:
            sess = repro.Session.connect(service, machine="tiny", scale="ci")
            suite = sess.suite()
            assert suite.mode == "service"
            assert suite.figure("figure1").sizes == suite.sweep_sizes()
            sess.close()
