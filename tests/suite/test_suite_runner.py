"""SuiteRun execution: DAG order, filters, failures, skip and resume."""

from __future__ import annotations

import pytest

import repro
from _suite_helpers import tiny_spec_dict
from repro.config import ci_scale
from repro.runtime.store import MemoryStore
from repro.suite import MemorySink, SpecError, SuiteRun
from repro.suite.figures import KIND_REGISTRY, KindDef

SEED = ci_scale().seed


def test_tiny_suite_completes_every_unit(tiny_spec):
    result = SuiteRun(tiny_spec, store=MemoryStore()).run()
    assert result.ok
    assert len(result.completed) == 3
    assert result.statuses() == {
        f"tiny@{SEED}/figure5": "complete",
        f"tiny@{SEED}/theory": "complete",
        f"tiny@{SEED}/search6": "complete",
    }
    figure5 = result.get("figure5")
    assert figure5.figure is not None
    assert figure5.tables and figure5.artifact
    # figure5 derives from the shared large-campaign baseline, measured once.
    assert result.baseline_measured[f"tiny@{SEED}"]["large"] > 0
    assert result.total_measured > 0


def test_run_narrows_along_the_experiment_axis(tiny_spec):
    run = SuiteRun(tiny_spec, store=MemoryStore())
    result = run.run(experiments=["theory"])
    assert [r.experiment_id for r in result.results] == ["theory"]
    with pytest.raises(SpecError, match="unknown experiment"):
        run.run(experiments=["figure99"])
    with pytest.raises(SpecError, match="unknown machine"):
        run.run(machines=["opteron"])
    with pytest.raises(SpecError, match="unknown seed"):
        run.run(seeds=[123])


def test_sinks_receive_every_completed_unit(tiny_spec):
    memory = MemorySink()
    result = SuiteRun(tiny_spec, store=MemoryStore(), sinks=[memory]).run()
    assert len(memory) == len(result.completed) == 3
    assert memory.get("figure5").unit_id == f"tiny@{SEED}/figure5"


def test_failed_unit_is_recorded_and_the_run_continues(tiny_spec, monkeypatch):
    def boom(ctx, options):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(KIND_REGISTRY, "theory", KindDef((), frozenset(), boom))
    result = SuiteRun(tiny_spec, store=MemoryStore()).run()
    assert not result.ok
    failed = result.get("theory")
    assert failed.status == "failed"
    assert failed.error == "RuntimeError: injected failure"
    assert not failed.ok
    # The other units still completed.
    assert {r.experiment_id for r in result.completed} == {"figure5", "search6"}


def test_manifest_skips_completed_units_on_rerun(tiny_spec, tmp_path):
    store = MemoryStore()
    artifacts = str(tmp_path / "artifacts")
    cold = SuiteRun(tiny_spec, store=store, artifacts=artifacts).run()
    assert cold.ok and cold.total_measured > 0
    assert (tmp_path / "artifacts" / "manifest.json").exists()

    warm = SuiteRun(tiny_spec, store=store, artifacts=artifacts).run()
    assert warm.ok
    assert warm.total_measured == 0
    assert set(warm.statuses().values()) == {"skipped"}
    # Skipped units carry no figure — the manifest short-circuits derivation.
    assert all(r.figure is None for r in warm.results)


def test_store_resume_measures_nothing_even_without_a_manifest(tiny_spec):
    store = MemoryStore()
    cold = SuiteRun(tiny_spec, store=store).run()
    assert cold.total_measured > 0
    # Fresh SuiteRun, fresh in-memory manifest: every unit re-derives, but the
    # shared store replays all measurements.
    warm = SuiteRun(tiny_spec, store=store).run()
    assert warm.ok
    assert set(warm.statuses().values()) == {"complete"}
    assert warm.total_measured == 0
    assert warm.get("figure5").figure is not None


def test_failed_units_are_retried_while_completed_units_skip(tiny_spec, tmp_path, monkeypatch):
    store = MemoryStore()
    artifacts = str(tmp_path / "artifacts")

    def boom(ctx, options):
        raise RuntimeError("injected failure")

    with monkeypatch.context() as patch:
        patch.setitem(KIND_REGISTRY, "theory", KindDef((), frozenset(), boom))
        first = SuiteRun(tiny_spec, store=store, artifacts=artifacts).run()
    assert first.get("theory").status == "failed"

    second = SuiteRun(tiny_spec, store=store, artifacts=artifacts).run()
    assert second.ok
    statuses = second.statuses()
    assert statuses[f"tiny@{SEED}/theory"] == "complete"
    assert statuses[f"tiny@{SEED}/figure5"] == "skipped"
    assert statuses[f"tiny@{SEED}/search6"] == "skipped"


def test_spec_change_discards_the_manifest(tiny_spec, tmp_path):
    from repro.suite import SuiteSpec

    store = MemoryStore()
    artifacts = str(tmp_path / "artifacts")
    SuiteRun(tiny_spec, store=store, artifacts=artifacts).run()

    changed = SuiteSpec.from_dict(tiny_spec_dict(name="renamed-suite"))
    rerun = SuiteRun(changed, store=store, artifacts=artifacts).run()
    # Different spec hash: nothing skips, but the warm store still replays.
    assert set(rerun.statuses().values()) == {"complete"}
    assert rerun.total_measured == 0


def test_results_report_in_spec_order(tiny_spec, tmp_path):
    store = MemoryStore()
    artifacts = str(tmp_path / "artifacts")
    run = SuiteRun(tiny_spec, store=store, artifacts=artifacts)
    run.run(experiments=["theory"])
    # theory now skips while the others execute; report order still follows
    # the spec, not execution order.
    result = run.run()
    assert [r.experiment_id for r in result.results] == ["figure5", "theory", "search6"]
    assert result.statuses()[f"tiny@{SEED}/theory"] == "skipped"


def test_contexts_pick_their_session_mode(tiny_spec):
    from repro.runtime.backends import BatchedBackend, MultiprocessBackend
    from repro.runtime.service import CampaignService

    def context(**options):
        run = SuiteRun(tiny_spec, store=None, **options)
        return run._build_context(run.spec.machines[0], SEED)

    plain = context()
    assert plain.mode == "plain"
    # The serial default is fused into the batched backend, behind the counter.
    assert type(plain.session.backend.inner) is BatchedBackend
    assert type(context(backend="serial").session.backend.inner) is BatchedBackend
    pooled = context(backend=MultiprocessBackend(max_workers=1))
    assert type(pooled.session.backend.inner) is MultiprocessBackend
    remote = context(connect="tcp://127.0.0.1:9")
    assert remote.mode == "remote"
    assert remote.session.remote_url == "tcp://127.0.0.1:9"
    with CampaignService(workers=1) as service:
        connected = context(service=service)
        assert connected.mode == "service"
        assert connected.measured_total() == 0
    with pytest.raises(ValueError, match="not both"):
        SuiteRun(tiny_spec, service=object(), connect="tcp://127.0.0.1:9")


def test_figure_view_counts_through_a_counting_backend():
    from repro.runtime.backends import BatchedBackend
    from repro.suite.context import CountingBackend

    counted = repro.session(
        machine="tiny", scale="ci", backend=CountingBackend(BatchedBackend()), store="none"
    ).suite()
    counted.figure("figure5")
    assert counted.measured_total() == counted.session.backend.measured > 0
    assert f"measured={counted.measured_total()}" in counted.describe()
