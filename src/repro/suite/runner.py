"""The suite runner: spec → baseline-first experiment DAG → sinks.

:class:`SuiteRun` expands a validated :class:`~repro.suite.spec.SuiteSpec`
into units (one per ``machine x seed x experiment`` cell) and executes them
context by context:

1. Units whose manifest record says they already completed with all the
   requested sinks are **skipped** — no session is even constructed for a
   context whose units all skip (the warm-resume fast path).
2. For each context with work left, the union of the remaining units'
   baselines is materialised first (``small``/``large`` campaigns, then the
   canonical sweep) — each exactly once, shared by every dependent figure.
3. Each unit's builder runs, its tables/artifact stream to every sink, and
   the manifest records status + measurement count + written sinks, flushed
   atomically after every unit (a SIGKILL loses at most the in-flight
   unit).

A failing unit is recorded as ``failed`` (with the error) and the run
continues; :attr:`SuiteResult.ok` and the CLI exit code report it at the
end.  Everything measured flows through the session's store, so re-running
the same spec against the same store performs zero new measurements even
when the manifest is gone — the manifest only short-circuits the (cheap but
nonzero) re-derivation and re-writing.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.runtime.backends import (
    BatchedBackend,
    ExecutionBackend,
    SerialBackend,
    resolve_backend,
)
from repro.runtime.session import Session
from repro.runtime.store import CampaignStore, resolve_store
from repro.suite.context import BASELINE_ORDER, CountingBackend, SuiteContext
from repro.suite.figures import build_experiment, kind_baselines
from repro.suite.manifest import Manifest
from repro.suite.results import ExperimentResult, SuiteResult
from repro.suite.sinks import resolve_sinks
from repro.suite.spec import SpecError, SuiteSpec, spec_from_dict

__all__ = ["SuiteRun"]


class SuiteRun:
    """One configured, runnable suite (see :func:`repro.suite.api.suite`)."""

    def __init__(
        self,
        spec: "SuiteSpec | Mapping[str, Any]",
        *,
        store: "str | CampaignStore | None" = "memory",
        backend: "str | ExecutionBackend | None" = None,
        sinks: "Sequence | None" = None,
        artifacts: str | None = None,
        manifest: str | None = None,
        service=None,
        connect: "str | Sequence[str] | None" = None,
        service_fallback: bool = False,
        transport_options: "dict | None" = None,
        dp_max_children: int | None = 2,
    ):
        self.spec = spec_from_dict(spec)
        self.artifacts = artifacts
        self.sinks = resolve_sinks(sinks, artifacts)
        if manifest is None and artifacts is not None:
            import os

            manifest = os.path.join(artifacts, "manifest.json")
        self.manifest = Manifest(manifest)
        self._store_spec = store
        self._backend_spec = backend
        if service is not None and connect is not None:
            raise ValueError("pass either service= or connect=, not both")
        self.service = service
        self.connect = connect
        self.service_fallback = service_fallback
        self.transport_options = dict(transport_options or {})
        self.dp_max_children = dp_max_children

    # -- context construction ----------------------------------------------------

    def _build_context(self, machine_spec, seed: int) -> SuiteContext:
        import dataclasses

        machine = machine_spec.build()
        scale = dataclasses.replace(self.spec.scale, seed=seed)
        if self.service is not None:
            # Connected session: all measurement work routes through the
            # shared service; the engine client's .measured counter is the
            # closest per-tenant accounting the service exposes.
            session = Session.connect(
                self.service,
                machine=machine,
                scale=scale,
                dp_max_children=self.dp_max_children,
                fallback=self.service_fallback,
            )
            return SuiteContext(session, machine_spec.id)
        # Plain or remote session: campaigns measure locally through a
        # counted backend.  Resolve the serial default to the fused batched
        # backend *before* wrapping: Session.cost_engine only upgrades an
        # exact-type SerialBackend, and the wrapper must see the engine's
        # traffic.  With ``connect`` the cost engine crosses the wire (a
        # FleetClient over one URL or several) and counts on the client instead.
        backend = (
            BatchedBackend() if self._backend_spec is None else resolve_backend(self._backend_spec)
        )
        if type(backend) is SerialBackend:
            backend = BatchedBackend()
        session = Session(
            machine=machine,
            scale=scale,
            backend=CountingBackend(backend),
            store=resolve_store(self._store_spec),
            dp_max_children=self.dp_max_children,
            service_fallback=self.service_fallback,
            remote_url=self.connect,
            remote_options=self.transport_options,
        )
        return SuiteContext(session, machine_spec.id)

    # -- execution ---------------------------------------------------------------

    def _select(self, values, requested, label: str, key=lambda v: v):
        if requested is None:
            return list(values)
        requested = list(requested)
        known = {key(v) for v in values}
        unknown = [r for r in requested if r not in known]
        if unknown:
            raise SpecError(
                f"unknown {label}(s) {unknown}; spec declares: {sorted(known)}"
            )
        return [v for v in values if key(v) in requested]

    def run(
        self,
        *,
        experiments: "Sequence[str] | None" = None,
        machines: "Sequence[str] | None" = None,
        seeds: "Sequence[int] | None" = None,
    ) -> SuiteResult:
        """Execute the suite (optionally narrowed along any axis)."""
        spec = self.spec
        selected_experiments = self._select(
            spec.experiments, experiments, "experiment", key=lambda e: e.id
        )
        selected_machines = self._select(
            spec.machines, machines, "machine", key=lambda m: m.id
        )
        selected_seeds = self._select(spec.seeds, seeds, "seed")
        sink_names = [sink.name for sink in self.sinks]

        self.manifest.begin(spec)
        result = SuiteResult(
            spec_name=spec.name,
            spec_hash=spec.spec_hash(),
            manifest_path=self.manifest.path,
        )

        for machine_spec in selected_machines:
            for seed in selected_seeds:
                context_id = f"{machine_spec.id}@{seed}"
                units = [
                    (experiment, f"{context_id}/{experiment.id}")
                    for experiment in selected_experiments
                ]
                todo = []
                for experiment, unit_id in units:
                    if self.manifest.completed(unit_id, sink_names):
                        self.manifest.record_unit(
                            unit_id, "skipped", measured=0, sinks=sink_names
                        )
                        result.results.append(
                            ExperimentResult(
                                unit_id=unit_id,
                                experiment_id=experiment.id,
                                kind=experiment.kind,
                                machine_id=machine_spec.id,
                                seed=seed,
                                status="skipped",
                            )
                        )
                    else:
                        todo.append((experiment, unit_id))
                if not todo:
                    continue

                ctx = self._build_context(machine_spec, seed)
                try:
                    self._run_context(ctx, context_id, todo, sink_names, result)
                finally:
                    ctx.close()

        for sink in self.sinks:
            sink.close()
        # Report in spec order (machine, seed, experiment), not execution
        # order (skips are decided before their context runs).
        order = {
            f"{m.id}@{s}/{e.id}": index
            for index, (m, s, e) in enumerate(
                (m, s, e)
                for m in selected_machines
                for s in selected_seeds
                for e in selected_experiments
            )
        }
        result.results.sort(key=lambda r: order[r.unit_id])
        return result

    def _run_context(
        self,
        ctx: SuiteContext,
        context_id: str,
        todo: list,
        sink_names: list[str],
        result: SuiteResult,
    ) -> None:
        # Baseline-first: materialise the union of the remaining units'
        # baselines exactly once, shared by every dependent experiment.
        needed = {
            baseline
            for experiment, _ in todo
            for baseline in kind_baselines(experiment.kind)
        }
        for baseline in BASELINE_ORDER:
            if baseline not in needed:
                continue
            before = ctx.measured_total()
            ctx.materialize(baseline)
            measured = ctx.measured_total() - before
            result.baseline_measured.setdefault(context_id, {})[baseline] = measured
            self.manifest.record_baseline(context_id, baseline, measured)

        for experiment, unit_id in todo:
            before = ctx.measured_total()
            try:
                figure, tables, artifact = build_experiment(ctx, experiment)
                unit = ExperimentResult(
                    unit_id=unit_id,
                    experiment_id=experiment.id,
                    kind=experiment.kind,
                    machine_id=ctx.machine_id,
                    seed=ctx.scale.seed,
                    status="complete",
                    measured=ctx.measured_total() - before,
                    tables=tables,
                    artifact=artifact,
                    figure=figure,
                )
                for sink in self.sinks:
                    sink.write(unit)
            except Exception as exc:  # noqa: BLE001 - recorded, run continues
                unit = ExperimentResult(
                    unit_id=unit_id,
                    experiment_id=experiment.id,
                    kind=experiment.kind,
                    machine_id=ctx.machine_id,
                    seed=ctx.scale.seed,
                    status="failed",
                    measured=ctx.measured_total() - before,
                    error=f"{type(exc).__name__}: {exc}",
                )
            self.manifest.record_unit(
                unit_id,
                unit.status,
                measured=unit.measured,
                sinks=sink_names if unit.status == "complete" else (),
                error=unit.error,
            )
            result.results.append(unit)
