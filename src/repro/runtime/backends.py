"""Pluggable execution backends for measurement campaigns.

A campaign is a list of :class:`WorkUnit`\\ s — ``(plan, noise_seed)`` pairs —
measured against one machine.  Because every unit carries its own noise seed
(derived from the campaign seed and the sample index), the resulting
measurements are independent of execution order and of *where* they execute,
so all backends are guaranteed to produce bit-identical results:

* :class:`SerialBackend` — the reference: one Python loop over the units on
  the caller's machine instance.
* :class:`MultiprocessBackend` — fans the units out across a *persistent*
  pool of worker processes (:mod:`concurrent.futures`); each worker rebuilds
  the machine from its :class:`~repro.machine.machine.MachineConfig` once
  (with a prepared-plan cache that survives across rounds), receives
  *contiguous sub-batches* of units and measures each shard through the
  fused batch-prepare pipeline.  The pool survives across ``measure_units``
  calls so a search's many small candidate rounds don't pay a pool spawn
  each (``close()`` or the context-manager protocol releases the workers).
* :class:`BatchedBackend` — routes the unit list's distinct plans through
  ``machine.prepare_batch``: one fused cross-plan preparation (shared trace
  splicing, one vectorised cache pass per level) instead of one
  prepare/measure round-trip per unit; only the per-unit cycle-noise draw is
  recomputed.  This is the :class:`~repro.runtime.cost_engine.CostEngine`'s
  default execution backend.

Backends receive the *caller's* :class:`SimulatedMachine` so that serial and
batched execution reuse its interpreter and hierarchy (and respect
monkeypatched machines in tests); the multiprocess backend ships only the
picklable configuration to its workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from repro.machine.machine import MachineConfig, PreparedPlanCache, SimulatedMachine
from repro.machine.measurement import Measurement
from repro.util.validation import check_positive_int
from repro.wht.plan import Plan

__all__ = [
    "WorkUnit",
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "BatchedBackend",
    "BACKEND_PRESETS",
    "resolve_backend",
]


@dataclass(frozen=True)
class WorkUnit:
    """One campaign sample: a plan plus the seed of its cycle-noise draw.

    ``noise_seed`` of ``None`` defers to the machine's own generator (not
    reproducible across backends; campaigns always provide explicit seeds).
    """

    plan: Plan
    noise_seed: int | None = None


@runtime_checkable
class ExecutionBackend(Protocol):
    """How and where a list of work units is measured."""

    #: Short identifier used in reports and benchmarks.
    name: str

    def measure_units(
        self, machine: SimulatedMachine, units: Sequence[WorkUnit]
    ) -> list[Measurement]:
        """Measure every unit against ``machine``, preserving unit order."""
        ...


class SerialBackend:
    """Reference backend: measure units one after another, in order."""

    name = "serial"

    def measure_units(
        self, machine: SimulatedMachine, units: Sequence[WorkUnit]
    ) -> list[Measurement]:
        return [machine.measure(unit.plan, rng=unit.noise_seed) for unit in units]

    def close(self) -> None:
        """No-op: serial execution holds no external resources.

        Present so wrappers and owners can close any backend uniformly."""
        return None

    def __repr__(self) -> str:
        return "SerialBackend()"


class BatchedBackend:
    """Fuse the whole unit list's preparation into one batched workload.

    Every unit's plan goes through ``machine.prepare_batch`` — which dedupes
    the batch by plan key, serves what the machine's prepared-plan cache
    holds, and runs the rest through the cross-plan fused pipeline that
    walks each plan once, splices the line streams into one super-stream
    and simulates the caches in one vectorised pass per level — and every
    unit then gets its own noise draw via ``measure_prepared``.  Since
    preparation is deterministic and the noise seed fully determines the
    stochastic part, results are bit-identical to :class:`SerialBackend`.
    """

    name = "batched"

    def measure_units(
        self, machine: SimulatedMachine, units: Sequence[WorkUnit]
    ) -> list[Measurement]:
        prepared = machine.prepare_batch([unit.plan for unit in units])
        return [
            machine.measure_prepared(prep, rng=unit.noise_seed)
            for prep, unit in zip(prepared, units)
        ]

    def close(self) -> None:
        """No-op: batched execution holds no external resources."""
        return None

    def __repr__(self) -> str:
        return "BatchedBackend()"


# -- multiprocess worker plumbing -------------------------------------------------
#
# The worker functions live at module scope so every start method (fork,
# forkserver, spawn) can import them.  Each worker process builds its machine
# exactly once from the pickled configuration.

_WORKER_MACHINE: SimulatedMachine | None = None


def _worker_init(config: MachineConfig) -> None:
    # The worker's prepared-plan cache lives as long as the persistent pool:
    # repeated plans across a search's rounds (or a campaign's duplicate
    # draws) skip re-preparation.
    global _WORKER_MACHINE
    _WORKER_MACHINE = SimulatedMachine(config, prepared_cache=PreparedPlanCache())


def _worker_measure_shard(
    payloads: Sequence[tuple[Plan, int | None]],
) -> list[Measurement]:
    """Measure one contiguous sub-batch of units on the worker's machine.

    The shard's plans are prepared through the worker machine's fused batch
    pipeline (sharing its prepared-plan and template caches across rounds,
    since the machine lives as long as the pool), then each unit draws its
    own noise.
    """
    machine = _WORKER_MACHINE
    if machine is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker process was not initialised with a machine config")
    prepared = machine.prepare_batch([plan for plan, _seed in payloads])
    return [
        machine.measure_prepared(prep, rng=seed)
        for prep, (_plan, seed) in zip(prepared, payloads)
    ]


class MultiprocessBackend:
    """Fan units out across a persistent pool of worker processes.

    Workers are handed *contiguous shards* of ``(plan, noise_seed)`` payloads
    and rebuild the machine from the configuration once per process, so one
    round of IPC carries a whole sub-batch in and its measurements out, and
    each shard is prepared through the worker's fused batch pipeline
    (``chunksize`` overrides the shard length).  Result order follows unit
    order regardless of scheduling, and the per-unit seeds make the
    measurements identical to serial execution.

    The :class:`ProcessPoolExecutor` is created lazily on the first batch and
    **kept alive across ``measure_units`` calls**: a search evaluates many
    small candidate rounds (a DP round has at most ~17 candidates), and
    re-spawning a pool per round used to cost more than the round itself.
    The pool is keyed by the machine configuration — measuring against a
    different machine tears the old pool down and starts a fresh one, so
    workers can never hold a stale config.  Call :meth:`close` (or use the
    backend as a context manager, or close the owning
    :class:`~repro.runtime.session.Session`) to release the workers; the
    next batch transparently starts a new pool.
    """

    def __init__(self, max_workers: int | None = None, chunksize: int | None = None):
        if max_workers is not None:
            check_positive_int(max_workers, "max_workers")
        if chunksize is not None:
            check_positive_int(chunksize, "chunksize")
        self.max_workers = max_workers
        self.chunksize = chunksize
        self._pool: ProcessPoolExecutor | None = None
        self._pool_config: MachineConfig | None = None

    name = "multiprocess"

    def _effective_workers(self) -> int:
        return self.max_workers or os.cpu_count() or 1

    def _pool_for(self, config: MachineConfig) -> ProcessPoolExecutor:
        if self._pool is not None and self._pool_config == config:
            return self._pool
        self.close()
        self._pool = ProcessPoolExecutor(
            max_workers=self._effective_workers(),
            initializer=_worker_init,
            initargs=(config,),
        )
        self._pool_config = config
        return self._pool

    def measure_units(
        self, machine: SimulatedMachine, units: Sequence[WorkUnit]
    ) -> list[Measurement]:
        if not units:
            return []
        workers = self._effective_workers()
        if workers == 1 or len(units) == 1:
            # Nothing to parallelise; skip the pool round-trip entirely
            # (bit-identical by design, thanks to the per-unit seeds).
            return SerialBackend().measure_units(machine, units)
        # Chunk-granular sharding: each worker task is one *contiguous*
        # sub-batch of units, measured through the worker machine's fused
        # batch-prepare pipeline, so cross-plan vectorisation happens inside
        # every shard instead of once per unit.  Four shards per worker keep
        # the load balanced when shard costs vary.
        shard_size = self.chunksize or max(1, -(-len(units) // (workers * 4)))
        payloads = [(unit.plan, unit.noise_seed) for unit in units]
        shards = [
            payloads[low : low + shard_size]
            for low in range(0, len(payloads), shard_size)
        ]
        pool = self._pool_for(machine.config)
        try:
            results = list(pool.map(_worker_measure_shard, shards))
        except BrokenProcessPool:
            # A killed worker poisons the whole executor; drop it and run the
            # batch once more on a fresh pool before giving up.
            self.close()
            pool = self._pool_for(machine.config)
            results = list(pool.map(_worker_measure_shard, shards))
        return [measurement for shard in results for measurement in shard]

    def close(self) -> None:
        """Shut the persistent worker pool down (idempotent).

        The backend remains usable: the next ``measure_units`` call starts a
        fresh pool.
        """
        pool, self._pool, self._pool_config = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "MultiprocessBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent timing
        try:
            pool = self._pool
            if pool is not None:
                pool.shutdown(wait=False)
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"MultiprocessBackend(max_workers={self.max_workers}, "
            f"chunksize={self.chunksize}, "
            f"pool={'live' if self._pool is not None else 'idle'})"
        )


#: Mapping of backend names accepted by :func:`repro.session` to factories.
BACKEND_PRESETS = {
    "serial": SerialBackend,
    "multiprocess": MultiprocessBackend,
    "batched": BatchedBackend,
}


def resolve_backend(spec: "str | ExecutionBackend") -> ExecutionBackend:
    """Normalise a backend name or instance into an :class:`ExecutionBackend`."""
    if isinstance(spec, str):
        try:
            return BACKEND_PRESETS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown backend {spec!r}; available: {sorted(BACKEND_PRESETS)}"
            ) from None
    if isinstance(spec, ExecutionBackend):
        return spec
    raise TypeError(f"cannot interpret {spec!r} as an execution backend")
