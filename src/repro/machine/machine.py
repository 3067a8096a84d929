"""The simulated machine: plans in, measurements out.

:class:`SimulatedMachine` glues the substrate together: the analytic event
counts (:func:`repro.wht.interpreter.analytic_stats`) give the plan's
structural events, :func:`repro.machine.trace.stream_line_chunks` streams
its cache-line trace in bounded chunks, the memory hierarchy counts
misses, and the CPU models convert everything into instruction and cycle
counts.  One call to :meth:`SimulatedMachine.measure` corresponds to one
PAPI-instrumented run of the compiled WHT package in the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.machine.cache import CacheConfig
from repro.machine.cpu import CycleModel, InstructionCostModel
from repro.machine.hierarchy import HierarchyStatistics, MemoryHierarchy
from repro.machine.measurement import Measurement
from repro.machine.trace import (
    DEFAULT_ELEMENT_SIZE, splice_line_chunks, squeeze_plan, stream_line_chunks
)
from repro.util.lru import LRUCache
from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_positive_int
from repro.wht.encoding import plan_key
from repro.wht.interpreter import ExecutionStats, PlanInterpreter, analytic_stats
from repro.wht.plan import Plan

__all__ = ["MachineConfig", "PreparedPlan", "PreparedPlanCache", "SimulatedMachine"]


@dataclass(frozen=True)
class MachineConfig:
    """Full description of a simulated machine."""

    #: Human-readable configuration name (recorded in every measurement).
    name: str
    #: L1 data cache geometry.
    l1: CacheConfig
    #: L2 cache geometry (``None`` disables the second level).
    l2: CacheConfig | None
    #: Instruction-cost weights.
    instruction_model: InstructionCostModel = field(default_factory=InstructionCostModel)
    #: Cycle-cost weights.
    cycle_model: CycleModel = field(default_factory=CycleModel)
    #: Bytes per vector element (doubles by default).
    element_size: int = DEFAULT_ELEMENT_SIZE
    #: Use the vectorised cache simulators when the geometry allows it.
    vectorized_caches: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.element_size, "element_size")
        if self.l2 is not None and self.l2.size_bytes < self.l1.size_bytes:
            raise ValueError("L2 must be at least as large as L1")

    def l1_capacity_exponent(self) -> int:
        """Largest ``n`` such that a ``2^n``-element vector fits in L1."""
        elements = self.l1.size_bytes // self.element_size
        return max(int(elements).bit_length() - 1, 0)

    def l2_capacity_exponent(self) -> int | None:
        """Largest ``n`` such that a ``2^n``-element vector fits in L2."""
        if self.l2 is None:
            return None
        elements = self.l2.size_bytes // self.element_size
        return max(int(elements).bit_length() - 1, 0)

    def with_noise(self, noise_sigma: float) -> "MachineConfig":
        """A copy of the configuration with a different cycle-noise level."""
        return replace(self, cycle_model=replace(self.cycle_model, noise_sigma=noise_sigma))

    def describe(self) -> str:
        """Human-readable summary used by reports."""
        l2_desc = self.l2.describe() if self.l2 is not None else "no L2"
        return (
            f"{self.name}: L1[{self.l1.describe()}] L2[{l2_desc}] "
            f"element={self.element_size}B "
            f"L1 boundary=2^{self.l1_capacity_exponent()} elements"
        )


@dataclass(frozen=True)
class PreparedPlan:
    """The deterministic half of a measurement: profile and cache statistics.

    Interpreting the plan, expanding the trace and simulating the cache
    hierarchy are pure functions of (plan, machine configuration); only the
    cycle-noise draw varies between repeated measurements of the same plan.
    Splitting the two lets batched execution amortise the expensive half
    across work units that share a plan while keeping exact result parity.
    """

    plan: Plan
    stats: ExecutionStats
    hierarchy_stats: HierarchyStatistics


class PreparedPlanCache:
    """Bounded LRU cache of :class:`PreparedPlan` keyed by plan content.

    Preparing a plan (interpret + trace + cache simulation) is a pure
    function of (plan, machine configuration), so a machine that is asked to
    measure the same plan repeatedly — a search re-visiting candidates, a
    figure re-running on a warm session — can reuse the deterministic half
    and pay only for the noise draw.  Keys are
    :func:`repro.wht.encoding.plan_key`, so structurally equal plans share an
    entry regardless of object identity.  Entries are treated as immutable.

    The owner of a long-lived machine attaches one: a
    :class:`~repro.runtime.session.Session` (sized from its scale, so both
    RSU campaigns, the canonical sweep, the DP searches and the objective
    sweep share every preparation), a bare
    :class:`~repro.runtime.cost_engine.CostEngine`, a
    :class:`~repro.runtime.service.CampaignService` per machine (grown to two
    of the largest campaign batches it was handed), and each multiprocess
    pool worker — all but the session and the service at
    :attr:`DEFAULT_CAPACITY`.  A bare :class:`SimulatedMachine` never caches
    by default: its ``prepare`` always does the work it is timed for.

    A cache instance must only ever be attached to machines with identical
    configurations (the cache does not key on the machine).
    """

    #: Capacity of every owner's cache but the session's and the service's
    #: (which add room for two RSU campaign populations).  Entries are ~2 KB
    #: each.
    DEFAULT_CAPACITY = 1024

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._entries: LRUCache[str, PreparedPlan] = LRUCache(capacity)
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained preparations."""
        return self._entries.capacity

    def reserve(self, capacity: int) -> None:
        """Grow to retain at least ``capacity`` preparations (never shrinks)."""
        self._entries.capacity = max(self._entries.capacity, int(capacity))

    def get(self, plan: Plan) -> PreparedPlan | None:
        """The cached preparation of ``plan``, or ``None``."""
        entry = self._entries.get(plan_key(plan))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, prepared: PreparedPlan) -> None:
        """Store a preparation (evicting the least recently used entry)."""
        self._entries.put(plan_key(prepared.plan), prepared)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"PreparedPlanCache({len(self._entries)}/{self.capacity} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


class SimulatedMachine:
    """Execution-driven simulator producing PAPI-style measurements.

    ``prepared_cache`` stays ``None`` unless given: the machine's owner
    (session, engine, service, pool worker) attaches a
    :class:`PreparedPlanCache`, so a bare machine prepares every plan afresh.
    """

    def __init__(
        self,
        config: MachineConfig,
        rng: RandomState = None,
        prepared_cache: PreparedPlanCache | None = None,
    ):
        self.config = config
        self.hierarchy = MemoryHierarchy(
            config.l1, config.l2, vectorized=config.vectorized_caches
        )
        self._class_bits = self.hierarchy.shared_set_bits(config.element_size)
        # Per class count, the class geometry.
        self._classes: dict[int, MemoryHierarchy] = {}
        self._rng = as_generator(rng)
        self.prepared_cache = prepared_cache

    # -- measurement -----------------------------------------------------------

    def prepare(self, plan: Plan) -> PreparedPlan:
        """Profile ``plan`` and simulate the caches (the deterministic part).

        The whole measurement substrate streams: the plan's line trace is
        broadcast into bounded line chunks, which feed warm-started
        hierarchy simulators, and the event counts come from the plan
        structure alone.  The nest list is never materialised, nor is the
        address trace of a plan past the chunk budget.  The statistics are
        bit-identical to the eager profile → trace → simulate pipeline —
        including the exact shortcuts of the fused pipeline: analytic
        full-coverage statistics for footprints that fit a cache level; one
        set class simulated for all; and repeated-pass elision, which drops
        guaranteed-hit write passes (see DESIGN.md §10).

        With a :class:`PreparedPlanCache` attached, repeated preparations of
        structurally equal plans return the cached (identical) result.
        """
        cache = self.prepared_cache
        if cache is not None:
            cached = cache.get(plan)
            if cached is not None:
                return cached
        prepared = self._prepare_fused([plan])[0]
        if cache is not None:
            cache.put(prepared)
        return prepared

    def prepare_batch(self, plans: Sequence[Plan]) -> list[PreparedPlan]:
        """Prepare many plans as one fused workload, preserving order.

        The batch is deduplicated by :func:`repro.wht.encoding.plan_key`
        (and served from the :class:`PreparedPlanCache` where possible); the
        remaining distinct plans are streamed once each and their line streams
        spliced into a single cross-plan super-stream that the memory
        hierarchy simulates in one vectorised pass per level
        (:meth:`~repro.machine.hierarchy.MemoryHierarchy.process_line_chunks_batch`).
        Every returned :class:`PreparedPlan` is bit-identical to what
        :meth:`prepare` produces for the same plan.  The batch is never
        split: the simulated plans' footprints in one set class together
        must stay below 2^31 cache lines (int32 line numbers), or this
        raises ``ValueError`` — about 8,000 distinct plans of size 2^21 with
        64-byte lines and one class, 512 times as many on ``opteron``.
        """
        cache = self.prepared_cache
        resolved: dict[str, PreparedPlan] = {}
        missing: dict[str, Plan] = {}
        order: list[str] = []
        for plan in plans:
            key = plan_key(plan)
            order.append(key)
            if key in resolved or key in missing:
                continue
            if cache is not None:
                cached = cache.get(plan)
                if cached is not None:
                    resolved[key] = cached
                    continue
            missing[key] = plan
        if missing:
            for key, prepared in zip(
                missing, self._prepare_fused(list(missing.values()))
            ):
                resolved[key] = prepared
                if cache is not None:
                    cache.put(prepared)
        return [resolved[key] for key in order]

    def _prepare_fused(self, plans: list[Plan]) -> list[PreparedPlan]:
        """Prepare distinct plans through the fused measurement pipeline.

        Plans whose full vector provably fits L1 get exact analytic
        hierarchy statistics (no trace is ever expanded); the rest are
        squeezed to set class 0, streamed with write-pass elision on the
        class geometry (one chunk each while it fits the chunk budget),
        spliced into one super-stream at disjoint line offsets and
        simulated batch-wise, with the L2 level resolved analytically for
        every plan whose footprint fits it, and scaled by the class count:
        the fewest any of them spans.
        """
        config = self.config
        hierarchy = self.hierarchy
        element_size = config.element_size
        line_size = config.l1.line_size
        stats_list = [analytic_stats(plan) for plan in plans]
        footprints = [plan.size * element_size for plan in plans]
        hierarchy_stats: list[HierarchyStatistics | None] = [None] * len(plans)
        streamed: list[int] = []
        # The full-coverage shortcuts need every L1 line of the footprint to
        # actually be touched: consecutive element addresses must be at most
        # one line apart AND the footprint's last line must contain an
        # element address, both guaranteed exactly when the element size
        # divides the line size (always true for the 8-byte doubles on
        # power-of-two lines; anything else falls back to simulation).
        dense = line_size % element_size == 0
        for index, plan in enumerate(plans):
            if dense and hierarchy.covers_analytically(footprints[index]):
                # The cache statistics are exact without expanding a single
                # address.
                hierarchy_stats[index] = hierarchy.analytic_coverage_stats(
                    footprints[index], stats_list[index].memory_ops
                )
            else:
                streamed.append(index)
        if streamed:
            low, high = self._class_bits
            bits = min(max(min(plans[index].n, high) - low, 0) for index in streamed)
            classes = 1 << bits
            squeezed = [squeeze_plan(plans[index], low, low + bits) for index in streamed]
            class_hierarchy = self._class_hierarchy(classes)
            sizes = [plan.size * element_size for plan in squeezed]
            offsets = class_hierarchy.batch_line_offsets(
                [-(-size // line_size) for size in sizes]
            )
            l1 = class_hierarchy.l1_config
            streams = [
                stream_line_chunks(plan, line_size, element_size, l1=l1) for plan in squeezed
            ]
            batch_stats = class_hierarchy.process_line_chunks_batch(
                splice_line_chunks(streams, offsets),
                len(streamed),
                footprint_bytes=sizes if dense else None,
            )
            for index, stats in zip(streamed, batch_stats):
                hierarchy_stats[index] = HierarchyStatistics(
                    *(classes * count for count in vars(stats).values())
                )
        return [
            PreparedPlan(plan=plan, stats=stats, hierarchy_stats=hier_stats)
            for plan, stats, hier_stats in zip(plans, stats_list, hierarchy_stats)
        ]

    def _class_hierarchy(self, classes: int) -> MemoryHierarchy:
        """The class geometry of ``classes`` set classes (cached)."""
        hierarchy = self._classes.get(classes)
        if hierarchy is None:
            hierarchy = self._classes[classes] = self.hierarchy.class_geometry(classes)
        return hierarchy

    def measure_prepared(self, prepared: PreparedPlan, rng: RandomState = None) -> Measurement:
        """Turn a :class:`PreparedPlan` into a measurement (noise draw included).

        ``measure(plan, rng=r)`` and ``measure_prepared(prepare(plan), rng=r)``
        produce bit-identical measurements.
        """
        return self._assemble(prepared.plan, prepared.stats, prepared.hierarchy_stats, rng)

    def measure(self, plan: Plan, rng: RandomState = None) -> Measurement:
        """Run ``plan`` once on cold caches and return the full measurement.

        ``rng`` overrides the machine's generator for the cycle-noise draw,
        which lets campaigns make every sample reproducible independently of
        execution order.
        """
        return self.measure_prepared(self.prepare(plan), rng=rng)

    def measure_instructions_only(self, plan: Plan) -> int:
        """Retired-instruction count without simulating the caches (fast)."""
        return self.config.instruction_model.instructions(analytic_stats(plan))

    def measure_wall_time(
        self,
        plan: Plan,
        repetitions: int = 1,
        trim_fraction: float | None = None,
    ) -> float:
        """Wall-clock seconds of actually executing the plan in Python.

        With the default ``trim_fraction=None`` the median of ``repetitions``
        runs is returned (the historical behaviour).  A fraction in
        ``[0, 0.5)`` instead drops that share of the sorted timings from
        *each* end and returns the mean of the rest — the trimmed-mean
        policy the ``wall_time`` metric stores (see
        :class:`repro.runtime.metrics.WallTimePolicy` and DESIGN.md §9),
        which damps scheduler outliers and makes records from different
        hosts comparable in spirit even though wall time is inherently
        non-deterministic.

        Included for completeness; as discussed in DESIGN.md, interpreted
        wall-clock time is dominated by Python overhead rather than the cache
        behaviour the paper studies, so the simulated cycle count is the
        primary performance metric of this reproduction.
        """
        check_positive_int(repetitions, "repetitions")
        if trim_fraction is not None and not 0.0 <= trim_fraction < 0.5:
            raise ValueError(
                f"trim_fraction must lie in [0, 0.5), got {trim_fraction}"
            )
        x = np.zeros(plan.size, dtype=np.float64)
        interpreter = PlanInterpreter()
        times: list[float] = []
        for _ in range(repetitions):
            x[:] = np.arange(plan.size, dtype=np.float64)
            start = time.perf_counter()
            interpreter.execute(plan, x)
            times.append(time.perf_counter() - start)
        times.sort()
        if trim_fraction is None:
            return times[len(times) // 2]
        drop = int(len(times) * trim_fraction)
        kept = times[drop : len(times) - drop]
        return sum(kept) / len(kept)

    # -- internals --------------------------------------------------------------

    def _assemble(
        self,
        plan: Plan,
        stats,
        hierarchy_stats: HierarchyStatistics,
        rng: RandomState,
    ) -> Measurement:
        breakdown = self.config.instruction_model.breakdown(stats)
        generator = self._rng if rng is None else as_generator(rng)
        cycles = self.config.cycle_model.cycles(
            stats,
            breakdown,
            l1_misses=hierarchy_stats.l1_misses,
            l2_misses=hierarchy_stats.l2_misses,
            rng=generator,
        )
        return Measurement(
            plan=plan,
            n=plan.n,
            cycles=cycles,
            instructions=breakdown.total,
            l1_misses=hierarchy_stats.l1_misses,
            l2_misses=hierarchy_stats.l2_misses,
            l1_accesses=hierarchy_stats.l1_accesses,
            breakdown=breakdown,
            stats=stats,
            machine=self.config.name,
        )
