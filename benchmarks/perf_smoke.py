"""CI perf smoke test for the measurement substrate and the search engine.

This is the repository's one perf gate script.  Each workload named in the
``BASELINE_SECONDS`` table below is timed once (the n=14 prepare and the
buffered 10k RSU sample: best of three) and gated at ``TIME_SLACK`` times
its entry; each gate prints its measured value next to its bound.  Layered speed numbers come from
``perfbench/`` (see ``BENCHMARK.json``), not from this script.

Runs a small but representative workload — `SimulatedMachine.prepare` of an
n=14 RSU plan on the Opteron-like geometry (big enough not to fit L1, so the
L1 simulation pipeline actually runs; n <= 13 footprints are resolved
analytically since the fused-pipeline rework) — and checks it against

* a generous absolute wall-time budget (to catch order-of-magnitude
  regressions such as an accidental fall-back to a per-access Python loop),
* its recorded baseline time and tracemalloc peak, with wide multipliers
  (CI machines vary; only gross regressions should fail), and
* a bit-exactness cross-check of the streaming pipeline against the eager
  reference pipeline, so a "fast but wrong" regression cannot pass.

It also gates the batched search engine (``check_search_budget``): the
engine-backed DP search must be bit-identical to the scalar per-candidate
search, must measure each distinct candidate exactly once on a cold store,
must resume from a warm store with zero measurements, and the vectorised
analytic models must match the scalar models on every enumerated plan for
n <= 7.  ``check_search_timings`` times the search layer's workloads: the
n=16 DP (scalar, engine-cold, engine-resume), the two-stage pruned search,
a 1000-plan measurement batch, 10k-sample model scoring and RSU sampling,
and a 10k-record store log.  The metric-first cost API is gated by
``check_multi_metric``: one measurement populates every hardware counter
metric, objective-based DP is bit-identical to the plain cycles path, and
the composite model objective reproduces the combined model over the full
enumerated n <= 8 space with zero hardware measurements.  The multi-tenant
campaign service is gated by ``check_service``: eight concurrent sessions
execute zero duplicate measurements (counter-verified), fan-out results are
bit-identical to one serial session, the cold service-mediated search stays
within 20% of the direct engine, and a warm service client measures nothing
and is at least 5x faster than the direct cold search.  The robustness
layer is gated by ``check_faults``: a clean run fires none of the retry
machinery, a chaotic run (injected backend failures, torn store tails, a
poisoned best plan) through a fallback-armed session stays bit-identical to
the fault-free search with the poison dead-lettered, and zero-rate
fault-injection hooks add < 5% to a cold DP.
The multi-host socket transport is gated by ``check_transport``: a
loopback-TCP DP (n=12) is bit-identical to the in-process service path,
executes zero duplicate or re-executed units over the wire, and stays
within 30% of the in-process service client.  The declarative suite runner
is gated by ``check_suite``: a cold run of the committed CI spec over a
fresh disk store completes and measures, and a warm re-run against the same
store performs zero new measurements, skips every unit, and finishes at
least 10x faster (best of three cold/warm pairs); a cold run whose
objective sweep re-draws both campaign populations prepares no plan twice.
The theory optimiser is gated by ``check_theory``: the n=20
instruction-count extremes stay polynomial (the plan-per-composition
enumeration it replaced took minutes there), and the n=13 extremes match
their pinned values.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py
"""

from __future__ import annotations

import gc
import operator
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

#: Absolute ceiling for the smoke workload.  The streaming pipeline runs it
#: in well under a second; the seed's eager pipeline took ~2 s; a per-access
#: Python loop regression lands in the minutes.
TIME_BUDGET_SECONDS = 60.0

#: Multipliers applied to the recorded baseline before failing.
TIME_SLACK = 15.0
MEMORY_SLACK = 10.0

#: One run of each timed workload, recorded on Linux x86_64 under CPython
#: 3.11.7.  Indicative numbers, not a cross-hardware contract: a workload
#: fails only when it takes more than ``TIME_SLACK`` times its entry.
BASELINE_SECONDS = {
    "prepare_n14_opteron": 0.0084,
    "dp_n14_scalar": 0.0443,
    "dp_n16_scalar": 0.2921,
    "dp_n16_engine_cold": 0.344,
    "dp_n16_engine_resume": 0.0015,
    "pruned_n14": 1.9377,
    "measure_batch_1k": 0.2509,
    "model_score_10k_scalar": 1.2654,
    "model_score_10k_batch": 0.4524,
    "sample_10k_scalar": 0.8441,
    "sample_10k_buffered": 0.0885,
    "append_log_10k_records": 0.2359,
    "dp_n14_direct_cold": 0.0975,
    "dp_n14_direct_warm": 0.0016,
    "dp_n14_service_cold": 0.0781,
    "dp_n14_service_warm": 0.0018,
    "fanout_8_sessions_n12": 0.0277,
    "sharded_append_10k": 0.1367,
    "theory_extremes_n20": 0.0027,
}
#: tracemalloc peak of the n=14 prepare, recorded with ``BASELINE_SECONDS``.
PREPARE_N14_PEAK_BYTES = 8_716_113
#: Ceiling on the tracemalloc peak of an n=18 RSU prepare on the
#: Opteron-like machine, and of streaming that plan's full-geometry trace
#: (``check_memory_n18``): the peak measured before sub-plan line streams
#: were memoised, which the chunked broadcast stream may not raise either.
PREPARE_N18_PEAK_BYTES = 28_401_987
#: Ceiling on the milliseconds per plan of a 40-plan RSU n=18 batch on the
#: Opteron-like machine (``check_rsu_n18_opteron``), the paper's geometry:
#: about 100 ms per plan when every set was simulated, 1.6 ms per plan with
#: one set class simulated for all 512.
RSU_N18_OPTERON_MS_PER_PLAN = 10.0

SMOKE_SIZE = 14
SMOKE_SEED = 7

#: Engine resume vs scalar DP at n=16.
RESUME_SPEEDUP_FLOOR = 10.0
#: Engine-cold DP must stay in the scalar search's ballpark: both ride the
#: fused pipeline (the engine adds record-keeping but fuses candidate
#: rounds), so a cold run drifting far past the scalar time means the batch
#: path itself regressed.  The margin absorbs run-to-run noise on loaded
#: machines.
COLD_VS_SCALAR_CEILING = 1.5
#: Absolute budgets for the batched-measurement workloads (the fused
#: pipeline runs both in roughly two seconds on one laptop core; the old
#: per-plan pipeline took ~7 s for the pruned search, so these catch a
#: fall-back to per-plan simulation while tolerating slow CI machines).
PRUNED_N14_BUDGET = 5.0
MEASURE_BATCH_1K_BUDGET = 2.0
MODEL_SCORE_10K_BUDGET = 1.0
SAMPLE_10K_BUDGET = 0.15
MODEL_SAMPLES = 10_000
MODEL_SIZE = 18

#: A cold service-mediated DP n=14 must stay within this multiple of the
#: direct cold engine (plus a small absolute grace for thread scheduling
#: jitter on loaded CI machines).
SERVICE_OVERHEAD_CEILING = 1.2
SERVICE_OVERHEAD_GRACE_SECONDS = 0.5
#: A warm service client resolves everything from the shared record cache.
WARM_SPEEDUP_FLOOR = 5.0
#: O(batch) sharded appends; a whole-log-rewrite regression lands far
#: beyond this.
SHARDED_APPEND_BUDGET = 2.0
#: 10,000 repeated-plan appends that fire the 8x compaction trigger twelve
#: times (each a read-merge-rewrite of a 900-line log under its lock).
SHARDED_COMPACT_BUDGET = 5.0

_COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}


def gate(name: str, value: float, op: str, bound: float, unit: str = "s") -> None:
    """Print a measured value next to its bound; exit if the bound fails."""
    print(f"{name}: {value:.3f} {unit} (gate {op} {bound:.3f} {unit})")
    if not _COMPARE[op](value, bound):
        raise SystemExit(
            f"perf regression: {name} = {value:.3f} {unit}, required {op} "
            f"{bound:.3f} {unit}"
        )


def timed(name: str, fn, runs: int = 1):
    """Run ``fn`` ``runs`` times; gate the best wall time at ``TIME_SLACK`` x
    its baseline.

    A full garbage collection runs before each run, so that a cyclic-GC
    pass owed to the objects earlier work allocated does not fall inside the
    window: with several hundred thousand objects alive, one such pass
    tripled the 0.1 s ``sample_10k_buffered``.  Returns ``(result of the
    last run, best seconds)``.
    """
    seconds = float("inf")
    for _ in range(runs):
        gc.collect()
        start = time.perf_counter()
        out = fn()
        seconds = min(seconds, time.perf_counter() - start)
    gate(name, seconds, "<=", BASELINE_SECONDS[name] * TIME_SLACK)
    return out, seconds


class CountingBackend:
    """Counts executed units so dedup is verified, not inferred."""

    name = "counting"

    def __init__(self):
        from repro.runtime.backends import BatchedBackend

        self.inner = BatchedBackend()
        self.lock = threading.Lock()
        self.executed = []

    def measure_units(self, machine, units):
        from repro.runtime.store import machine_config_hash
        from repro.wht.encoding import plan_key

        with self.lock:
            digest = machine_config_hash(machine.config)
            self.executed.extend(
                (digest, plan_key(unit.plan), unit.noise_seed) for unit in units
            )
        return self.inner.measure_units(machine, units)


def eager_stats(config, plan):
    """Hierarchy statistics of ``plan`` from the eager reference pipeline.

    The plan's fully materialised access trace runs through the scalar
    (non-vectorised) caches: L1 sees each access's line and L2 the first
    byte of each missing L1 line, so the check shares no line conversion
    with the hierarchy it checks.
    """
    from repro.machine.cache import SetAssociativeLRUCache
    from repro.machine.hierarchy import HierarchyStatistics
    from repro.machine.trace import collapse_consecutive, trace_from_nests
    from repro.wht.interpreter import PlanInterpreter

    _, nests = PlanInterpreter().profile(plan, record_trace=True)
    trace = trace_from_nests(nests, element_size=config.element_size)
    # Consecutive repeats of a line are hits that change no LRU state.
    lines, _ = collapse_consecutive(config.l1.line_of(trace.addresses))
    l1_misses = lines[SetAssociativeLRUCache(config.l1).simulate(lines)]
    if config.l2 is None:
        return HierarchyStatistics(trace.accesses, l1_misses.shape[0], 0, 0)
    probes = config.l2.line_of(l1_misses * config.l1.line_size)
    l2_misses = int(SetAssociativeLRUCache(config.l2).simulate(probes).sum())
    return HierarchyStatistics(trace.accesses, l1_misses.shape[0], probes.shape[0], l2_misses)


def streamed_stats(config, plan):
    """Hierarchy statistics of ``plan`` from its own unelided line stream.

    The per-plan streamed pipeline: no repeated-pass elision, no set
    classes, no analytic shortcuts, and a one-plan splice.  Unlike
    :func:`eager_stats` it never materialises the trace, so it stays cheap
    at n=16.
    """
    from repro.machine.hierarchy import MemoryHierarchy
    from repro.machine.trace import stream_line_chunks

    hierarchy = MemoryHierarchy(config.l1, config.l2, vectorized=config.vectorized_caches)
    return hierarchy.process_line_chunks(
        stream_line_chunks(
            plan, line_size=config.l1.line_size, element_size=config.element_size
        )
    )


def append_10k_records(store, keys):
    """Append 10,000 cost records in 100 batches, round-robin over ``keys``.

    Returns each key's records as read back.
    """
    for batch_index in range(100):
        store.append_cost_records(
            keys[batch_index % len(keys)],
            {
                f"plan-{batch_index}-{i}": {
                    "cycles": float(i),
                    "instructions": float(i * 3),
                }
                for i in range(100)
            },
        )
    records = [store.get_cost_records(key) for key in keys]
    assert sum(len(logged) for logged in records) == 10_000
    return records


def append_10k_repeats(store, keys):
    """Append 10,000 cost records in 100 batches, round-robin over ``keys``,
    each batch re-recording the same 100 plans with a new ``cycles`` value.

    Each key's log gains 25 lines per plan, so a store with
    ``auto_compact=8`` compacts it after its 9th, 17th and 25th batch.
    """
    for batch_index in range(100):
        store.append_cost_records(
            keys[batch_index % len(keys)],
            {
                f"plan-{i}": {"cycles": float(batch_index), "instructions": float(i * 3)}
                for i in range(100)
            },
        )


def run_smoke():
    """Time and trace the n=14 prepare; returns (seconds, peak_bytes, stats).

    One untimed warmup absorbs first-touch effects (imports, allocator,
    NumPy lazy setup) and the reported time is the best of three runs, so a
    momentarily loaded CI runner does not fail the gate spuriously.  Each
    run prepares on a fresh machine, so no run reuses another's cached
    class geometry.
    """
    from repro.machine.configs import opteron_like
    from repro.wht.random_plans import RSUSampler

    plan = RSUSampler().sample(SMOKE_SIZE, rng=SMOKE_SEED)

    prepared = opteron_like(noise_sigma=0.0).prepare(plan)  # warmup
    seconds = float("inf")
    for _ in range(3):
        machine = opteron_like(noise_sigma=0.0)
        start = time.perf_counter()
        prepared = machine.prepare(plan)
        seconds = min(seconds, time.perf_counter() - start)

    machine = opteron_like(noise_sigma=0.0)
    tracemalloc.start()
    traced = machine.prepare(plan)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert traced.hierarchy_stats == prepared.hierarchy_stats
    return seconds, int(peak), prepared.hierarchy_stats


def check_memory_n18() -> None:
    """The n=18 prepare stays within its recorded memory and chunk bounds.

    An RSU plan of size 2^18 on the Opteron-like machine streams about 10^6
    lines at full geometry.  The prepare simulates one set class only, so
    both its tracemalloc peak and that of the full-geometry stream (with
    write-pass elision, as the machine streams) must stay within
    ``PREPARE_N18_PEAK_BYTES``; no line chunk may hold more than
    ``DEFAULT_CHUNK_ACCESSES`` raw accesses (a plan past the budget
    streams its root's children in blocks of invocations that fit it).
    Spliced across three such plans, as a batch is, no spliced chunk may
    hold more than ``DEFAULT_CHUNK_ACCESSES`` lines (a chunk flushes before
    a segment would pass the budget).
    """
    from repro.machine.configs import opteron_like
    from repro.machine.trace import (
        DEFAULT_CHUNK_ACCESSES,
        splice_line_chunks,
        stream_line_chunks,
    )
    from repro.wht.random_plans import RSUSampler

    plan = RSUSampler().sample(18, rng=SMOKE_SEED)
    machine = opteron_like(noise_sigma=0.0)
    tracemalloc.start()
    machine.prepare(plan)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    gate("prepare_n18_opteron_peak", peak / 1e6, "<=", PREPARE_N18_PEAK_BYTES / 1e6, unit="MB")
    config = machine.config

    def stream(plan):
        return stream_line_chunks(
            plan, config.l1.line_size, config.element_size, l1=config.l1
        )

    tracemalloc.start()
    largest = max(chunk.accesses for chunk in stream(plan))
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    gate("stream_n18_opteron_peak", peak / 1e6, "<=", PREPARE_N18_PEAK_BYTES / 1e6, unit="MB")
    gate("prepare_n18_chunk_accesses", largest, "<=", DEFAULT_CHUNK_ACCESSES, unit="accesses")
    plans = [plan, *(RSUSampler().sample(18, rng=SMOKE_SEED + seed) for seed in (1, 2))]
    offsets = machine.hierarchy.batch_line_offsets(
        [plan.size * config.element_size // config.l1.line_size for plan in plans]
    )
    streams = [stream(plan) for plan in plans]
    spliced = max(chunk.lines.shape[0] for chunk in splice_line_chunks(streams, offsets))
    gate("prepare_n18_spliced_lines", spliced, "<=", DEFAULT_CHUNK_ACCESSES, unit="lines")


def check_rsu_n18_opteron() -> None:
    """A 40-plan RSU n=18 batch on the Opteron-like machine prepares within
    ``RSU_N18_OPTERON_MS_PER_PLAN`` per plan (a fresh machine, cold)."""
    from repro.machine.configs import opteron_like
    from repro.wht.random_plans import random_plans

    plans = random_plans(18, 40, rng=SMOKE_SEED)
    machine = opteron_like(noise_sigma=0.0)
    start = time.perf_counter()
    machine.prepare_batch(plans)
    per_plan = (time.perf_counter() - start) / len(plans) * 1e3
    gate("prepare_rsu_n18_opteron", per_plan, "<=", RSU_N18_OPTERON_MS_PER_PLAN, unit="ms/plan")


def check_exactness() -> None:
    """Streaming pipeline must be bit-identical to the eager reference.

    The default machine's n=14 plan overflows its 16-way, 64-set L2, so a
    real strided WHT L2 stream goes through the N-way classifier.  The
    other cases keep the plans and geometries that once exercised the
    trace builder's folds and template residues: runs of codelet calls
    that thrash L1 but fit L2 (default machine, ``random_plan(14,
    rng=2)``) or thrash both levels (tiny machine, ``random_plan(11,
    rng=1)``), repeated sub-plan invocations (``random_plan(14, rng=1)``
    on the default machine, ``random_plan(11, rng=0)`` on the tiny machine
    without its L2), and child strides below a line (``random_plan(12,
    rng=1)``).  The last runs the tiny machine with 64-byte L2 lines, twice
    its L1 lines: every preset has equal line sizes, so only that case
    converts L1 lines to L2 lines.

    Every preset must simulate one set class for all: 64 on the default
    machine, 512 on ``opteron`` and 4 on the tiny machine, with the
    statistics of the full geometry's own stream (:func:`stream_line_chunks`
    with write-pass elision, in chunks, on a :class:`MemoryHierarchy` of
    the preset's caches).  The default machine at n=16 squeezes to 2^10
    elements, the largest class stream of the four.
    """
    from dataclasses import replace

    from repro.machine.cache import CacheConfig
    from repro.machine.configs import (
        default_machine,
        opteron_like,
        tiny_machine,
        tiny_machine_config,
    )
    from repro.machine.hierarchy import MemoryHierarchy
    from repro.machine.machine import SimulatedMachine
    from repro.machine.trace import stream_line_chunks
    from repro.wht.random_plans import random_plan

    l1_only = SimulatedMachine(replace(tiny_machine_config(), l2=None))
    coarse_l2 = SimulatedMachine(
        replace(tiny_machine_config(), l2=CacheConfig(2048, 64, 4, name="L2"))
    )
    cases = [
        *((tiny_machine(), 8, seed) for seed in range(3)),
        *((opteron_like(noise_sigma=0.0), 9, seed) for seed in range(3)),
        (default_machine(noise_sigma=0.0), 14, 0),
        (default_machine(noise_sigma=0.0), 14, 2),
        (tiny_machine(), 11, 1),
        (default_machine(noise_sigma=0.0), 14, 1),
        (l1_only, 11, 0),
        (default_machine(noise_sigma=0.0), 12, 1),
        (coarse_l2, 11, 3),
    ]
    for machine, size, seed in cases:
        config = machine.config
        plan = random_plan(size, rng=seed)
        streamed = machine.prepare(plan).hierarchy_stats
        eager = eager_stats(config, plan)
        if streamed != eager:
            raise SystemExit(
                f"exactness regression: streamed {streamed} != eager {eager} "
                f"({config.name}, n={size}, seed={seed})"
            )
    for machine, size, classes in (
        (default_machine(noise_sigma=0.0), 14, 64),
        (opteron_like(noise_sigma=0.0), 15, 512),
        (tiny_machine(), 9, 4),
        (default_machine(noise_sigma=0.0), 16, 64),
    ):
        config = machine.config
        plan = random_plan(size, rng=0)
        reduced = machine.prepare(plan).hierarchy_stats
        chunks = stream_line_chunks(
            plan, config.l1.line_size, config.element_size, l1=config.l1
        )
        full = MemoryHierarchy(config.l1, config.l2).process_line_chunks(chunks)
        if list(machine._classes) != [classes] or reduced != full:
            raise SystemExit(
                f"set-class regression: {list(machine._classes)} classes, {reduced} "
                f"!= full geometry {full} ({config.name}, n={size}; want {classes} classes)"
            )


def per_plan_cycles(config):
    """The scalar DP reference: one ``measure`` per candidate, no engine.

    ``config`` must be noise-free, so the engine's per-plan noise seeding
    cannot make the two differ.
    """
    from repro.machine.machine import SimulatedMachine

    machine = SimulatedMachine(config)
    return lambda plan: float(machine.measure(plan).cycles)


def check_search_budget() -> None:
    """Batched search must be exact and must respect its measurement budget.

    Three gates on a small measured-cycles DP search (n=12, Opteron-like,
    noise-free):

    * the engine-backed search is bit-identical to the scalar per-candidate
      search;
    * a cold engine measures exactly one preparation per distinct candidate
      (the search's measurement budget — no hidden re-measurement);
    * a second engine over the same store resumes with *zero* measurements
      and identical results (the persistent cost cache works).

    Plus batch-vs-scalar parity of both analytic models over every
    enumerated plan for n <= 7, so the vectorised stage-1 scoring of the
    pruned search cannot silently drift.
    """
    from repro.machine.configs import opteron_like
    from repro.machine.machine import SimulatedMachine
    from repro.models.cache_misses import CacheMissModel
    from repro.models.instruction_count import InstructionCountModel
    from repro.runtime.cost_engine import CostEngine
    from repro.runtime.store import MemoryStore
    from repro.search.dp import dp_search
    from repro.wht.encoding import encode_plans
    from repro.wht.enumeration import enumerate_plans

    config = opteron_like(noise_sigma=0.0).config
    scalar = dp_search(12, per_plan_cycles(config))

    store = MemoryStore()
    cold_engine = CostEngine(SimulatedMachine(config), store=store)
    cold = dp_search(12, cold_engine)
    if cold.best_plans != scalar.best_plans or cold.best_costs != scalar.best_costs:
        raise SystemExit("search exactness regression: engine DP differs from scalar DP")
    if cold_engine.measured != scalar.evaluations:
        raise SystemExit(
            f"search budget regression: engine measured {cold_engine.measured} "
            f"candidates, scalar measured {scalar.evaluations}"
        )

    warm_engine = CostEngine(SimulatedMachine(config), store=store)
    warm = dp_search(12, warm_engine)
    if warm.best_plans != scalar.best_plans or warm.best_costs != scalar.best_costs:
        raise SystemExit("search exactness regression: resumed DP differs from scalar DP")
    if warm_engine.measured != 0:
        raise SystemExit(
            f"cost-cache regression: resumed search re-measured "
            f"{warm_engine.measured} candidates"
        )

    instruction_model = InstructionCountModel()
    miss_model = CacheMissModel.from_machine_config(config, level="l1")
    for n in range(1, 8):
        plans = list(enumerate_plans(n))
        encoded = encode_plans(plans)
        instr = instruction_model.count_batch(encoded)
        misses = miss_model.misses_batch(encoded)
        for index, plan in enumerate(plans):
            if int(instr[index]) != instruction_model.count(plan):
                raise SystemExit(f"batch instruction model mismatch on {plan}")
            if int(misses[index]) != miss_model.misses(plan):
                raise SystemExit(f"batch miss model mismatch on {plan}")


def check_batch_identity() -> None:
    """The cross-plan fused batch pipeline must be exact.

    ``prepare_batch`` — repeated-pass elision, analytic full-coverage
    statistics, spliced super-stream simulation with per-plan segmentation —
    must reproduce the eager reference pipeline's HierarchyStatistics for
    every enumerated plan (n <= 6, one mixed batch) and for random larger
    plans, on both the tiny and the Opteron-like geometry.

    On the two gated campaign shapes — a sample of the n=16 DP candidates
    (compositions of a DP's best sub-plans) and pruned-style n=14 RSU
    survivors — it must reproduce each plan's own unelided line stream on
    the Opteron-like geometry.
    """
    from repro.machine.configs import opteron_like, tiny_machine
    from repro.machine.machine import SimulatedMachine
    from repro.runtime.cost_engine import CostEngine
    from repro.search.dp import dp_search
    from repro.wht.enumeration import enumerate_plans
    from repro.wht.random_plans import random_plan, random_plans

    for machine, sizes in (
        (tiny_machine(), (7, 8)),
        (opteron_like(noise_sigma=0.0), (9, 10)),
    ):
        config = machine.config
        plans = [plan for n in range(1, 7) for plan in enumerate_plans(n)]
        plans += [random_plan(size, rng=seed) for size in sizes for seed in range(2)]
        batch = SimulatedMachine(config).prepare_batch(plans)
        for plan, prepared in zip(plans, batch):
            eager = eager_stats(config, plan)
            if prepared.hierarchy_stats != eager:
                raise SystemExit(
                    f"batch identity regression: prepare_batch "
                    f"{prepared.hierarchy_stats} != eager {eager} "
                    f"({config.name}, {plan})"
                )

    config = opteron_like(noise_sigma=0.0).config
    model_dp = dp_search(16, CostEngine(SimulatedMachine(config)).cost("model_instructions"))
    dp_candidates = list({str(record.plan): record.plan for record in model_dp.candidates}.values())
    samples = dp_candidates[:: max(len(dp_candidates) // 24, 1)] + random_plans(
        14, 12, rng=19
    )
    for plan, prepared in zip(samples, SimulatedMachine(config).prepare_batch(samples)):
        if prepared.hierarchy_stats != streamed_stats(config, plan):
            raise SystemExit(
                f"batch parity regression: prepare_batch HierarchyStatistics "
                f"differ from the per-plan pipeline on {plan}"
            )


def check_search_timings() -> None:
    """The search layer's timed workloads (Opteron-like, noise-free).

    Each workload is gated at ``TIME_SLACK`` x its baseline.  On top of
    that:

    * DP n=16 through a second engine over the populated store (zero
      measurements) is >= ``RESUME_SPEEDUP_FLOOR`` x faster than the scalar
      per-candidate search, and the engine-cold DP takes at most
      ``COLD_VS_SCALAR_CEILING`` x the scalar time, each side the best of
      three runs (every cold run on a fresh store and engine); both are
      bit-identical to it;
    * the paper's two-stage search (1000 RSU candidates, n=14) and a cold
      1000-plan ``CostEngine.records`` batch (n=12) stay within absolute
      budgets that catch a fall-back to per-plan simulation;
    * one shared encoding scoring 10,000 RSU samples of size 2^18 with both
      vectorised models stays under 1 s and equals the per-plan recursion;
    * the buffered bit-stream RSU sampler draws 10,000 size-2^18 plans in
      under 0.15 s, identical to one ``Generator.random`` call per node;
    * 10,000 cost records appended to a DiskStore log in 100 batches, read
      back and compacted (the O(batch) append path).
    """
    from repro.machine.configs import opteron_like
    from repro.machine.machine import SimulatedMachine
    from repro.models.cache_misses import CacheMissModel
    from repro.models.instruction_count import InstructionCountModel
    from repro.runtime.cost_engine import CostEngine
    from repro.runtime.store import CostLogKey, DiskStore, MemoryStore
    from repro.search.dp import dp_search
    from repro.search.pruned import ModelPrunedSearch
    from repro.wht.encoding import encode_plans
    from repro.wht.random_plans import RSUSampler

    config = opteron_like(noise_sigma=0.0).config

    scalar14, _ = timed(
        "dp_n14_scalar",
        lambda: dp_search(14, per_plan_cycles(config)),
    )
    # Both sides of the cold-vs-scalar ratio are the best of three runs, so
    # a single scheduling stall on a shared host does not decide it.
    scalar16, scalar_seconds = timed(
        "dp_n16_scalar",
        lambda: dp_search(16, per_plan_cycles(config)),
        runs=3,
    )
    stores: list[MemoryStore] = []

    def cold_search():
        # A fresh store and engine per run, so no run is warm; the resume
        # engine below reads the last run's store.
        stores.append(MemoryStore())
        return dp_search(16, CostEngine(SimulatedMachine(config), store=stores[-1]))

    cold, cold_seconds = timed("dp_n16_engine_cold", cold_search, runs=3)
    # The engine loads the store's records once; every run resumes from
    # them, so the best of three is the same work as one run.
    resume_engine = CostEngine(SimulatedMachine(config), store=stores[-1])
    resumed, resume_seconds = timed(
        "dp_n16_engine_resume", lambda: dp_search(16, resume_engine), runs=3
    )
    for result, label in ((cold, "engine-cold"), (resumed, "resumed")):
        if result.best_plans != scalar16.best_plans or result.best_costs != scalar16.best_costs:
            raise SystemExit(
                f"search exactness regression: {label} DP n=16 differs from scalar DP"
            )
    if resume_engine.measured != 0:
        raise SystemExit(
            f"cost-cache regression: resumed DP n=16 re-measured "
            f"{resume_engine.measured} candidates"
        )
    if scalar14.best_plans[14] != scalar16.best_plans[14]:
        raise SystemExit("search exactness regression: DP n=14 and n=16 disagree at n=14")
    gate(
        "dp_n16_resume_speedup",
        scalar_seconds / max(resume_seconds, 1e-9),
        ">=",
        RESUME_SPEEDUP_FLOOR,
        unit="x",
    )
    gate(
        "dp_n16_engine_cold",
        cold_seconds,
        "<=",
        COLD_VS_SCALAR_CEILING * scalar_seconds,
    )

    engine = CostEngine(SimulatedMachine(config), store=MemoryStore())
    _, seconds = timed(
        "pruned_n14",
        lambda: ModelPrunedSearch(
            model_cost=engine.cost("model_instructions"),
            measure_cost=engine,
            samples=1000,
            keep_fraction=0.25,
        ).search(14, rng=0),
    )
    gate("pruned_n14", seconds, "<", PRUNED_N14_BUDGET)

    batch_plans = list(
        {str(plan): plan for plan in RSUSampler().sample_many(12, 2000, rng=23)}.values()
    )[:1000]
    batch_engine = CostEngine(SimulatedMachine(config), store=MemoryStore())
    _, seconds = timed(
        "measure_batch_1k", lambda: batch_engine.records(batch_plans, ("cycles",))
    )
    gate("measure_batch_1k", seconds, "<", MEASURE_BATCH_1K_BUDGET)
    if batch_engine.measured != len(batch_plans):
        raise SystemExit(
            f"batch measurement regression: {batch_engine.measured} measurements "
            f"for {len(batch_plans)} distinct plans"
        )

    sampler = RSUSampler()
    rng = np.random.default_rng(0)
    plans = [sampler.sample(MODEL_SIZE, rng) for _ in range(MODEL_SAMPLES)]
    instruction_model = InstructionCountModel()
    miss_model = CacheMissModel.from_machine_config(config, level="l1")
    scalar_scores, _ = timed(
        "model_score_10k_scalar",
        lambda: (
            [instruction_model.count(plan) for plan in plans],
            [miss_model.misses(plan) for plan in plans],
        ),
    )

    def batch_scores():
        encoded = encode_plans(plans)
        return instruction_model.count_batch(encoded), miss_model.misses_batch(encoded)

    batch_values, seconds = timed("model_score_10k_batch", batch_scores)
    gate("model_score_10k_batch", seconds, "<", MODEL_SCORE_10K_BUDGET)
    for batch, scalar in zip(batch_values, scalar_scores):
        if not np.array_equal(batch, np.asarray(scalar)):
            raise SystemExit("model scoring regression: batch scores differ from scalar")

    def scalar_samples():
        generator = np.random.default_rng(11)
        one_at_a_time = RSUSampler()
        return [one_at_a_time.sample(MODEL_SIZE, generator) for _ in range(MODEL_SAMPLES)]

    scalar_drawn, _ = timed("sample_10k_scalar", scalar_samples)
    # Best of three: an absolute 0.15 s budget leaves little room for
    # scheduling noise on a shared host.
    buffered_drawn, seconds = timed(
        "sample_10k_buffered",
        lambda: RSUSampler().sample_many(MODEL_SIZE, MODEL_SAMPLES, rng=11),
        runs=3,
    )
    gate("sample_10k_buffered", seconds, "<", SAMPLE_10K_BUDGET)
    if buffered_drawn != scalar_drawn:
        raise SystemExit("sampler regression: buffered RSU draws differ from scalar draws")

    def append_log():
        with tempfile.TemporaryDirectory() as tmp:
            store = DiskStore(tmp)
            key = CostLogKey(machine_hash="bench", seed=0)
            [records] = append_10k_records(store, [key])
            store.compact_cost_records(key)
            assert store.get_cost_records(key) == records

    timed("append_log_10k_records", append_log)


def check_multi_metric() -> None:
    """The metric-first cost API must be exact and measurement-frugal.

    Three gates:

    * one ``measure`` call populates **every** hardware counter metric: after
      a single measurement, any subset of counter metrics is served with zero
      further measurements, and each value equals the direct measurement;
    * the objective-based DP search (``engine.cost("cycles")``) is
      bit-identical to the engine's plain cycles path (and hence to the
      scalar search, which ``check_search_budget`` already pins);
    * the composite model objective ``1.00 * model_instructions +
      0.05 * model_l1_misses`` reproduces the combined-model values (and
      therefore the ranking) of ``repro.models.combined`` over the entire
      enumerated space for n <= 8 — with zero hardware measurements.
    """
    from repro.machine.configs import opteron_like
    from repro.machine.machine import SimulatedMachine
    from repro.models.cache_misses import CacheMissModel
    from repro.models.combined import CombinedModel
    from repro.models.instruction_count import InstructionCountModel
    from repro.runtime.cost_engine import CostEngine
    from repro.runtime.metrics import counter_metric_names
    from repro.runtime.objectives import WeightedObjective
    from repro.runtime.store import MemoryStore
    from repro.search.dp import dp_search
    from repro.wht.enumeration import enumerate_plans
    from repro.wht.random_plans import random_plan

    config = opteron_like(noise_sigma=0.0).config

    engine = CostEngine(SimulatedMachine(config))
    plan = random_plan(10, rng=3)
    records = engine.records([plan], counter_metric_names())
    if engine.measured != 1:
        raise SystemExit(
            f"multi-metric regression: {engine.measured} measurements to "
            "populate the counter metrics (expected 1)"
        )
    reference = SimulatedMachine(config).measure(plan)
    for name in counter_metric_names():
        if records[0][name] != float(getattr(reference, name)):
            raise SystemExit(f"multi-metric regression: {name} mismatch")
    engine.records([plan], ("instructions", "l2_misses"))
    if engine.measured != 1:
        raise SystemExit("multi-metric regression: metric subset re-measured")

    store = MemoryStore()
    plain = dp_search(10, CostEngine(SimulatedMachine(config), store=store))
    objective_engine = CostEngine(SimulatedMachine(config), store=MemoryStore())
    objective = dp_search(10, objective_engine.cost("cycles"))
    if (
        objective.best_plans != plain.best_plans
        or objective.best_costs != plain.best_costs
    ):
        raise SystemExit(
            "objective regression: objective-based DP differs from the "
            "engine cycles path"
        )

    model_engine = CostEngine(SimulatedMachine(config))
    composite = model_engine.cost(WeightedObjective.model_combined(alpha=1.0, beta=0.05))
    instruction_model = InstructionCountModel(config.instruction_model)
    miss_model = CacheMissModel.from_machine_config(config, level="l1")
    combined = CombinedModel(alpha=1.0, beta=0.05)
    for n in range(1, 9):
        plans = list(enumerate_plans(n))
        values = composite.batch(plans)
        for plan, value in zip(plans, values):
            expected = combined.value(
                instruction_model.count(plan), miss_model.misses(plan)
            )
            if value != expected:
                raise SystemExit(
                    f"objective regression: composite objective {value} != "
                    f"combined model {expected} on {plan}"
                )
    if model_engine.measured != 0:
        raise SystemExit(
            "objective regression: model objective performed "
            f"{model_engine.measured} hardware measurements"
        )


def check_service() -> None:
    """The campaign service must dedupe exactly and add near-zero overhead.

    Gates on the multi-tenant measurement service (Opteron-like,
    noise-free):

    * eight concurrent connected sessions running the same DP n=12 search
      execute **zero** duplicate ``(machine_hash, plan_key, noise_seed)``
      units — counter-verified at the backend, not inferred from stats — and
      exactly as many real measurements as ONE serial engine-backed session;
    * every fan-out result is bit-identical to the serial session's;
    * a cold service-mediated DP n=14 takes at most
      ``SERVICE_OVERHEAD_CEILING`` x the direct :class:`CostEngine` plus
      ``SERVICE_OVERHEAD_GRACE_SECONDS``, and a second (warm) client of the
      same service measures nothing, is >= ``WARM_SPEEDUP_FLOOR`` x faster
      than the direct cold run, and both service results are bit-identical
      to the direct engine's (one run each);
    * a cold service-mediated DP n=10 stays within 20% of the direct engine
      (best of three, plus a small absolute grace for thread-scheduling
      jitter): the queue/dispatch layer must be thin;
    * 10,000 records of distinct plans appended across four keys of a
      :class:`ShardedRecordStore` and read back take under
      ``SHARDED_APPEND_BUDGET`` seconds (one line per plan: no log reaches
      the 8x compaction trigger);
    * 10,000 records that repeat 100 plans per key, appended the same way,
      fire the trigger: afterwards every log holds one line per plan, reads
      back what a :class:`MemoryStore` fed the same batches holds, and the
      run takes under ``SHARDED_COMPACT_BUDGET`` seconds.
    """
    from repro.machine.configs import opteron_like
    from repro.machine.machine import SimulatedMachine
    from repro.runtime.cost_engine import CostEngine
    from repro.runtime.service import CampaignService
    from repro.runtime.session import Session, session
    from repro.runtime.sharded_store import ShardedRecordStore
    from repro.runtime.store import CostLogKey, MemoryStore
    from repro.search.dp import dp_search

    config = opteron_like(noise_sigma=0.0).config

    counting = CountingBackend()
    with CampaignService(backend=counting, workers=4) as service:
        sessions = [Session.connect(service, machine=config) for _ in range(8)]
        results = [None] * len(sessions)

        def fan_out():
            def run(index):
                results[index] = sessions[index].search(12)

            threads = [
                threading.Thread(target=run, args=(index,))
                for index in range(len(sessions))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        timed("fanout_8_sessions_n12", fan_out)
        if service.stats().failures:
            raise SystemExit("service regression: worker failures during fan-out")

    if len(set(counting.executed)) != len(counting.executed):
        raise SystemExit(
            "service dedup regression: duplicate unit executions across "
            "concurrent sessions"
        )
    serial = session(machine=config)
    reference = serial.search(12)
    for result in results:
        if (
            str(result.best_plan) != str(reference.best_plan)
            or result.best_cost != reference.best_cost
        ):
            raise SystemExit(
                "service exactness regression: fan-out DP differs from the "
                "serial session"
            )
    if len(counting.executed) != serial.cost_engine().measured:
        raise SystemExit(
            f"service dedup regression: 8 sessions executed "
            f"{len(counting.executed)} units, one serial session needs "
            f"{serial.cost_engine().measured}"
        )

    store = MemoryStore()
    direct_cold, direct_seconds = timed(
        "dp_n14_direct_cold",
        lambda: dp_search(14, CostEngine(SimulatedMachine(config), store=store)),
    )
    direct_warm_engine = CostEngine(SimulatedMachine(config), store=store)
    direct_warm, _ = timed("dp_n14_direct_warm", lambda: dp_search(14, direct_warm_engine))
    if direct_warm_engine.measured != 0 or direct_warm.best_plans != direct_cold.best_plans:
        raise SystemExit("cost-cache regression: warm direct DP n=14 re-measured or differs")
    with CampaignService(workers=2) as service:
        cold_client = service.client(config)
        service_cold, cold_seconds = timed(
            "dp_n14_service_cold", lambda: dp_search(14, cold_client)
        )
        warm_client = service.client(config)
        service_warm, warm_seconds = timed(
            "dp_n14_service_warm", lambda: dp_search(14, warm_client)
        )
        if warm_client.measured != 0:
            raise SystemExit(
                f"service cache regression: warm client measured "
                f"{warm_client.measured} candidates"
            )
    for result, label in ((service_cold, "cold"), (service_warm, "warm")):
        if (
            result.best_plans != direct_cold.best_plans
            or result.best_costs != direct_cold.best_costs
        ):
            raise SystemExit(
                f"service exactness regression: {label} service DP "
                "differs from the direct engine"
            )
    gate(
        "dp_n14_service_cold",
        cold_seconds,
        "<=",
        SERVICE_OVERHEAD_CEILING * direct_seconds + SERVICE_OVERHEAD_GRACE_SECONDS,
    )
    gate(
        "service_warm_speedup",
        direct_seconds / max(warm_seconds, 1e-9),
        ">=",
        WARM_SPEEDUP_FLOOR,
        unit="x",
    )

    # Overhead gate: best-of-three cold runs on each path.
    def time_direct():
        engine = CostEngine(SimulatedMachine(config), store=MemoryStore())
        start = time.perf_counter()
        dp_search(10, engine)
        return time.perf_counter() - start

    def time_service():
        with CampaignService(workers=2) as fresh:
            client = fresh.client(config)
            start = time.perf_counter()
            dp_search(10, client)
            return time.perf_counter() - start

    time_direct(), time_service()  # warmup
    direct = min(time_direct() for _ in range(3))
    mediated = min(time_service() for _ in range(3))
    if mediated > direct * 1.2 + 0.3:
        raise SystemExit(
            f"service overhead regression: service-mediated DP took "
            f"{mediated:.3f} s > 1.2x the direct engine's {direct:.3f} s "
            f"(+0.3 s grace)"
        )

    def sharded_append():
        with tempfile.TemporaryDirectory() as tmp, ShardedRecordStore(tmp) as sharded:
            keys = [CostLogKey(machine_hash=f"bench-{shard}", seed=shard) for shard in range(4)]
            append_10k_records(sharded, keys)

    _, seconds = timed("sharded_append_10k", sharded_append)
    gate("sharded_append_10k", seconds, "<", SHARDED_APPEND_BUDGET)

    keys = [CostLogKey(machine_hash=f"bench-{shard}", seed=shard) for shard in range(4)]
    reference = MemoryStore()
    append_10k_repeats(reference, keys)
    with tempfile.TemporaryDirectory() as tmp, ShardedRecordStore(tmp) as sharded:
        gc.collect()
        start = time.perf_counter()
        append_10k_repeats(sharded, keys)
        seconds = time.perf_counter() - start
        if [sharded.get_cost_records(key) for key in keys] != [
            reference.get_cost_records(key) for key in keys
        ]:
            raise SystemExit("compaction regression: compacted logs read back other records")
        stats = sharded.shard_stats()
    gate("sharded_compact_10k_logs", len(stats), "==", len(keys), unit="logs")
    gate(
        "sharded_compact_10k_lines",
        sum(stat.record_lines for stat in stats),
        "==",
        sum(stat.distinct_plans for stat in stats),
        unit="lines",
    )
    gate("sharded_compact_10k", seconds, "<", SHARDED_COMPACT_BUDGET)


def check_faults() -> None:
    """Fault injection must be free when idle and harmless when active.

    Three gates on the robustness layer (DESIGN.md §12):

    * a **zero-rate** :class:`FaultyBackend` adds < 5% overhead (plus a
      small absolute grace) to a cold engine-backed DP — the injection
      hooks must cost nothing on the clean path;
    * a clean service run schedules zero retries and quarantines nothing —
      the failure discipline must not fire without failures;
    * a chaotic run (~20% backend failures, torn store tails, the
      fault-free best plan poisoned) through a fallback-armed session is
      **bit-identical** to the fault-free serial search, with the poison
      batch dead-lettered.
    """
    from repro.machine.configs import opteron_like, tiny_machine_config
    from repro.machine.machine import SimulatedMachine
    from repro.runtime.backends import BatchedBackend
    from repro.runtime.cost_engine import CostEngine
    from repro.runtime.faults import FaultPlan, FaultSpec, FaultyBackend, FaultyStore
    from repro.runtime.service import CampaignService
    from repro.runtime.session import Session, session
    from repro.runtime.store import MemoryStore
    from repro.search.dp import dp_search
    from repro.wht.encoding import plan_key

    # Clean-service discipline gate: no failures -> no retry machinery.
    config = tiny_machine_config()
    with CampaignService(workers=2) as service:
        Session.connect(service, machine=config).search(10)
        stats = service.stats()
        if stats.retries or stats.failures or stats.quarantined:
            raise SystemExit(
                f"fault discipline regression: clean run scheduled "
                f"retries={stats.retries} failures={stats.failures} "
                f"quarantined={stats.quarantined}"
            )

    # Chaos correctness gate: injected faults never change an answer.
    reference = session(machine=config).search(12)
    fplan = FaultPlan(
        seed=0,
        backend=FaultSpec(error_rate=0.15, crash_rate=0.08),
        store=FaultSpec(error_rate=0.04, torn_tail_rate=0.15),
        poison_plans=[plan_key(reference.best_plan)],
    )
    with CampaignService(
        store=FaultyStore(MemoryStore(), fplan),
        backend=FaultyBackend(BatchedBackend(), fplan),
        workers=3,
        max_attempts=6,
        backoff_base=0.002,
        backoff_cap=0.05,
    ) as chaotic_service:
        chaotic = Session.connect(chaotic_service, machine=config, fallback=True)
        result = chaotic.search(12)
        if (
            str(result.best_plan) != str(reference.best_plan)
            or result.best_cost != reference.best_cost
        ):
            raise SystemExit(
                "chaos exactness regression: faulty search differs from the "
                "fault-free serial search"
            )
        if not any(
            plan_key(reference.best_plan) in entry.plan_keys
            for entry in chaotic_service.quarantined()
        ):
            raise SystemExit(
                "chaos quarantine regression: poison batch was not dead-lettered"
            )
        if fplan.injected() == 0:
            raise SystemExit("chaos vacuity regression: no faults were injected")

    # Clean-path overhead gate: a zero-rate wrapper must be free.
    perf_config = opteron_like(noise_sigma=0.0).config

    def time_engine(make_backend):
        engine = CostEngine(
            SimulatedMachine(perf_config), backend=make_backend(), store=MemoryStore()
        )
        start = time.perf_counter()
        dp_search(10, engine)
        return time.perf_counter() - start

    def wrapped():
        return FaultyBackend(BatchedBackend(), FaultPlan(seed=0))

    time_engine(BatchedBackend), time_engine(wrapped)  # warmup
    clean = min(time_engine(BatchedBackend) for _ in range(3))
    faulty = min(time_engine(wrapped) for _ in range(3))
    if faulty > clean * 1.05 + 0.05:
        raise SystemExit(
            f"fault overhead regression: zero-rate FaultyBackend DP took "
            f"{faulty:.3f} s > 1.05x the clean backend's {clean:.3f} s "
            f"(+0.05 s grace)"
        )


def warm_round_frames(client, n: int = 12) -> "dict[str, int]":
    """What one warm DP search through ``client`` puts on the wire.

    Counts the ``records`` calls (rounds), the member groups their keys
    stripe into, the ``submit`` frames sent and ``result`` frames read on
    the client's live connections, the connections redialled and the
    threads started.  Counts, unlike times, do not depend on host load.
    """
    from repro.runtime.fleet import ring_assign
    from repro.search.dp import dp_search
    from repro.wht.encoding import plan_key

    counts = dict.fromkeys(("rounds", "groups", "submits", "results", "threads"), 0)
    transports = list(client.transports.values())
    reconnects = sum(transport.reconnects for transport in transports)
    wrapped = [t._conn.transport for t in transports if t._conn is not None]
    for frames in wrapped:

        def send(payload, _send=frames.send):
            counts["submits"] += payload.get("type") == "submit"
            _send(payload)

        def recv(_recv=frames.recv):
            frame = _recv()
            counts["results"] += frame is not None and frame.get("type") == "result"
            return frame

        frames.send, frames.recv = send, recv

    def records(plans, *args, _records=client.records, **kwargs):
        keys = list(dict.fromkeys(plan_key(plan) for plan in plans))
        counts["rounds"] += 1
        counts["groups"] += len(ring_assign(client.registry.alive(), client.machine_hash, keys))
        return _records(plans, *args, **kwargs)

    start = threading.Thread.start

    def counted_start(thread):
        counts["threads"] += 1
        return start(thread)

    client.records, threading.Thread.start = records, counted_start
    try:
        dp_search(n, client)
    finally:
        threading.Thread.start = start
        del client.records
        for frames in wrapped:
            del frames.send, frames.recv
    counts["redials"] = sum(transport.reconnects for transport in transports) - reconnects
    return counts


def gate_warm_frames(name: str, counts: "dict[str, int]") -> None:
    """A warm round is one submit and one result per member group, and
    starts no thread and no connection."""
    print(f"{name}: {counts}")
    gate(f"{name}_submits", counts["submits"], "==", counts["groups"], unit="frames")
    gate(f"{name}_results", counts["results"], "==", counts["groups"], unit="frames")
    gate(f"{name}_threads", counts["threads"], "==", 0, unit="starts")
    gate(f"{name}_redials", counts["redials"], "==", 0, unit="dials")


def check_transport() -> None:
    """The socket transport must be exact, dedup-clean and thin.

    Three gates on the multi-host transport layer (DESIGN.md §13, DP n=12,
    Opteron-like, noise-free):

    * a remote DP search over loopback TCP is **bit-identical** to the
      in-process service-mediated search;
    * the remote run executes **zero** duplicate or additional units
      (counter-verified at the backend): request-id idempotency and the
      service's key-level dedup hold across the wire;
    * a warm remote DP round sends exactly one ``submit`` frame and reads
      one ``result`` frame, and starts no thread (counted, not timed);
    * a cold loopback-TCP DP stays within 30% of the in-process service
      client (plus a small absolute grace): frames, not friction.
    """
    from repro.machine.configs import opteron_like
    from repro.runtime.fleet import FleetClient
    from repro.runtime.service import CampaignService
    from repro.runtime.transport import serve_tcp
    from repro.search.dp import dp_search

    config = opteron_like(noise_sigma=0.0).config

    counting = CountingBackend()
    with CampaignService(backend=counting, workers=2) as service:
        reference = dp_search(12, service.client(config))
        baseline_units = len(counting.executed)
        with serve_tcp(service) as server:
            client = FleetClient(server.url, config)
            remote = dp_search(12, client)
            counts = warm_round_frames(client)
            client.close()

    if (
        remote.best_plans != reference.best_plans
        or remote.best_costs != reference.best_costs
    ):
        raise SystemExit(
            "transport exactness regression: remote DP differs from the "
            "in-process service DP"
        )
    if len(set(counting.executed)) != len(counting.executed):
        raise SystemExit(
            "transport dedup regression: duplicate unit executions via the wire"
        )
    if len(counting.executed) != baseline_units:
        raise SystemExit(
            f"transport dedup regression: the remote search re-executed "
            f"{len(counting.executed) - baseline_units} already-measured units"
        )
    gate_warm_frames("transport_warm_rounds", counts)
    if counts["groups"] != counts["rounds"]:
        raise SystemExit("transport regression: a one-member fleet split a round's keys")

    # Overhead gate: best-of-three cold runs on each path.
    def time_inprocess():
        with CampaignService(workers=2) as fresh:
            client = fresh.client(config)
            start = time.perf_counter()
            dp_search(12, client)
            return time.perf_counter() - start

    def time_remote():
        with CampaignService(workers=2) as fresh:
            with serve_tcp(fresh) as server:
                client = FleetClient(server.url, config)
                start = time.perf_counter()
                dp_search(12, client)
                elapsed = time.perf_counter() - start
                client.close()
            return elapsed

    time_inprocess(), time_remote()  # warmup
    inprocess = min(time_inprocess() for _ in range(3))
    remote_time = min(time_remote() for _ in range(3))
    if remote_time > inprocess * 1.3 + 0.3:
        raise SystemExit(
            f"transport overhead regression: loopback-TCP DP took "
            f"{remote_time:.3f} s > 1.3x the in-process service's "
            f"{inprocess:.3f} s (+0.3 s grace)"
        )


#: Warm DP rounds timed per client in each block of ``warm_round_p50_ms``.
WARM_ROUNDS = 100
#: Ceiling on a warm 3-member fleet round's p50 over a warm single-server
#: round's: a warm round is one frame each way per member, sent from the
#: calling thread, so striping over three members may not cost a round
#: trip per member in sequence or a thread start per member.
FLEET_WARM_ROUND_RATIO = 3.0


def warm_round_p50_ms(clients, n: int = 12) -> "list[float]":
    """Median ``records`` latency (ms) of each client over ``WARM_ROUNDS`` rounds.

    The clients' warm DP searches are interleaved, so load drift on a
    shared host falls on every client alike.
    """
    import statistics

    from repro.search.dp import dp_search

    latencies: "list[list[float]]" = []
    for client in clients:
        times: "list[float]" = []
        latencies.append(times)

        def timed(*args, _records=client.records, _times=times, **kwargs):
            start = time.perf_counter()
            try:
                return _records(*args, **kwargs)
            finally:
                _times.append((time.perf_counter() - start) * 1e3)

        client.records = timed
    while min(len(times) for times in latencies) < WARM_ROUNDS:
        for client in clients:
            dp_search(n, client)
    for client in clients:
        del client.records
    return [statistics.median(times[:WARM_ROUNDS]) for times in latencies]


def check_fleet() -> None:
    """The fleet layer must be exact, dedup-clean and thin.

    Four gates on the multi-server fleet (DESIGN.md §15, DP n=12,
    Opteron-like, noise-free):

    * a DP search striped over a **3-member loopback fleet** sharing one
      record space is **bit-identical** to a single-server remote search;
    * the fleet run executes **zero** duplicate units across every
      member's backend (rendezvous striping plus shared-store dedup);
    * a cold 3-member fleet DP stays within 35% of the single-server
      remote DP (plus a small absolute grace): striping, not friction;
    * a warm fleet DP round sends exactly one ``submit`` frame and reads
      one ``result`` frame per member group, and starts no thread
      (counted, not timed);
    * after the cold fills, the p50 of 100 warm DP rounds through the
      fleet stays within ``FLEET_WARM_ROUND_RATIO`` times the p50 of 100
      through the single server (best of three blocks).
    """
    import shutil

    from repro.machine.configs import opteron_like
    from repro.runtime.backends import BatchedBackend
    from repro.runtime.fleet import FleetClient
    from repro.runtime.service import CampaignService
    from repro.runtime.sharded_store import ShardedRecordStore
    from repro.runtime.transport import serve_tcp
    from repro.search.dp import dp_search

    config = opteron_like(noise_sigma=0.0).config

    class Fleet:
        def __init__(self, store_dir, backends=None):
            self.services = [
                CampaignService(
                    store=ShardedRecordStore(store_dir, auto_compact=None),
                    backend=backends[i] if backends else BatchedBackend(),
                    workers=2,
                    shared_store=True,
                )
                for i in range(3)
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

    workdir = Path(tempfile.mkdtemp(prefix="repro-fleet-perf-"))
    try:
        countings = [CountingBackend() for _ in range(3)]
        with CampaignService(workers=2) as single, serve_tcp(single) as server:
            single_client = FleetClient(server.url, config)
            reference = dp_search(12, single_client)
            fleet = Fleet(workdir / "exactness", countings)
            try:
                client = FleetClient(fleet.urls, config)
                striped = dp_search(12, client)
                counts = warm_round_frames(client)
                # Best of three blocks, like the cold-overhead gates: load
                # from outside stretches the fleet's three hand-offs more
                # than the single server's one.
                blocks = [warm_round_p50_ms([single_client, client]) for _ in range(3)]
                single_p50, fleet_p50 = min(blocks, key=lambda block: block[1] / block[0])
                client.close()
            finally:
                fleet.close()
            single_client.close()

        if (
            striped.best_plans != reference.best_plans
            or striped.best_costs != reference.best_costs
        ):
            raise SystemExit(
                "fleet exactness regression: 3-member fleet DP differs from "
                "the single-server remote DP"
            )
        executed = [unit for counting in countings for unit in counting.executed]
        if len(set(executed)) != len(executed):
            raise SystemExit(
                "fleet dedup regression: duplicate unit executions across members"
            )
        if sum(1 for counting in countings if counting.executed) < 2:
            raise SystemExit(
                "fleet striping regression: the search did not stripe over "
                "at least two members"
            )
        gate_warm_frames("fleet_warm_rounds", counts)
        if counts["groups"] <= counts["rounds"]:
            raise SystemExit("fleet striping regression: warm rounds were not striped")
        print(
            f"warm_round_p50: 3-member fleet {fleet_p50:.3f} ms, "
            f"single server {single_p50:.3f} ms"
        )
        gate(
            "fleet_warm_round_p50_ratio",
            fleet_p50 / single_p50,
            "<=",
            FLEET_WARM_ROUND_RATIO,
            unit="x",
        )

        # Overhead gate: best-of-three cold runs on each path.
        def time_single():
            with CampaignService(workers=2) as fresh:
                with serve_tcp(fresh) as server:
                    client = FleetClient(server.url, config)
                    start = time.perf_counter()
                    dp_search(12, client)
                    elapsed = time.perf_counter() - start
                    client.close()
                return elapsed

        def time_fleet():
            time_fleet.runs += 1
            fresh = Fleet(workdir / f"overhead-{time_fleet.runs}")
            try:
                client = FleetClient(fresh.urls, config)
                start = time.perf_counter()
                dp_search(12, client)
                elapsed = time.perf_counter() - start
                client.close()
            finally:
                fresh.close()
            return elapsed

        time_fleet.runs = 0
        time_single(), time_fleet()  # warmup
        single_time = min(time_single() for _ in range(3))
        fleet_time = min(time_fleet() for _ in range(3))
        if fleet_time > single_time * 1.35 + 0.3:
            raise SystemExit(
                f"fleet overhead regression: 3-member fleet DP took "
                f"{fleet_time:.3f} s > 1.35x the single-server remote's "
                f"{single_time:.3f} s (+0.3 s grace)"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: A tiny/ci suite whose default objective sweep (sizes 4 and 7) re-draws
#: both RSU campaign populations; the committed ci.json sweeps 5 and 6.
SHARED_PREPARATION_SPEC = {
    "name": "shared-preparation",
    "machines": ["tiny"],
    "scale": "ci",
    "experiments": ["figure4", "figure5", "objective_sweep"],
}


def check_suite() -> None:
    """The declarative suite runner's resume must be real and must be fast.

    Three gates on the suite subsystem (DESIGN.md §14, the committed CI spec
    ``benchmarks/suites/ci.json`` over a fresh on-disk store):

    * the cold run completes every unit and actually measures (vacuity
      check);
    * a warm re-run of the same spec against the same store + manifest
      performs **zero** new measurements and skips every unit;
    * the warm run is at least 10x faster than the cold run (the best of
      three cold/warm pairs, each over a fresh store) — resume must
      short-circuit the work, not redo it quietly from caches.

    A fourth gate counts, not times: a cold run of
    :data:`SHARED_PREPARATION_SPEC` into a fresh memory store prepares each
    distinct plan once (the session's prepared-plan cache serves the sweep's
    re-drawn populations), so no plan key reaches the fused pipeline twice.
    """
    import shutil

    from repro.machine.machine import SimulatedMachine
    from repro.runtime.store import MemoryStore
    from repro.suite import SuiteRun, load_spec
    from repro.wht.encoding import plan_key

    prepared: list[str] = []
    original = SimulatedMachine._prepare_fused

    def recording(machine, plans):
        prepared.extend(plan_key(plan) for plan in plans)
        return original(machine, plans)

    SimulatedMachine._prepare_fused = recording
    try:
        shared = SuiteRun(SHARED_PREPARATION_SPEC, store=MemoryStore()).run()
    finally:
        SimulatedMachine._prepare_fused = original
    if not shared.ok or not prepared:
        raise SystemExit(
            f"suite regression: shared-preparation run failed units "
            f"{[r.unit_id for r in shared.failed]} or prepared nothing"
        )
    gate(
        "suite_repeat_preparations",
        len(prepared) - len(set(prepared)),
        "<=",
        0,
        unit="plans",
    )

    spec = load_spec(str(Path(__file__).resolve().parent / "suites" / "ci.json"))
    workdir = tempfile.mkdtemp(prefix="repro-suite-perf-")
    try:
        pairs = []
        # Best of three cold/warm pairs, each over its own fresh store: a
        # 10x ratio over a ~0.1 s cold run leaves little room for
        # scheduling noise on a shared host.
        for index in range(3):
            store = str(Path(workdir) / f"campaigns-{index}")
            artifacts = str(Path(workdir) / f"artifacts-{index}")

            start = time.perf_counter()
            cold = SuiteRun(spec, store=store, artifacts=artifacts).run()
            cold_seconds = time.perf_counter() - start
            if not cold.ok:
                raise SystemExit(
                    f"suite regression: cold run failed units: "
                    f"{[r.unit_id for r in cold.failed]}"
                )
            if cold.total_measured == 0:
                raise SystemExit("suite vacuity regression: cold run measured nothing")

            start = time.perf_counter()
            warm = SuiteRun(spec, store=store, artifacts=artifacts).run()
            warm_seconds = time.perf_counter() - start
            if not warm.ok:
                raise SystemExit(
                    f"suite regression: warm run failed units: "
                    f"{[r.unit_id for r in warm.failed]}"
                )
            if warm.total_measured != 0:
                raise SystemExit(
                    f"suite resume regression: warm re-run performed "
                    f"{warm.total_measured} new measurements (expected 0)"
                )
            if len(warm.skipped) != len(warm.results):
                raise SystemExit(
                    f"suite resume regression: warm re-run skipped only "
                    f"{len(warm.skipped)} of {len(warm.results)} units"
                )
            pairs.append((cold_seconds, warm_seconds))
        cold_seconds, warm_seconds = min(pairs, key=lambda pair: pair[1] / pair[0])
        if warm_seconds > cold_seconds / 10.0:
            raise SystemExit(
                f"suite resume perf regression: warm run took "
                f"{warm_seconds:.3f} s > 1/10 of the cold run's "
                f"{cold_seconds:.3f} s"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: Default-model instruction-count extremes at n=13 (the theory table's top).
THEORY_N13_MIN = (145841, "split[small[6],small[7]]")
THEORY_N13_MAX_COUNT = 2652753


def check_theory() -> None:
    """The theory optimiser must stay polynomial and keep its pinned results.

    ``extreme_instruction_counts(20)`` is timed once, cold, at ``TIME_SLACK``
    x its baseline; and the default-model n=13 minimum (count and plan) and
    maximum count must equal the pinned values.
    """
    from repro.models.theory import extreme_instruction_counts

    extreme_instruction_counts.cache_clear()
    timed("theory_extremes_n20", lambda: extreme_instruction_counts(20))
    n13 = extreme_instruction_counts(13)
    got = ((n13.min_count, str(n13.min_plan)), n13.max_count)
    if got != (THEORY_N13_MIN, THEORY_N13_MAX_COUNT):
        raise SystemExit(
            f"theory regression: n=13 extremes {got}, expected "
            f"{(THEORY_N13_MIN, THEORY_N13_MAX_COUNT)}"
        )


def main() -> int:
    check_exactness()
    print("exactness: streaming pipeline matches eager reference")
    check_batch_identity()
    print(
        "batch identity: cross-plan fused prepare_batch matches the eager "
        "reference on the enumerated space and random plans, and the per-plan "
        "stream on DP n=16 candidates and n=14 RSU plans"
    )
    check_search_budget()
    print(
        "search budget: engine DP bit-identical to scalar, cold run measures "
        "each candidate once, resume measures nothing, batch models exact"
    )
    check_search_timings()
    print(
        "search timings: n=16 engine DP bit-identical to scalar, batch model "
        "scores and buffered RSU draws identical to the scalar paths"
    )
    check_multi_metric()
    print(
        "multi-metric: one measurement populates every counter metric, "
        "objective DP bit-identical to the cycles path, composite objective "
        "matches the combined model over the full n <= 8 space"
    )
    check_service()
    print(
        "service: 8 concurrent sessions execute zero duplicate measurements, "
        "fan-out DP bit-identical to the serial session, cold and warm service "
        "DP bit-identical to the direct engine, cold service overhead within "
        "20% of the direct engine"
    )
    check_faults()
    print(
        "faults: clean run fires no retry machinery, chaotic fallback search "
        "bit-identical with poison quarantined, zero-rate injection hooks "
        "within 5% of the clean backend"
    )
    check_transport()
    print(
        "transport: loopback-TCP DP bit-identical to the in-process service "
        "with zero duplicate or re-executed units, remote overhead within "
        "30% of the service client"
    )
    check_fleet()
    print(
        "fleet: 3-member loopback fleet DP bit-identical to the single-server "
        "remote with zero duplicate units across members, fleet overhead "
        "within 35% of the single-server remote, warm fleet round p50 within "
        f"{FLEET_WARM_ROUND_RATIO}x the single server's"
    )
    check_suite()
    print(
        "suite: cold CI-spec run completes and measures, warm re-run against "
        "the same store performs zero measurements, skips every unit, and is "
        ">= 10x faster; a sweep over the campaign populations prepares no "
        "plan twice"
    )

    check_theory()
    print(
        "theory: n=20 instruction-count extremes within the polynomial-time "
        "gate, n=13 extremes equal their pinned values"
    )

    check_memory_n18()
    print("memory: n=18 prepare within its recorded peak and chunk budget")
    check_rsu_n18_opteron()
    print("paper geometry: RSU n=18 batch on the Opteron-like machine within its per-plan budget")

    seconds, peak, stats = run_smoke()
    name = f"prepare_n{SMOKE_SIZE}_opteron"
    print(f"{name}: l1_misses={stats.l1_misses}, l2_misses={stats.l2_misses}")
    gate(name, seconds, "<=", TIME_BUDGET_SECONDS)
    gate(name, seconds, "<=", BASELINE_SECONDS[name] * TIME_SLACK)
    gate(f"{name}_peak", peak / 1e6, "<=", PREPARE_N14_PEAK_BYTES * MEMORY_SLACK / 1e6, unit="MB")
    print("perf smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
