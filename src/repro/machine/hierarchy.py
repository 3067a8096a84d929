"""Two-level data-cache hierarchy.

The Opteron of the paper has a 64 KB 2-way L1 data cache and a 1 MB 16-way L2.
:class:`MemoryHierarchy` models an inclusive two-level hierarchy: every access
probes L1, and L1 misses probe L2.  Both levels use the fastest exact
simulator available for their geometry (the vectorised 2-way LRU simulator
or the N-way reuse-gap classifier, which also covers direct-mapped levels).

:meth:`MemoryHierarchy.process_line_chunks_batch` is the one simulation
loop: it consumes many plans' streamed, duplicate-collapsed line chunks
(:func:`repro.machine.trace.stream_line_chunks`) spliced into one
cross-plan super-stream and recovers per-plan statistics by segment sums.
:class:`repro.machine.machine.SimulatedMachine` simulates through it, and
:meth:`MemoryHierarchy.process_line_chunks` is a one-plan batch.  Simulator
state carries across chunks (the vectorised caches support warm
continuation), so the resulting miss counts are bit-identical to a
single-shot simulation of the full trace while only ever holding one
bounded chunk in memory.  :meth:`MemoryHierarchy.process_trace` is retained
as the eager compatibility view over a fully materialised
:class:`MemoryTrace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from repro.machine.cache import (
    LINE_LIMIT,
    CacheConfig,
    CacheSimulator,
    make_cache,
)
from repro.machine.trace import (
    LineChunk,
    MemoryTrace,
    SplicedLineChunk,
    collapse_consecutive,
    splice_line_chunks,
)

__all__ = ["HierarchyStatistics", "MemoryHierarchy"]


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


@dataclass(frozen=True)
class HierarchyStatistics:
    """Access/miss counts of one trace run through the hierarchy."""

    l1_accesses: int
    l1_misses: int
    l2_accesses: int
    l2_misses: int

    @property
    def l1_miss_ratio(self) -> float:
        """L1 misses / L1 accesses."""
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_miss_ratio(self) -> float:
        """L2 misses / L2 accesses."""
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """Flat dictionary view."""
        return {
            "l1_accesses": self.l1_accesses,
            "l1_misses": self.l1_misses,
            "l1_miss_ratio": self.l1_miss_ratio,
            "l2_accesses": self.l2_accesses,
            "l2_misses": self.l2_misses,
            "l2_miss_ratio": self.l2_miss_ratio,
        }


class MemoryHierarchy:
    """An inclusive L1 + L2 data-cache hierarchy fed by element traces."""

    def __init__(
        self,
        l1: CacheConfig,
        l2: CacheConfig | None = None,
        vectorized: bool = True,
    ):
        if l2 is not None and l2.size_bytes < l1.size_bytes:
            raise ValueError(
                f"L2 ({l2.size_bytes} B) must be at least as large as L1 "
                f"({l1.size_bytes} B)"
            )
        self.l1_config = l1
        self.l2_config = l2
        self.vectorized = vectorized

    def build_l1(self) -> CacheSimulator:
        """A fresh (cold) L1 simulator."""
        return make_cache(self.l1_config, vectorized=self.vectorized)

    def build_l2(self) -> CacheSimulator | None:
        """A fresh (cold) L2 simulator, or ``None`` when no L2 is configured."""
        if self.l2_config is None:
            return None
        return make_cache(self.l2_config, vectorized=self.vectorized)

    # -- set classes --------------------------------------------------------------
    #
    # The address bits that index a set at every level split a trace into
    # set classes.  A WHT plan run from address 0 misses alike in each class,
    # so simulating one class on a geometry with that many times fewer sets
    # and scaling gives the whole trace's statistics (DESIGN.md §10).

    def shared_set_bits(self, element_size: int = 1) -> tuple[int, int]:
        """Element-index bits ``low:high`` that index a set at every level:
        from the widest line's offset bits up to the smallest ``line_size *
        num_sets``.  Empty unless ``element_size`` is a power of two that
        divides every line."""
        levels = [level for level in (self.l1_config, self.l2_config) if level is not None]
        shift = element_size.bit_length() - 1
        if element_size != 1 << shift or any(level.line_size % element_size for level in levels):
            return 0, 0
        low = max(level.offset_bits for level in levels) - shift
        high = min(level.offset_bits + level.index_bits for level in levels) - shift
        return low, max(low, high)

    def class_geometry(self, classes: int) -> "MemoryHierarchy":
        """The hierarchy with every level's set count divided by ``classes``
        (at most ``2^(high - low)`` of :meth:`shared_set_bits`); lines and
        ways stay the same."""
        l1, l2 = (
            None if level is None else replace(level, size_bytes=level.size_bytes // classes)
            for level in (self.l1_config, self.l2_config)
        )
        return MemoryHierarchy(l1, l2, vectorized=self.vectorized)

    def _l2_lines(self, lines: np.ndarray) -> np.ndarray:
        """L2 line numbers of L1 line numbers: a shift by the difference of
        the levels' offset bits, in whichever direction it points."""
        shift = self.l2_config.offset_bits - self.l1_config.offset_bits
        if shift > 0:
            return lines >> shift
        if shift < 0:
            if lines.shape[0] and int(lines.max()) >= LINE_LIMIT >> -shift:
                raise ValueError("L2 line numbers would overflow int32")
            return lines << -shift
        return lines

    def process_line_chunks(self, chunks: Iterable[LineChunk]) -> HierarchyStatistics:
        """Statistics of one plan's collapsed line chunks
        (:func:`repro.machine.trace.stream_line_chunks`): a one-plan
        :meth:`process_line_chunks_batch`, so bit-identical to simulating
        the whole trace in one shot, regardless of how it was chunked."""
        return self.process_line_chunks_batch(splice_line_chunks([chunks], [0]), 1)[0]

    # -- analytic fast paths for full-coverage workloads -------------------------
    #
    # A WHT plan touches every element of its contiguous [0, 2^n) vector, so
    # its trace *fully covers* the byte range [0, footprint).  When such a
    # footprint fits a cache level, no line of that level is ever evicted
    # (a set holding at most ``associativity`` distinct lines never selects a
    # victim), so an access misses exactly when it is the first touch of its
    # line: the level's miss count equals its distinct-line count, computable
    # from the geometry alone.  The predicates below prove the fit *exactly*
    # — contiguous coverage distributes lines across sets uniformly — and the
    # test suite pins the counts against full simulation.

    def _coverage_l2_misses(self, l1_lines: int) -> int | None:
        """Exact L2 miss count of a cold full-coverage run, or ``None``.

        ``l1_lines`` is the footprint in L1 lines; L2 sees each of them at
        least once (every L1 line's first touch is a cold L1 miss), at
        L1-line-granular addresses.  Returns the distinct probed L2 line
        count when those lines provably all stay resident, ``None`` when the
        fit cannot be established.
        """
        l2 = self.l2_config
        if l2 is None or l1_lines <= 0:
            return None
        l1_line_size = self.l1_config.line_size
        if l2.line_size >= l1_line_size:
            # Probed L2 lines form the contiguous range [0, f2).
            f2 = _ceil_div(l1_lines * l1_line_size, l2.line_size)
            return f2 if f2 <= l2.num_lines else None
        # L2 lines are finer than L1 lines: the probes are the L1 line start
        # addresses, one distinct L2 line each, spaced d L2-lines apart.
        d = l1_line_size // l2.line_size
        sets_hit = max(l2.num_sets // math.gcd(d, l2.num_sets), 1)
        if _ceil_div(l1_lines, sets_hit) > l2.associativity:
            return None
        return l1_lines

    def covers_analytically(self, footprint_bytes: int) -> bool:
        """Whether a cold full-coverage run of ``footprint_bytes`` (starting
        at byte 0) has analytically exact statistics — i.e. the footprint
        provably fits L1 (and the induced probe set fits L2).

        "Full coverage" is the caller's contract: the trace must touch
        every L1 line of ``[0, footprint_bytes)`` at least once (true for
        element-granular traces whose element size does not exceed the L1
        line size — consecutive addresses are at most a line apart)."""
        if footprint_bytes <= 0 or footprint_bytes > self.l1_config.size_bytes:
            return False
        if self.l2_config is None:
            return True
        f1 = _ceil_div(footprint_bytes, self.l1_config.line_size)
        return self._coverage_l2_misses(f1) is not None

    def analytic_coverage_stats(
        self, footprint_bytes: int, accesses: int
    ) -> HierarchyStatistics | None:
        """Exact statistics of a cold, fully-covering run that fits L1.

        The caller asserts that the trace touches *every L1 line* of
        ``[0, footprint_bytes)`` (any order, any multiplicity) starting from
        cold caches at base address 0 — true for every WHT plan prepared by
        the simulated machine whenever the element size does not exceed the
        L1 line size.  Returns ``None`` when the fit cannot be proven, in
        which case the trace must be simulated.
        """
        if not self.covers_analytically(footprint_bytes):
            return None
        f1 = _ceil_div(footprint_bytes, self.l1_config.line_size)
        if self.l2_config is None:
            return HierarchyStatistics(accesses, f1, 0, 0)
        f2 = self._coverage_l2_misses(f1)
        if f2 is None:  # pragma: no cover - covers_analytically already checked
            return None
        return HierarchyStatistics(accesses, f1, f1, f2)

    def analytic_l2_misses(self, footprint_bytes: int) -> int | None:
        """Exact L2 miss count of a cold full-coverage run, or ``None``.

        Unlike :meth:`analytic_coverage_stats` this does not require the
        footprint to fit L1: whatever subset of accesses misses L1, every L1
        line reaches L2 at least once, so the L2 misses of a fitting
        footprint are its distinct probed lines regardless of L1 behaviour.
        """
        if self.l2_config is None or footprint_bytes <= 0:
            return None
        if footprint_bytes > self.l2_config.size_bytes:
            return None  # cannot fit; simulate
        return self._coverage_l2_misses(
            _ceil_div(footprint_bytes, self.l1_config.line_size)
        )

    # -- cross-plan batched simulation -------------------------------------------

    def batch_line_offsets(self, span_lines: Sequence[int]) -> np.ndarray:
        """Per-plan line offsets giving each plan a disjoint slice of the
        line space while preserving every level's set mapping.

        ``span_lines[p]`` bounds plan ``p``'s largest touched L1 line + 1.
        Each offset is a multiple of ``lcm(L1 sets x L1 line, L2 sets x L2
        line) / L1 line`` bytes' worth of lines, so shifting a plan's
        addresses by its offset changes tags only; and consecutive offsets
        are at least a span apart, so no two plans ever share a cache line
        at either level.  A warm simulator pass over streams spliced at
        these offsets is therefore equivalent to one cold pass per plan —
        a cross-plan access can neither hit a foreign line nor alter a
        foreign stack distance, and plans occupy contiguous stream runs.

        The simulators take int32 line numbers, so the batch's line space,
        counted in the finer of the two levels' lines, must stay below
        2^31.
        """
        l1 = self.l1_config
        align_bytes = l1.num_sets * l1.line_size
        finest = l1.line_size
        if self.l2_config is not None:
            align_bytes = math.lcm(
                align_bytes, self.l2_config.num_sets * self.l2_config.line_size
            )
            finest = min(finest, self.l2_config.line_size)
        unit = _ceil_div(align_bytes, l1.line_size)
        offsets = np.zeros(len(span_lines), dtype=np.int64)
        cursor = 0
        for index, span in enumerate(span_lines):
            if span < 0:
                raise ValueError(f"span_lines must be nonnegative, got {span}")
            offsets[index] = cursor
            cursor += _ceil_div(max(int(span), 1), unit) * unit
        if cursor * (l1.line_size // finest) >= LINE_LIMIT:
            raise ValueError(
                f"batch spans {cursor} L1 lines, past the int32 line space "
                f"(2^31 lines of {finest} B); prepare fewer or smaller plans "
                "per batch"
            )
        return offsets

    def process_line_chunks_batch(
        self,
        chunks: Iterable[SplicedLineChunk],
        num_plans: int,
        footprint_bytes: "Sequence[int] | None" = None,
    ) -> list[HierarchyStatistics]:
        """Simulate a cross-plan spliced super-stream in one pass per level.

        ``chunks`` is the output of
        :func:`repro.machine.trace.splice_line_chunks` over per-plan streams
        shifted by :meth:`batch_line_offsets`; per-plan hit/miss counts are
        recovered by segment sums over each chunk's plan boundaries.  One
        warm-started L1 simulator consumes every plan's lines and one L2
        simulator consumes the surviving miss stream, yet the returned
        statistics are bit-identical to one cold pass per plan: the
        disjoint line slices mean simulator state carried across a plan
        boundary can never be referenced again, which *is* the per-plan cold
        reset, enforced by the address space instead of by the simulators.

        Each segment's raw ``accesses`` are what L1 reports (consecutive
        duplicate lines, collapsed away upstream, and elided write passes
        are hits at every level that change no LRU state).

        ``footprint_bytes`` optionally carries each plan's contiguous
        full-coverage footprint; plans whose footprint provably fits L2
        (:meth:`analytic_l2_misses`) skip L2 simulation entirely — their L1
        miss streams are dropped before the L2 pass and the exact miss count
        is filled in analytically.
        """
        if num_plans < 0:
            raise ValueError(f"num_plans must be nonnegative, got {num_plans}")
        l1 = self.build_l1()
        l2 = self.build_l2()
        l1_accesses = np.zeros(num_plans, dtype=np.int64)
        l1_misses = np.zeros(num_plans, dtype=np.int64)
        l2_accesses = np.zeros(num_plans, dtype=np.int64)
        l2_misses = np.zeros(num_plans, dtype=np.int64)
        analytic_l2 = np.full(num_plans, -1, dtype=np.int64)
        if l2 is not None and footprint_bytes is not None:
            if len(footprint_bytes) != num_plans:
                raise ValueError(
                    f"footprint_bytes has {len(footprint_bytes)} entries "
                    f"for {num_plans} plans"
                )
            for plan, footprint in enumerate(footprint_bytes):
                known = self.analytic_l2_misses(int(footprint))
                if known is not None:
                    analytic_l2[plan] = known

        for chunk in chunks:
            seg_plan = chunk.seg_plan
            if seg_plan.shape[0] == 0:
                continue
            if int(seg_plan.max()) >= num_plans:
                raise ValueError(
                    f"chunk references plan {int(seg_plan.max())} "
                    f"but the batch has {num_plans} plans"
                )
            np.add.at(l1_accesses, seg_plan, chunk.seg_accesses)
            lines = chunk.lines
            if lines.shape[0] == 0:
                continue
            miss_at = np.flatnonzero(l1.simulate(lines, check=False))
            seg_misses = np.diff(np.searchsorted(miss_at, chunk.seg_bounds))
            np.add.at(l1_misses, seg_plan, seg_misses)
            if l2 is None:
                continue
            simulate_seg = analytic_l2[seg_plan] < 0
            if not simulate_seg.all():
                # Segments run in position order, so each one's L1 misses
                # are a run of ``miss_at``.
                miss_at = miss_at[np.repeat(simulate_seg, seg_misses)]
                seg_misses = np.where(simulate_seg, seg_misses, 0)
            if miss_at.shape[0] == 0:
                continue
            l2_mask = l2.simulate(self._l2_lines(lines[miss_at]), check=False)
            l2_miss_at = np.flatnonzero(l2_mask)
            bounds2 = np.concatenate(([0], np.cumsum(seg_misses)))
            np.add.at(l2_accesses, seg_plan, seg_misses)
            np.add.at(l2_misses, seg_plan, np.diff(np.searchsorted(l2_miss_at, bounds2)))

        analytic = analytic_l2 >= 0
        if analytic.any():
            # Analytic plans: every L1 miss would have probed L2 and their
            # exact miss count is the proven distinct-line count (zero for a
            # plan that produced no accesses at all).
            l2_accesses[analytic] = l1_misses[analytic]
            l2_misses[analytic] = np.where(
                l1_misses[analytic] > 0, analytic_l2[analytic], 0
            )
        return [
            HierarchyStatistics(
                l1_accesses=int(l1_accesses[plan]),
                l1_misses=int(l1_misses[plan]),
                l2_accesses=int(l2_accesses[plan]),
                l2_misses=int(l2_misses[plan]),
            )
            for plan in range(num_plans)
        ]

    def process_trace(self, trace: MemoryTrace) -> HierarchyStatistics:
        """Run a fully materialised trace through cold caches.

        Compatibility view over :meth:`process_line_chunks`: the trace is
        validated once, collapsed to line granularity and simulated as a
        single chunk, which produces exactly the statistics of the seed
        implementation (and of any other chunking of the same trace).
        """
        collapsed_lines, _removed = collapse_consecutive(
            self.l1_config.line_of(trace.addresses)
        )
        chunk = LineChunk(lines=collapsed_lines, accesses=trace.accesses)
        return self.process_line_chunks([chunk])

    def describe(self) -> str:
        """Human-readable summary of the hierarchy geometry."""
        parts = [self.l1_config.describe()]
        if self.l2_config is not None:
            parts.append(self.l2_config.describe())
        else:
            parts.append("no L2")
        return " | ".join(parts)
