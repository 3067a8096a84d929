"""Memory-trace generation from plan execution.

The plan interpreter summarises execution as a sequence of :class:`LeafNest`
events (one per leaf loop nest, in execution order).  This module expands
those events into the data-access trace the cache hierarchy consumes.

Per codelet call the WHT package's unrolled code loads its ``2^k`` input
elements and then stores the ``2^k`` results back to the same locations; the
trace therefore contains, for every call, one read pass followed by one write
pass over the call's strided element block.

Two expansion paths are provided (see DESIGN.md):

* :func:`stream_line_chunks` — the default pipeline.  Nest blocks are grouped
  by shape and expanded with one broadcast per group, directly at cache-line
  granularity, with runs of consecutive identical lines collapsed per chunk
  at generation time (line-aligned unit-stride nests collapse analytically,
  without ever materialising their per-element accesses).  The full trace is
  never held in memory; bounded :class:`LineChunk` batches stream into the
  hierarchy simulators.  Given the cache geometry, the stream also drops
  provably repeated passes: write passes that are guaranteed hits, and runs
  of back-to-back codelet calls over one line sequence, whose misses are
  counted exactly instead of simulated.  Nest blocks walked with
  ``line_elements`` keep three of each run of back-to-back sub-plan
  invocations over one line sequence; the chunks mark the third's lines as
  a weighted range whose misses the hierarchy counts once per invocation
  it stands for (repeated-pass elision, DESIGN.md §10).
* :func:`trace_from_nests` / :class:`MemoryTrace` — the eager byte-address
  view, retained as a thin compatibility layer for tests, ablations and any
  consumer that wants the exact per-element access sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.machine.cache import LINE_LIMIT, CacheConfig, _as_lines
from repro.util.validation import check_positive_int
from repro.wht.interpreter import _SINGLE_OFFSET, LeafNest, NestBlock

__all__ = [
    "MemoryTrace",
    "LineChunk",
    "SplicedLineChunk",
    "trace_from_nests",
    "nest_addresses",
    "collapse_consecutive",
    "stream_line_chunks",
    "splice_line_chunks",
]

#: Size of a double-precision vector element in bytes (the WHT package
#: computes on doubles).
DEFAULT_ELEMENT_SIZE = 8

#: Default upper bound on raw (pre-collapse) accesses expanded per chunk.
#: Bounds the pipeline's peak memory: every intermediate array (expansion
#: grids, scatter positions, simulator sort buffers) scales with the chunk
#: length, and 2^18 accesses keep them all in the single-digit megabytes
#: while staying far above the vectorisation break-even point.
DEFAULT_CHUNK_ACCESSES = 1 << 18


def _no_ranges() -> np.ndarray:
    return np.zeros((0, 3), dtype=np.int64)


def _check_weighted_ranges(ranges: np.ndarray, length: int) -> np.ndarray:
    """Validate ``(start, stop, weight)`` rows over a ``length``-line array.

    Ranges must be nonempty, in order, disjoint, inside ``[0, length)`` and
    weighted at least 1; returns them as an ``(m, 3)`` int64 array.
    """
    ranges = np.asarray(ranges, dtype=np.int64)
    if ranges.ndim != 2 or ranges.shape[1] != 3:
        raise ValueError("weighted ranges must form an (m, 3) array")
    starts, stops, weights = ranges.T
    if ranges.shape[0] and (
        starts[0] < 0
        or stops[-1] > length
        or np.any(stops <= starts)
        or np.any(starts[1:] < stops[:-1])
    ):
        raise ValueError(
            f"weighted ranges must be nonempty, ordered, disjoint and lie "
            f"within the chunk's {length} lines"
        )
    if np.any(weights < 1):
        raise ValueError("range weights must be at least 1")
    return ranges


@dataclass(frozen=True)
class MemoryTrace:
    """A data-access trace: byte addresses in exact access order.

    ``addresses`` may be consumed directly by the cache simulators.  The trace
    also records how many of the accesses were element loads vs stores (the
    counts are equal for WHT plans, but the split is kept for generality).
    """

    addresses: np.ndarray
    loads: int
    stores: int
    element_size: int = DEFAULT_ELEMENT_SIZE

    def __post_init__(self) -> None:
        if self.addresses.ndim != 1:
            raise ValueError("trace addresses must form a 1-D array")
        if self.loads + self.stores != self.addresses.shape[0]:
            raise ValueError(
                f"loads ({self.loads}) + stores ({self.stores}) must equal the "
                f"trace length ({self.addresses.shape[0]})"
            )

    @property
    def accesses(self) -> int:
        """Total number of element accesses."""
        return int(self.addresses.shape[0])

    @property
    def footprint_bytes(self) -> int:
        """Number of distinct bytes touched (distinct elements x element size)."""
        if self.accesses == 0:
            return 0
        return int(np.unique(self.addresses).shape[0]) * self.element_size

    def line_addresses(self, line_size: int) -> np.ndarray:
        """Cache-line numbers of every access, in order."""
        check_positive_int(line_size, "line_size")
        return self.addresses // int(line_size)


def nest_addresses(
    nest: LeafNest,
    element_size: int = DEFAULT_ELEMENT_SIZE,
    base_address: int = 0,
) -> np.ndarray:
    """Byte addresses of one nest, read pass then write pass per codelet call."""
    check_positive_int(element_size, "element_size")
    j = np.arange(nest.outer_count, dtype=np.int64) * nest.outer_stride
    k = np.arange(nest.inner_count, dtype=np.int64) * nest.inner_stride
    e = np.arange(nest.elements_per_call, dtype=np.int64) * nest.elem_stride
    # Element indices per call: shape (outer, inner, elems).
    per_call = nest.base + j[:, None, None] + k[None, :, None] + e[None, None, :]
    # Duplicate each call's block: axis 2 distinguishes the read and write pass.
    doubled = np.broadcast_to(
        per_call[:, :, None, :],
        (nest.outer_count, nest.inner_count, 2, nest.elements_per_call),
    )
    flat = doubled.reshape(-1)
    return base_address + flat * element_size


def trace_from_nests(
    nests: Sequence[LeafNest] | Iterable[LeafNest],
    element_size: int = DEFAULT_ELEMENT_SIZE,
    base_address: int = 0,
) -> MemoryTrace:
    """Expand interpreter leaf-nest events into a full byte-address trace."""
    check_positive_int(element_size, "element_size")
    chunks: list[np.ndarray] = []
    loads = 0
    stores = 0
    for nest in nests:
        chunks.append(nest_addresses(nest, element_size=element_size, base_address=base_address))
        loads += nest.total_elements
        stores += nest.total_elements
    if chunks:
        addresses = np.concatenate(chunks)
    else:
        addresses = np.zeros(0, dtype=np.int64)
    return MemoryTrace(
        addresses=addresses,
        loads=loads,
        stores=stores,
        element_size=element_size,
    )


@dataclass(frozen=True)
class LineChunk:
    """One streamed batch of the line-granular, duplicate-collapsed trace.

    ``lines`` holds int32 cache-line numbers in exact access order with runs of
    consecutive identical lines removed; ``accesses`` records how many raw
    element accesses the chunk represents (before collapsing), which is what
    the hierarchy reports as L1 accesses.  ``folded_l1_misses`` and
    ``folded_l2_misses`` are the exact misses of codelet calls that were
    folded out of ``lines`` (see :func:`_fold_repeated_calls`); every folded
    L1 miss is also an L2 access.

    ``weighted_ranges`` holds ``(start, stop, weight)`` rows: the lines
    ``lines[start:stop]`` stand for ``weight`` back-to-back copies of
    themselves (a folded run of sub-plan invocations, see
    :meth:`repro.wht.interpreter.PlanInterpreter.iter_nest_blocks`), so
    their misses at every level count ``weight`` times.  ``accesses`` and
    the folded counts already include the weights.
    """

    lines: np.ndarray
    accesses: int
    folded_l1_misses: int = 0
    folded_l2_misses: int = 0
    weighted_ranges: np.ndarray = field(default_factory=_no_ranges)

    def __post_init__(self) -> None:
        if self.folded_l1_misses < 0 or self.folded_l2_misses < 0:
            raise ValueError("folded miss counts must be nonnegative")
        # Chunk construction is the validation boundary: the simulators
        # downstream take these int32 lines with their range scan disabled.
        lines = _as_lines(self.lines)
        object.__setattr__(self, "lines", lines)
        if self.accesses < lines.shape[0]:
            raise ValueError(
                f"accesses ({self.accesses}) cannot be fewer than the collapsed "
                f"line count ({lines.shape[0]})"
            )
        object.__setattr__(
            self,
            "weighted_ranges",
            _check_weighted_ranges(self.weighted_ranges, lines.shape[0]),
        )


@dataclass(frozen=True)
class SplicedLineChunk:
    """One batch of a cross-plan spliced super-stream.

    ``lines`` concatenates segments of several plans' collapsed line streams
    (each already shifted into its plan's disjoint slice of the line space —
    see :meth:`repro.machine.hierarchy.MemoryHierarchy.batch_line_offsets`).
    ``seg_bounds`` delimits the segments within ``lines`` (length = number of
    segments + 1), ``seg_plan`` names the plan each segment belongs to, and
    ``seg_accesses`` records the raw (pre-collapse) accesses each segment
    represents, and ``seg_folded_l1``/``seg_folded_l2`` its folded miss counts
    (:attr:`LineChunk.folded_l1_misses`).  Several segments of one chunk may
    belong to the same plan (a long stream spans chunks) and a chunk may
    carry many plans (short streams fuse).  ``weighted_ranges`` carries the
    segments' :attr:`LineChunk.weighted_ranges`, shifted to positions in
    ``lines``; each lies inside one segment.

    Like :class:`LineChunk`, construction validates the shape and the int32
    line range (an offset pushing a line past 2^31 wraps negative and is
    caught here): this is the batch simulation's input boundary.
    """

    lines: np.ndarray
    seg_bounds: np.ndarray
    seg_plan: np.ndarray
    seg_accesses: np.ndarray
    seg_folded_l1: np.ndarray
    seg_folded_l2: np.ndarray
    weighted_ranges: np.ndarray = field(default_factory=_no_ranges)

    def __post_init__(self) -> None:
        lines = _as_lines(self.lines)
        object.__setattr__(self, "lines", lines)
        bounds = np.asarray(self.seg_bounds)
        if bounds.ndim != 1 or bounds.shape[0] == 0:
            raise ValueError("seg_bounds must be a nonempty 1-D array")
        if bounds[0] != 0 or bounds[-1] != lines.shape[0] or np.any(np.diff(bounds) < 0):
            raise ValueError(
                f"seg_bounds must start at 0, be nondecreasing and end at the "
                f"line count {lines.shape[0]}"
            )
        segments = bounds.shape[0] - 1
        for name in ("seg_plan", "seg_accesses", "seg_folded_l1", "seg_folded_l2"):
            if np.shape(getattr(self, name)) != (segments,):
                raise ValueError(f"{name} must have one entry per segment ({segments})")
        ranges = _check_weighted_ranges(self.weighted_ranges, lines.shape[0])
        if ranges.shape[0]:
            segment = np.searchsorted(bounds, ranges[:, 0], side="right") - 1
            if np.any(ranges[:, 1] > bounds[segment + 1]):
                raise ValueError("each weighted range must lie inside one segment")
        object.__setattr__(self, "weighted_ranges", ranges)

    @property
    def segments(self) -> int:
        """Number of per-plan segments in the chunk."""
        return int(self.seg_plan.shape[0])


def splice_line_chunks(
    streams: "Sequence[Iterable[LineChunk]]",
    line_offsets: "Sequence[int] | np.ndarray",
    chunk_lines: int = DEFAULT_CHUNK_ACCESSES,
) -> Iterator[SplicedLineChunk]:
    """Fuse per-plan :class:`LineChunk` streams into one spliced super-stream.

    Streams are consumed in order (plan 0 exhausted before plan 1 starts), so
    within the super-stream each plan occupies one contiguous run of
    segments.  Every incoming chunk becomes one segment with its plan's line
    offset added; segments accumulate until roughly ``chunk_lines`` lines are
    buffered, then flush as one :class:`SplicedLineChunk`.  Incoming chunks
    are never split, so a chunk bounded by ``chunk_accesses`` upstream keeps
    the spliced chunks bounded as well.

    The caller provides ``line_offsets`` that give each plan a disjoint,
    set-mapping-preserving slice of the line space; with such offsets a
    single warm-started simulator pass over the spliced stream is equivalent
    to one cold pass per plan (no two plans ever share a cache line, so
    cross-plan accesses can neither hit each other nor change each other's
    stack distances).
    """
    check_positive_int(chunk_lines, "chunk_lines")
    if len(line_offsets) != len(streams):
        raise ValueError(
            f"got {len(streams)} streams but {len(line_offsets)} line offsets"
        )
    buf_lines: list[np.ndarray] = []
    buf_plan: list[int] = []
    buf_accesses: list[int] = []
    buf_folded_l1: list[int] = []
    buf_folded_l2: list[int] = []
    buf_ranges: list[np.ndarray] = []
    buffered = 0

    def flush() -> SplicedLineChunk:
        nonlocal buffered
        lengths = np.array([lines.shape[0] for lines in buf_lines], dtype=np.int64)
        bounds = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        chunk = SplicedLineChunk(
            lines=(
                np.concatenate(buf_lines)
                if buf_lines
                else np.zeros(0, dtype=np.int32)
            ),
            seg_bounds=bounds,
            seg_plan=np.array(buf_plan, dtype=np.int64),
            seg_accesses=np.array(buf_accesses, dtype=np.int64),
            seg_folded_l1=np.array(buf_folded_l1, dtype=np.int64),
            seg_folded_l2=np.array(buf_folded_l2, dtype=np.int64),
            weighted_ranges=(
                np.concatenate(buf_ranges) if buf_ranges else _no_ranges()
            ),
        )
        for buf in (
            buf_lines, buf_plan, buf_accesses, buf_folded_l1, buf_folded_l2, buf_ranges
        ):
            buf.clear()
        buffered = 0
        return chunk

    for plan_index, stream in enumerate(streams):
        offset = int(line_offsets[plan_index])
        if offset < 0:
            raise ValueError(f"line offsets must be nonnegative, got {offset}")
        for chunk in stream:
            buf_lines.append(chunk.lines + offset if offset else chunk.lines)
            buf_plan.append(plan_index)
            buf_accesses.append(chunk.accesses)
            buf_folded_l1.append(chunk.folded_l1_misses)
            buf_folded_l2.append(chunk.folded_l2_misses)
            if chunk.weighted_ranges.shape[0]:
                buf_ranges.append(chunk.weighted_ranges + [buffered, buffered, 0])
            buffered += int(chunk.lines.shape[0])
            if buffered >= chunk_lines:
                yield flush()
    if buf_plan:
        yield flush()


def _nest_element_range(nest: LeafNest, bases: np.ndarray) -> tuple[int, int]:
    """Smallest and largest element index any instance of the nest touches.

    Every partial sum of the expansion grid lies in this range too.
    """
    low, high = int(bases.min()), int(bases.max())
    for count, stride in (
        (nest.outer_count, nest.outer_stride),
        (nest.inner_count, nest.inner_stride),
        (nest.elements_per_call, nest.elem_stride),
    ):
        low += min(0, (count - 1) * stride)
        high += max(0, (count - 1) * stride)
    return low, high


def _analytic_lines_per_call(
    nest: LeafNest,
    bases: np.ndarray,
    line_size: int,
    element_size: int,
    base_address: int,
) -> int:
    """Lines per call when the nest collapses analytically, else 0.

    A nest collapses analytically when every call is a unit-stride pass over
    whole cache lines: contiguous elements (``elem_stride == 1``), a call
    length that is a multiple of the line length, and line-aligned bases and
    strides.  Each call then touches exactly ``elements_per_call / epl``
    consecutive lines, each ``epl`` times per pass, so its collapsed form is
    known without expanding per-element addresses.
    """
    if nest.elem_stride != 1:
        return 0
    if line_size % element_size != 0:
        return 0
    epl = line_size // element_size  # elements per line
    epc = nest.elements_per_call
    if epc % epl != 0:
        return 0
    if nest.outer_count > 1 and (nest.outer_stride * element_size) % line_size != 0:
        return 0
    if nest.inner_count > 1 and (nest.inner_stride * element_size) % line_size != 0:
        return 0
    if base_address % line_size != 0:
        return 0
    if np.any((bases * element_size) % line_size != 0):
        return 0
    return epc // epl


def _set_cohort(elements: int, stride_bytes: int, cache: CacheConfig) -> int:
    """Most lines any set of ``cache`` receives from ``elements`` distinct
    lines spaced ``stride_bytes`` apart (a whole number of ``cache`` lines).

    The line progression visits ``num_sets / gcd(stride_lines, num_sets)``
    sets cyclically.  With power-of-two set counts and ``elements`` a power
    of two, a cohort above one is *uniform*: every visited set receives
    exactly that many lines.
    """
    stride_lines = stride_bytes // cache.line_size
    sets_hit = max(cache.num_sets // math.gcd(stride_lines, cache.num_sets), 1)
    return -(-elements // sets_hit)


def _write_pass_elidable(nest: LeafNest, element_size: int, l1: CacheConfig) -> bool:
    """Whether the write pass of every call of ``nest`` may be elided.

    A codelet call touches its element block twice: a read pass immediately
    followed by a write pass over the same addresses.  When no L1 set
    receives more than ``associativity`` of the call's distinct lines (the
    per-set *cohort* bound), every write-pass access finds its line within
    the ``associativity`` most recently used distinct lines of its set — a
    guaranteed hit whose re-reference leaves the set's final recency order
    exactly as the read pass left it (re-applying an access sequence to the
    state it produced reproduces that state), and which, being a hit, never
    reaches the next cache level.  Such write passes can be dropped from the
    emitted stream without changing any hierarchy statistic at any level;
    the raw ``accesses`` bookkeeping is unaffected.

    The cohort test is conservative: it is evaluated exactly when the
    element stride is a whole number of lines (:func:`_set_cohort`) or a
    divisor of the line size (the call spans a short consecutive line run),
    and anything else keeps the doubled emission.
    """
    elements = nest.elements_per_call
    if elements == 1:
        return True  # read and write hit the same single line back to back
    line_size = l1.line_size
    stride_bytes = nest.elem_stride * element_size
    if stride_bytes <= 0:
        return False
    if stride_bytes % line_size == 0:
        return _set_cohort(elements, stride_bytes, l1) <= l1.associativity
    if line_size % stride_bytes == 0:
        span = (elements * stride_bytes + line_size - 1) // line_size + 1
        return span <= l1.num_lines
    return False


def _fold_repeated_calls(
    nest: LeafNest,
    bases: np.ndarray,
    element_size: int,
    base_address: int,
    l1: CacheConfig,
    l2: CacheConfig | None,
) -> tuple[LeafNest, int, int] | None:
    """Fold runs of calls over one line sequence: ``(nest, l1, l2)`` or ``None``.

    When a call's elements lie whole lines apart, an inner stride of
    ``line / g`` bytes, and every row start (per instance and outer
    iteration) within the first inner stride of its line, then each run of
    ``g`` back-to-back inner calls touches one sequence S of ``2^k``
    distinct lines.  The returned nest keeps one call per run (``inner_count
    -> ceil(inner_count / g)``, ``inner_stride -> g * inner_stride``); the
    ints are the exact L1 and L2 misses per instance of the dropped calls.

    * S fits L1 (its write pass is elidable): the dropped calls are all-hit
      re-applications of S that change no LRU state at any level.
    * S thrashes L1: its per-set cohort is uniform and exceeds the ways, so
      once the kept call has applied S (read and write pass), every further
      application misses L1 in full and leaves L1 unchanged — ``2^k`` L1
      misses and L2 accesses each.  L2 has then seen one full S, so further
      applications are all L2 hits (cohort within the L2 ways) or all L2
      misses (cyclic thrash); both leave L2 unchanged.  That needs S to be
      ``2^k`` distinct L2 lines in progression, i.e. an element stride that
      is a whole number of L2 lines; otherwise the nest is not folded.

    DESIGN.md §10 spells out the argument.
    """
    inner_bytes = nest.inner_stride * element_size
    line_size = l1.line_size
    if nest.inner_count < 2 or inner_bytes <= 0 or line_size % inner_bytes:
        return None
    group = line_size // inner_bytes
    elements = nest.elements_per_call
    stride_bytes = nest.elem_stride * element_size
    if group == 1 or (elements > 1 and (stride_bytes <= 0 or stride_bytes % line_size)):
        return None
    period = line_size // math.gcd(nest.outer_stride * element_size, line_size)
    rows = np.arange(min(nest.outer_count, period), dtype=np.int64) * nest.outer_stride
    row_starts = base_address + (bases[:, None] + rows[None, :]) * element_size
    if np.any(row_starts % line_size >= inner_bytes):
        return None
    runs = -(-nest.inner_count // group)
    folded = replace(nest, inner_count=runs, inner_stride=group * nest.inner_stride)
    if _write_pass_elidable(nest, element_size, l1):
        return folded, 0, 0
    l1_misses = 2 * elements * nest.outer_count * (nest.inner_count - runs)
    if l2 is None:
        return folded, l1_misses, 0
    if stride_bytes % l2.line_size:
        return None
    thrashes_l2 = _set_cohort(elements, stride_bytes, l2) > l2.associativity
    return folded, l1_misses, l1_misses if thrashes_l2 else 0


def _lines_of_elements(
    grid: np.ndarray, base_address: int, element_size: int, line_size: int
) -> np.ndarray:
    """Cache-line numbers of nonnegative element indices.

    Equivalent to ``(base_address + grid * element_size) // line_size`` but
    expressed as a right shift when the geometry allows it (power-of-two
    elements per line, element-aligned base) — integer division is by far
    the slowest ALU pass of the expansion pipeline.
    """
    if line_size % element_size == 0 and base_address % element_size == 0:
        ratio = line_size // element_size
        if ratio & (ratio - 1) == 0:
            shift = ratio.bit_length() - 1
            base = base_address // element_size
            return (base + grid) >> shift if base else grid >> shift
    return (base_address + grid * element_size) // line_size


def _expand_group_analytic(
    k: int,
    outer_count: int,
    inner_count: int,
    lines_per_call: int,
    passes: int,
    bases: np.ndarray,
    outer_stride: int,
    inner_stride: int,
    line_size: int,
    element_size: int,
    base_address: int,
) -> np.ndarray:
    """Collapsed int32 line numbers of a group of line-aligned unit-stride nests.

    Returns shape ``(instances, emitted_per_instance)``: per call, one line
    when the call fits a single line (the read and the write pass collapse
    together), otherwise the ``lines_per_call`` run once (``passes == 1``,
    the write pass elided) or twice (read pass then write pass, each already
    collapsed to one entry per line).
    """
    base_lines = ((base_address + bases * element_size) // line_size).astype(np.int32)
    outer_lines = outer_stride * element_size // line_size
    inner_lines = inner_stride * element_size // line_size
    j = np.arange(outer_count, dtype=np.int32) * outer_lines
    kk = np.arange(inner_count, dtype=np.int32) * inner_lines
    grid = base_lines[:, None, None] + j[None, :, None] + kk[None, None, :]
    runs = grid[..., None] + np.arange(lines_per_call, dtype=np.int32)
    if lines_per_call == 1 or passes == 1:
        return runs.reshape(bases.shape[0], -1)
    doubled = np.broadcast_to(
        runs[:, :, :, None, :],
        (bases.shape[0], outer_count, inner_count, 2, lines_per_call),
    )
    return doubled.reshape(bases.shape[0], -1)


def _expand_group_raw(
    k: int,
    outer_count: int,
    inner_count: int,
    passes: int,
    bases: np.ndarray,
    outer_stride: int,
    inner_stride: int,
    elem_stride: int,
    line_size: int,
    element_size: int,
    base_address: int,
) -> np.ndarray:
    """Per-access int32 line numbers of a group of same-shape nests.

    ``passes == 2`` emits the read and the write pass per call; ``passes ==
    1`` emits only the read pass (the write pass was proven an elidable
    guaranteed hit).
    """
    elements = 1 << k
    j = np.arange(outer_count, dtype=np.int32) * outer_stride
    kk = np.arange(inner_count, dtype=np.int32) * inner_stride
    e = np.arange(elements, dtype=np.int32) * elem_stride
    grid = (
        bases.astype(np.int32)[:, None, None, None]
        + j[None, :, None, None]
        + kk[None, None, :, None]
        + e[None, None, None, :]
    )
    lines = _lines_of_elements(grid, base_address, element_size, line_size)
    if passes == 1:
        return lines.reshape(bases.shape[0], -1)
    doubled = np.broadcast_to(
        lines[:, :, :, None, :],
        (bases.shape[0], outer_count, inner_count, 2, elements),
    )
    return doubled.reshape(bases.shape[0], -1)


class _BlockTable:
    """Per-block metadata and per-instance arrays collected from a nest stream.

    Collecting first and chunking afterwards keeps the Python-level work
    proportional to the number of *blocks* (the plan's structure) while every
    per-instance quantity — stream position, base, chunk assignment, scatter
    offset — is handled with vectorised array operations.  The per-instance
    arrays are a few machine words per nest, orders of magnitude smaller than
    the trace itself.
    """

    def __init__(
        self,
        line_size: int,
        element_size: int,
        base_address: int,
        chunk_accesses: int,
        caches: tuple[CacheConfig, CacheConfig | None] | None = None,
    ):
        self.line_size = line_size
        self.element_size = element_size
        self.base_address = base_address
        self.chunk_accesses = chunk_accesses
        self.caches = caches
        self.nests: list[LeafNest] = []
        self.bases: list[np.ndarray] = []
        self.starts: list[np.ndarray] = []
        self.weights: list[np.ndarray | None] = []
        self.raw: list[int] = []
        self.emitted: list[int] = []
        self.folded: list[tuple[int, int]] = []
        self.group_ids: list[int] = []
        self._groups: dict[tuple, int] = {}
        self.group_info: list[tuple] = []

    def add(self, block: NestBlock) -> None:
        nest = block.nest
        if 2 * nest.total_elements > self.chunk_accesses and nest.calls > 1:
            # A single instance overflows the chunk budget: split it along its
            # outer (or, failing that, inner) loop axis into budget-sized
            # sub-nests.  The pieces cover the original call sequence in
            # order, so expansion and collapse are unchanged; only the chunk
            # boundaries (which are semantically irrelevant) move.
            elements = nest.elements_per_call
            if nest.outer_count > 1:
                per_row = nest.inner_count * 2 * elements
                rows = max(1, self.chunk_accesses // per_row)
                for row in range(0, nest.outer_count, rows):
                    top = min(row + rows, nest.outer_count)
                    sub = replace(
                        nest,
                        base=nest.base + row * nest.outer_stride,
                        outer_count=top - row,
                    )
                    self.add(
                        NestBlock(
                            sub, block.offsets, block.starts + row * per_row, block.weights
                        )
                    )
                return
            per_row = 2 * elements
            rows = max(1, self.chunk_accesses // per_row)
            for row in range(0, nest.inner_count, rows):
                top = min(row + rows, nest.inner_count)
                sub = replace(
                    nest,
                    base=nest.base + row * nest.inner_stride,
                    inner_count=top - row,
                )
                self.add(
                    NestBlock(sub, block.offsets, block.starts + row * per_row, block.weights)
                )
            return
        offsets = block.offsets
        bases = nest.base + offsets if offsets.shape[0] > 1 or offsets[0] else None
        if bases is None:
            bases = np.full(1, nest.base, dtype=np.int64)
        low, high = _nest_element_range(nest, bases)
        if self.base_address + low * self.element_size < 0:
            raise ValueError(
                f"nest {nest} produces negative byte addresses "
                f"(min element index {low})"
            )
        # The expansion computes in int32 (byte addresses included, on the
        # general line-mapping path).
        if self.base_address + high * self.element_size >= LINE_LIMIT:
            raise ValueError(
                f"nest {nest} reaches byte address 2^31 or beyond "
                f"(max element index {high})"
            )
        raw = 2 * nest.total_elements
        lines_per_call = _analytic_lines_per_call(
            nest, bases, self.line_size, self.element_size, self.base_address
        )
        passes = 2
        folded_l1 = folded_l2 = 0
        if self.caches is not None:
            l1, l2 = self.caches
            if lines_per_call:
                # Line-aligned unit-stride calls touch ``lines_per_call``
                # consecutive lines; their per-set cohort is bounded by
                # ceil(lines_per_call / sets).
                if lines_per_call <= l1.num_lines:
                    passes = 1
            else:
                if _write_pass_elidable(nest, self.element_size, l1):
                    passes = 1
                # Analytic nests never fold: a fold needs several elements
                # per line, and a call's elements whole lines apart.
                fold = _fold_repeated_calls(
                    nest, bases, self.element_size, self.base_address, l1, l2
                )
                if fold is not None:
                    nest, folded_l1, folded_l2 = fold
        if lines_per_call == 1:
            # The read and the write pass over a one-line call collapse to a
            # single emitted entry.
            emitted = nest.calls
        elif lines_per_call:
            emitted = nest.calls * passes * lines_per_call
        else:
            emitted = passes * nest.total_elements
        key = (
            nest.k,
            nest.outer_count,
            nest.inner_count,
            nest.outer_stride,
            nest.inner_stride,
            nest.elem_stride,
            lines_per_call,
            passes,
        )
        group_id = self._groups.get(key)
        if group_id is None:
            group_id = self._groups[key] = len(self.group_info)
            self.group_info.append(key + (emitted,))
        self.nests.append(nest)
        self.bases.append(bases)
        self.starts.append(block.starts)
        self.weights.append(block.weights)
        self.raw.append(raw)
        self.emitted.append(emitted)
        self.folded.append((folded_l1, folded_l2))
        self.group_ids.append(group_id)


def _expand_chunk(
    table: _BlockTable,
    bases: np.ndarray,
    group_ids: np.ndarray,
    emitted: np.ndarray,
    scatter_starts: np.ndarray,
) -> np.ndarray:
    """Expand one chunk's instances (given in execution order) to int32 line numbers.

    Instance ``i`` fills ``out[scatter_starts[i] : scatter_starts[i] +
    emitted[i]]``.
    """
    total_emitted = int(scatter_starts[-1] + emitted[-1])
    out = np.empty(total_emitted, dtype=np.int32)
    for group_id in np.unique(group_ids):
        (
            k,
            outer_count,
            inner_count,
            ostride,
            istride,
            estride,
            lines_per_call,
            passes,
            per,
        ) = table.group_info[group_id]
        mask = group_ids == group_id
        group_bases = bases[mask]
        if lines_per_call:
            block = _expand_group_analytic(
                k, outer_count, inner_count, lines_per_call, passes, group_bases,
                ostride, istride,
                table.line_size, table.element_size, table.base_address,
            )
        else:
            block = _expand_group_raw(
                k, outer_count, inner_count, passes, group_bases,
                ostride, istride, estride,
                table.line_size, table.element_size, table.base_address,
            )
        positions = scatter_starts[mask][:, None] + np.arange(per, dtype=np.int64)[None, :]
        out[positions.reshape(-1)] = block.reshape(-1)
    return out


def _chunk_weighted_ranges(
    weights: np.ndarray,
    scatter_starts: np.ndarray,
    emitted: np.ndarray,
    kept: np.ndarray,
) -> np.ndarray:
    """``(start, stop, weight)`` rows of a chunk's weighted instances.

    Consecutive instances of one weight merge into one range.  ``kept``
    lists the expanded positions that survive the collapse, so the number
    of its entries below a position is that position's collapsed index.
    Ranges whose lines all collapsed away are dropped: they hold no line
    that could miss.
    """
    index = np.flatnonzero(weights > 1)
    if index.shape[0] == 0:
        return _no_ranges()
    first = np.ones(index.shape[0], dtype=bool)
    first[1:] = (np.diff(index) != 1) | (weights[index[1:]] != weights[index[:-1]])
    last = np.ones(index.shape[0], dtype=bool)
    last[:-1] = first[1:]
    run_first, run_last = index[first], index[last]
    ranges = np.stack(
        [
            np.searchsorted(kept, scatter_starts[run_first]),
            np.searchsorted(kept, scatter_starts[run_last] + emitted[run_last]),
            weights[run_first],
        ],
        axis=1,
    )
    return ranges[ranges[:, 1] > ranges[:, 0]]


def stream_line_chunks(
    nests: Iterable[LeafNest | NestBlock],
    line_size: int,
    element_size: int = DEFAULT_ELEMENT_SIZE,
    base_address: int = 0,
    chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
    caches: tuple[CacheConfig, CacheConfig | None] | None = None,
) -> Iterator[LineChunk]:
    """Stream a nest sequence as bounded, duplicate-collapsed line chunks.

    Accepts :class:`NestBlock` groups (as produced by
    :meth:`repro.wht.interpreter.PlanInterpreter.iter_nest_blocks`, instances
    ordered by their ``starts``) or plain :class:`LeafNest` events (taken in
    iteration order), and yields :class:`LineChunk` batches of roughly
    ``chunk_accesses`` raw accesses each (instances larger than the budget
    are split along their loop axes; only a single oversized codelet *call*,
    which never occurs for realistic leaf sizes, can exceed the bound).
    For unweighted blocks, concatenating the chunks' ``lines`` yields
    exactly ``collapse_consecutive(full_trace.line_addresses(...))``; the
    full trace is never materialised — only per-nest descriptors and one
    bounded chunk of expanded lines exist at any time.

    ``caches`` — the ``(L1, L2)`` geometry the stream will be simulated on
    (``L2`` may be ``None``; the L1 line size must equal ``line_size``) —
    turns on repeated-pass elision.  Each codelet call's *write pass* is
    dropped whenever no L1 set provably receives more than its ways of the
    call's lines (see :func:`_write_pass_elidable`), and each run of
    back-to-back calls over one line sequence keeps a single call, the
    misses of the others being counted exactly in the chunks'
    ``folded_l1_misses``/``folded_l2_misses`` (see
    :func:`_fold_repeated_calls`).  Both are exact: the shortened stream plus
    the folded counts produce bit-identical hierarchy statistics, and the
    chunks' raw ``accesses`` counts still include every dropped access.
    With the default ``None`` the exact collapsed line sequence is emitted.

    Weighted blocks (a walk given ``line_elements``, see
    :meth:`repro.wht.interpreter.PlanInterpreter.iter_nest_blocks`) list
    only the kept copies of each folded run of sub-plan invocations.  Their
    instances' raw accesses and folded miss counts are multiplied by the
    weight, and their collapsed lines are marked in the chunks'
    ``weighted_ranges`` so the hierarchy can count their misses ``weight``
    times.  ``line_elements`` must be ``line_size / element_size`` and the
    base address line-aligned, so that a folded run's invocations share
    their lines here as they did in the walk.  Chunks are budgeted by the
    accesses actually expanded, not the weighted ones.

    Addresses are validated non-negative here, once, at the pipeline
    boundary — per block, from the nest geometry — so the downstream
    simulators can skip their per-call validation scans.
    """
    check_positive_int(line_size, "line_size")
    check_positive_int(element_size, "element_size")
    check_positive_int(chunk_accesses, "chunk_accesses")
    if caches is not None and caches[0].line_size != line_size:
        raise ValueError(
            f"line_size {line_size} differs from the L1 line size "
            f"{caches[0].line_size}"
        )
    if base_address < 0:
        raise ValueError(f"base_address must be nonnegative, got {base_address}")

    table = _BlockTable(line_size, element_size, base_address, chunk_accesses, caches)
    cursor = 0
    for item in nests:
        if isinstance(item, NestBlock):
            block = item
            if block.instances == 0:
                continue
            cursor = max(
                cursor,
                int(block.starts.max()) + block.accesses_per_instance,
            )
        else:
            block = NestBlock(
                item, _SINGLE_OFFSET, np.array([cursor], dtype=np.int64)
            )
            cursor += block.accesses_per_instance
        if block.weights is not None and base_address % line_size:
            raise ValueError(
                f"weighted nest blocks need a line-aligned base_address, "
                f"got {base_address}"
            )
        table.add(block)
    if not table.nests:
        return

    counts = np.array([b.shape[0] for b in table.bases])
    block_ids = np.repeat(np.arange(len(table.nests)), counts)
    all_bases = np.concatenate(table.bases)
    all_starts = np.concatenate(table.starts)
    weighted = any(w is not None for w in table.weights)
    all_weights = (
        np.concatenate(
            [
                np.ones(count, dtype=np.int64) if w is None else w
                for w, count in zip(table.weights, counts.tolist())
            ]
        )
        if weighted
        else None
    )
    table.bases.clear()
    table.starts.clear()
    table.weights.clear()
    order = np.argsort(all_starts, kind="stable")
    del all_starts

    sorted_blocks = block_ids[order]
    sorted_bases = all_bases[order]
    sorted_weights = all_weights[order] if weighted else None
    del block_ids, all_bases, all_weights, order
    raw_arr = np.array(table.raw, dtype=np.int64)
    emitted_arr = np.array(table.emitted, dtype=np.int64)
    gid_arr = np.array(table.group_ids)
    sorted_raw = raw_arr[sorted_blocks]
    sorted_emitted = emitted_arr[sorted_blocks]
    sorted_gids = gid_arr[sorted_blocks]
    # Chunks are budgeted by expanded accesses; ``accesses`` reports the
    # weighted ones.
    cumulative_raw = np.cumsum(sorted_raw)
    cumulative_accesses = (
        np.cumsum(sorted_raw * sorted_weights) if weighted else cumulative_raw
    )
    del sorted_raw
    # Per-instance folded (L1, L2) misses, accumulated like the raw counts.
    folded_arr = np.array(table.folded, dtype=np.int64)
    cumulative_folded = None
    if folded_arr.any():
        sorted_folded = folded_arr[sorted_blocks]
        if weighted:
            sorted_folded *= sorted_weights[:, None]
        cumulative_folded = np.cumsum(sorted_folded, axis=0)
        del sorted_folded

    instances = sorted_blocks.shape[0]
    prev_last: int | None = None
    low = 0
    consumed_raw = 0
    folded_l1 = folded_l2 = 0
    while low < instances:
        # Greedy chunking: take the shortest instance prefix reaching the
        # access budget (matching a "flush once the buffer fills" stream).
        high = int(
            np.searchsorted(
                cumulative_raw, consumed_raw + chunk_accesses, side="left"
            )
        ) + 1
        high = min(high, instances)
        emitted = sorted_emitted[low:high]
        scatter_starts = np.zeros(emitted.shape[0], dtype=np.int64)
        np.cumsum(emitted[:-1], out=scatter_starts[1:])
        lines = _expand_chunk(
            table, sorted_bases[low:high], sorted_gids[low:high], emitted, scatter_starts
        )
        # Keep the first line of each run of equal lines, across chunks too.
        keep = np.empty(lines.shape[0], dtype=bool)
        keep[0] = prev_last is None or int(lines[0]) != prev_last
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        kept = np.flatnonzero(keep)  # a gather beats boolean indexing here
        collapsed = lines[kept]
        if collapsed.shape[0]:
            prev_last = int(collapsed[-1])
        ranges = (
            _chunk_weighted_ranges(sorted_weights[low:high], scatter_starts, emitted, kept)
            if weighted
            else _no_ranges()
        )
        below = int(cumulative_accesses[low - 1]) if low else 0
        accesses = int(cumulative_accesses[high - 1]) - below
        consumed_raw = int(cumulative_raw[high - 1])
        if cumulative_folded is not None:
            below_folded = cumulative_folded[low - 1] if low else 0
            folded_l1, folded_l2 = (
                int(v) for v in cumulative_folded[high - 1] - below_folded
            )
        low = high
        yield LineChunk(
            lines=collapsed,
            accesses=accesses,
            folded_l1_misses=folded_l1,
            folded_l2_misses=folded_l2,
            weighted_ranges=ranges,
        )


def collapse_consecutive(line_addresses: np.ndarray) -> tuple[np.ndarray, int]:
    """Remove runs of consecutive identical line addresses.

    All accesses of a run after the first are guaranteed hits in any level of
    the hierarchy and do not change LRU state, so dropping them preserves the
    miss count exactly while shrinking the trace (typically by the number of
    elements per line for unit-stride passes).  Returns the collapsed array
    and the number of removed (guaranteed-hit) accesses.
    """
    arr = np.asarray(line_addresses)
    if arr.ndim != 1:
        raise ValueError("line_addresses must be a 1-D array")
    keep = np.ones(arr.shape[0], dtype=bool)
    keep[1:] = arr[1:] != arr[:-1]
    collapsed = arr[keep]
    return collapsed, int(arr.shape[0] - collapsed.shape[0])
