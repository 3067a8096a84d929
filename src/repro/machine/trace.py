"""Memory-trace generation from plan execution.

Per codelet call the WHT package's unrolled code loads its ``2^k`` input
elements and then stores the ``2^k`` results back to the same locations; the
trace therefore contains, for every call, one read pass followed by one write
pass over the call's strided element block.

Three views of that trace are provided (see DESIGN.md §3):

* :class:`TraceBuilder` (and the one-off :func:`stream_line_chunks`) — the
  measurement pipeline.  It recurses over the plan tree and emits the
  plan's cache-line stream as bounded, duplicate-collapsed int32
  :class:`LineChunk` batches.  Each small sub-plan is built once per
  ``(sub-plan, stride, base residue)`` into a memoised template and
  replayed at every invocation by adding the invocation's line offset;
  leaf nests expand with one broadcast each, line-aligned unit-stride ones
  analytically.  The full trace is never held in memory.  Given the cache
  geometry, the stream also drops provably repeated passes: write passes
  that are guaranteed hits, runs of back-to-back codelet calls over one
  line sequence, whose misses are counted exactly instead of simulated,
  and all but three of each run of back-to-back sub-plan invocations over
  one line sequence, the last marked as a weighted range whose misses the
  hierarchy counts once per invocation it stands for (repeated-pass
  elision, DESIGN.md §10).  :func:`squeeze_plan` turns a plan into the
  smaller plan whose trace is one *set class* of the original's, which
  the simulated machine streams on a geometry with as many times fewer
  sets (DESIGN.md §10, "Set classes").
* :func:`plan_lines` — a small plan's whole collapsed line stream in one
  chunk, one numpy broadcast per plan node, without elision or folds
  (how the machine streams small squeezed plans: DESIGN.md §10).
* :func:`trace_from_nests` / :class:`MemoryTrace` — the eager byte-address
  view over :meth:`repro.wht.interpreter.PlanInterpreter.profile`'s leaf
  nests, retained for tests, ablations and any consumer that wants the
  exact per-element access sequence.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.machine.cache import LINE_LIMIT, CacheConfig, _as_lines
from repro.util.lru import LRUCache
from repro.util.validation import check_positive_int
from repro.wht.interpreter import LeafNest
from repro.wht.plan import Plan, Small, _small_unchecked, _split_unchecked

__all__ = [
    "MemoryTrace",
    "LineChunk",
    "SplicedLineChunk",
    "trace_from_nests",
    "nest_addresses",
    "collapse_consecutive",
    "TraceBuilder",
    "stream_line_chunks",
    "plan_lines",
    "splice_line_chunks",
    "squeeze_plan",
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

#: Sub-plans of at most this many raw accesses are built once into a
#: memoised template and replayed (see :class:`TraceBuilder`); larger ones
#: are generated child by child, as is any copy whose weighted accesses
#: would pass the chunk budget.
TEMPLATE_ACCESSES = 1 << 16

#: Bound on the total lines a :class:`TraceBuilder`'s template memo holds
#: (1 MB of int32 lines).
TEMPLATE_MEMO_LINES = 1 << 18


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
    :class:`TraceBuilder`), so their misses at every level count ``weight``
    times.  ``accesses`` and
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
    offset added; segments accumulate into one :class:`SplicedLineChunk`,
    which flushes before a segment would take it past ``chunk_lines`` lines.
    Incoming chunks are never split, so a spliced chunk passes
    ``chunk_lines`` only when it is one incoming chunk that alone does.

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
            if buffered and buffered + chunk.lines.shape[0] > chunk_lines:
                yield flush()
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


def _nest_element_range(nest: LeafNest) -> tuple[int, int]:
    """Smallest and largest element index the nest touches."""
    low = high = nest.base
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
    if (base_address + nest.base * element_size) % line_size != 0:
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

    A codelet call reads its element block, then writes it back.  When no
    L1 set receives more than its ways of the call's lines (the *cohort*
    bound, exact for element strides that are a whole number of lines, via
    :func:`_set_cohort`, or a divisor of the line), the write pass is all
    hits that leave every level's state as the read pass left it, so it is
    dropped (DESIGN.md §10).  The raw ``accesses`` still count it.
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
    element_size: int,
    base_address: int,
    l1: CacheConfig,
    l2: CacheConfig | None,
    elidable: bool,
) -> tuple[LeafNest, int, int] | None:
    """Fold runs of calls over one line sequence: ``(nest, l1, l2)`` or ``None``.

    When a call's elements lie whole lines apart, an inner stride of
    ``line / g`` bytes, and every row start (per outer iteration) within
    the first inner stride of its line, then each run of
    ``g`` back-to-back inner calls touches one sequence S of ``2^k``
    distinct lines.  The returned nest keeps one call per run (``inner_count
    -> ceil(inner_count / g)``, ``inner_stride -> g * inner_stride``); the
    ints are the exact L1 and L2 misses of the dropped calls.

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
    row_bytes = nest.outer_stride * element_size
    first = base_address + nest.base * element_size
    rows = min(nest.outer_count, line_size // math.gcd(row_bytes, line_size))
    if any((first + row * row_bytes) % line_size >= inner_bytes for row in range(rows)):
        return None
    runs = -(-nest.inner_count // group)
    folded = replace(nest, inner_count=runs, inner_stride=group * nest.inner_stride)
    if elidable:
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
    """Cache-line numbers of nonnegative element indices, overwriting ``grid``.

    Equivalent to ``(base_address + grid * element_size) // line_size`` but
    expressed as an in-place right shift when the geometry allows it
    (power-of-two elements per line, element-aligned base) — integer
    division is by far the slowest ALU pass of the expansion.
    """
    if line_size % element_size == 0 and base_address % element_size == 0:
        ratio = line_size // element_size
        if ratio & (ratio - 1) == 0:
            if base_address:
                grid += base_address // element_size
            grid >>= ratio.bit_length() - 1
            return grid
    return (base_address + grid * element_size) // line_size


def _analytic_lines(
    nest: LeafNest,
    lines_per_call: int,
    passes: int,
    line_size: int,
    element_size: int,
    base_address: int,
) -> np.ndarray:
    """Int32 line numbers of a line-aligned unit-stride nest, collapsed per call.

    Per call, one line when the call fits a single line (the read and the
    write pass collapse together), otherwise the ``lines_per_call`` run once
    (``passes == 1``, the write pass elided) or twice (read pass then write
    pass, each already collapsed to one entry per line).
    """
    base_line = (base_address + nest.base * element_size) // line_size
    j = np.arange(nest.outer_count, dtype=np.int32) * (
        nest.outer_stride * element_size // line_size
    )
    k = np.arange(nest.inner_count, dtype=np.int32) * (
        nest.inner_stride * element_size // line_size
    )
    run = np.arange(lines_per_call, dtype=np.int32)
    if lines_per_call > 1 and passes == 2:
        run = np.concatenate([run, run])
    return ((base_line + j[:, None, None] + k[None, :, None]) + run).reshape(-1)


def _raw_lines(
    nest: LeafNest, passes: int, line_size: int, element_size: int, base_address: int
) -> np.ndarray:
    """Per-access int32 line numbers of a nest.

    ``passes == 2`` emits the read and the write pass per call; ``passes ==
    1`` emits only the read pass (the write pass was proven an elidable
    guaranteed hit).
    """
    j = np.arange(nest.outer_count, dtype=np.int32) * nest.outer_stride
    k = np.arange(nest.inner_count, dtype=np.int32) * nest.inner_stride
    e = np.arange(nest.elements_per_call, dtype=np.int32) * nest.elem_stride
    if passes == 2:
        e = np.concatenate([e, e])
    grid = (nest.base + j[:, None, None] + k[None, :, None]) + e
    return _lines_of_elements(grid, base_address, element_size, line_size).reshape(-1)


def _fold_group(base: int, stride: int, child_stride: int, line_elements: int) -> int:
    """Invocations per foldable group of a sub-plan's stride loop, or 0.

    The stride loop invokes the child at bases ``row + k * stride``.  When
    the child's stride is a multiple of the line length, its line sequence
    depends on its base only through the base's line; a group of ``g =
    line_elements / stride`` consecutive ``k`` shares that line when every
    row starts within the first ``stride`` elements of its line (rows lie
    ``child_size * child_stride`` apart, a multiple of the line, so they
    share the base's residue).  Folding keeps three invocations per group
    (:func:`_keep_ends`), so groups of three or fewer are left alone.  A
    template's base is its residue, which leaves the same residue as every
    base it is replayed at.
    """
    if not line_elements or child_stride % line_elements or stride >= line_elements:
        return 0
    if line_elements % stride or base % line_elements >= stride:
        return 0
    group = line_elements // stride  # divides ``inner``: inner * stride is a line multiple
    return group if group > 3 else 0


def _keep_ends(runs: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices kept, and their weights, when each of ``runs`` back-to-back
    runs of ``size`` keeps its indices 0, 1 and last, the last standing for
    the ``size - 2`` from 2 on."""
    kept = (np.arange(runs)[:, None] * size + [0, 1, size - 1]).reshape(-1)
    return kept, np.tile(np.array([1, 1, size - 2], dtype=np.int64), runs)


def _slice(nest: LeafNest, outer: bool, start: int, count: int) -> LeafNest:
    """Iterations ``start:start + count`` of the nest's outer or inner loop."""
    if outer:
        return replace(nest, base=nest.base + start * nest.outer_stride, outer_count=count)
    return replace(nest, base=nest.base + start * nest.inner_stride, inner_count=count)


class _Stream(NamedTuple):
    """A line stream and its bookkeeping, as in a :class:`LineChunk` (whose
    fields templates use); a leaf nest's lines are not yet collapsed."""

    lines: np.ndarray
    accesses: int
    folded_l1_misses: int = 0
    folded_l2_misses: int = 0
    weighted_ranges: np.ndarray = _no_ranges()


class _Copies(NamedTuple):
    """Back-to-back copies of line streams.

    Copy ``i`` is ``streams[which[i]]`` with ``shift[i]`` added to every
    line, and stands for ``weights[i]`` back-to-back copies of itself.
    """

    streams: "list[_Stream | LineChunk]"
    which: np.ndarray
    shift: np.ndarray
    weights: np.ndarray


def _line_count(stream: "_Stream | LineChunk") -> int:
    return stream.lines.shape[0]


def _one_copy(stream: _Stream, weight: int) -> _Copies:
    return _Copies(
        [stream],
        np.zeros(1, dtype=np.intp),
        np.zeros(1, dtype=np.int64),
        np.full(1, weight, dtype=np.int64),
    )


class _ChunkWriter:
    """Collects copies into duplicate-collapsed :class:`LineChunk` batches.

    With a ``budget``, :meth:`write` yields a chunk once the buffered raw
    accesses reach it and never lets a chunk pass it, except with a single
    copy that alone exceeds it.  Without one, :meth:`append` collects
    everything into the one chunk :meth:`flush` returns (a template).
    Copies are concatenated as they are and collapsed at flush, across copy
    junctions and, through the last flushed line, across chunks.
    """

    def __init__(self, budget: int | None = None):
        self.budget = budget
        self._lines: list[np.ndarray] = []
        self._ranges: list[np.ndarray] = []
        self._length = 0
        self._accesses_buffered = 0
        self._folded = np.zeros(2, dtype=np.int64)  # L1 and L2 misses
        self._last: int | None = None

    @property
    def pending(self) -> bool:
        """Whether anything was buffered since the last flush."""
        return bool(self._lines)

    @staticmethod
    def _accesses(copies: _Copies) -> np.ndarray:
        """Weighted raw accesses per copy."""
        streams = copies.streams
        if len(streams) == 1:
            return copies.weights * streams[0].accesses
        per_stream = np.array([s.accesses for s in streams], dtype=np.int64)
        return per_stream[copies.which] * copies.weights

    def append(self, copies: _Copies) -> None:
        """Buffer every copy, whatever the budget."""
        self._append(copies, 0, copies.which.shape[0], int(self._accesses(copies).sum()))

    def write(self, copies: _Copies) -> Iterator[LineChunk]:
        """Buffer the copies, yielding each chunk the budget fills."""
        cumulative = np.cumsum(self._accesses(copies)).tolist()
        low, total = 0, len(cumulative)
        while low < total:
            below = cumulative[low - 1] if low else 0
            room = self.budget - self._accesses_buffered
            high = bisect.bisect_right(cumulative, below + room, low)
            if high == low:
                if self.pending:
                    yield self.flush()
                    continue
                high = low + 1
            self._append(copies, low, high, cumulative[high - 1] - below)
            low = high
            if self._accesses_buffered >= self.budget:
                yield self.flush()

    def _append(self, copies: _Copies, low: int, high: int, accesses: int) -> None:
        streams, weights = copies.streams, copies.weights[low:high]
        shift = copies.shift[low:high].astype(np.int32)
        if len(streams) == 1:
            lines = streams[0].lines
            if high - low > 1:
                lines = (lines + shift[:, None]).reshape(-1)
            elif shift[0]:
                lines = lines + shift[0]
        else:
            # Gather each copy's stream out of one pool of the streams.
            sizes = np.array([s.lines.shape[0] for s in streams], dtype=np.int64)
            lengths = sizes[copies.which[low:high]]
            pool_starts = (np.cumsum(sizes) - sizes)[copies.which[low:high]]
            index = np.repeat(pool_starts - (np.cumsum(lengths) - lengths), lengths)
            index += np.arange(index.shape[0])
            lines = np.concatenate([s.lines for s in streams])[index]
            lines += np.repeat(shift, lengths)
        if (weights > 1).any() or any(s.weighted_ranges.shape[0] for s in streams):
            self._ranges.append(self._copy_ranges(copies, low, high))
        if any(s.folded_l1_misses or s.folded_l2_misses for s in streams):
            folded = np.array(
                [(s.folded_l1_misses, s.folded_l2_misses) for s in streams], dtype=np.int64
            )
            self._folded += weights @ folded[copies.which[low:high]]
        self._lines.append(lines)
        self._length += lines.shape[0]
        self._accesses_buffered += accesses

    def _copy_ranges(self, copies: _Copies, low: int, high: int) -> np.ndarray:
        """Weighted ranges of copies ``low:high``, at buffer positions: each
        stream's own, and one over each weighted copy.  A weighted copy's
        stream holds none of its own (DESIGN.md §10), so none overlap."""
        which, weights = copies.which[low:high], copies.weights[low:high]
        sizes = np.array([s.lines.shape[0] for s in copies.streams], dtype=np.int64)
        lengths = sizes[which]
        starts = self._length + np.cumsum(lengths) - lengths
        heavy = weights > 1
        ranges = [np.stack([starts[heavy], starts[heavy] + lengths[heavy], weights[heavy]], axis=1)]
        for index, stream in enumerate(copies.streams):
            own = stream.weighted_ranges
            if own.shape[0]:
                at = starts[which == index]
                shifted = np.repeat(own[None, :, :], at.shape[0], axis=0)
                shifted[:, :, :2] += at[:, None, None]
                ranges.append(shifted.reshape(-1, 3))
        merged = np.concatenate(ranges)
        return merged[np.argsort(merged[:, 0], kind="stable")]

    def flush(self) -> LineChunk:
        """The buffered copies as one collapsed chunk; empties the buffer."""
        if not self._lines:
            lines = np.zeros(0, dtype=np.int32)
        elif len(self._lines) == 1:
            lines = self._lines[0]
        else:
            lines = np.concatenate(self._lines)
        ranges = np.concatenate(self._ranges) if self._ranges else _no_ranges()
        if lines.shape[0]:
            # Keep the first line of each run of equal lines, across chunks too.
            keep = np.empty(lines.shape[0], dtype=bool)
            keep[0] = self._last is None or int(lines[0]) != self._last
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            if not keep.all():
                kept = np.flatnonzero(keep)  # a gather beats boolean indexing here
                lines = lines[kept]
                if ranges.shape[0]:
                    # Entries of ``kept`` below a position count its collapsed
                    # index; a range whose lines all collapsed away is dropped,
                    # as it holds no line that could miss.
                    ranges = np.stack(
                        [
                            np.searchsorted(kept, ranges[:, 0]),
                            np.searchsorted(kept, ranges[:, 1]),
                            ranges[:, 2],
                        ],
                        axis=1,
                    )
                    ranges = ranges[ranges[:, 1] > ranges[:, 0]]
            if lines.shape[0]:
                self._last = int(lines[-1])
        accesses, (folded_l1, folded_l2) = self._accesses_buffered, self._folded.tolist()
        self._lines, self._ranges, self._length = [], [], 0
        self._accesses_buffered = 0
        self._folded = np.zeros(2, dtype=np.int64)
        return LineChunk(
            lines=lines,
            accesses=accesses,
            folded_l1_misses=folded_l1,
            folded_l2_misses=folded_l2,
            weighted_ranges=ranges,
        )


class TraceBuilder:
    """Builds a plan's L1 line stream by recursion over the plan tree.

    The stream follows the triple-loop schedule of
    :class:`repro.wht.interpreter.PlanInterpreter`: a leaf child is one
    :class:`LeafNest` over its whole ``(j, k)`` double loop, and a split
    child runs once per ``(j, k)`` invocation at a shifted base.  Those
    ``R * S`` invocations replay one sub-plan: a sub-plan whose raw accesses
    stay within :data:`TEMPLATE_ACCESSES` is built once into a *template*
    (collapsed int32 lines, weighted ranges and folded miss counts, as a
    :class:`LineChunk`) per ``(sub-plan, stride, base residue)`` and replayed
    at each invocation by adding the invocation's line offset.  Moving a
    base by ``line_size / gcd(element_size, line_size)`` elements (the
    elements of one line, when they divide it) moves every line of the
    stream by the same whole number of lines, so the base's residue modulo
    that period fixes the template and its quotient the line offset; when
    every access of the sub-plan lies a whole number of lines from its
    base, one template serves every base.  The plan itself, a larger
    sub-plan, and a copy whose weighted accesses would pass the chunk
    budget are generated child by child instead, never materialised.
    Templates live in an LRU memo bounded by :data:`TEMPLATE_MEMO_LINES`
    lines in total, so a builder kept across plans (as
    :class:`repro.machine.machine.SimulatedMachine` keeps one) replays the
    sub-plans they share.

    :meth:`stream` yields bounded :class:`LineChunk` batches.  Without
    ``caches`` their concatenated lines are exactly
    ``collapse_consecutive`` of the eager trace's line sequence.  ``caches``
    (the ``(L1, L2)`` geometry the stream will be simulated on; ``L2`` may
    be ``None`` and the L1 line size must equal ``line_size``) turns on
    repeated-pass elision (DESIGN.md §10), all of it exact:

    * the write pass of each codelet call is dropped whenever no L1 set
      provably receives more than its ways of the call's lines
      (:func:`_write_pass_elidable`);
    * each run of back-to-back calls over one line sequence keeps a single
      call, the misses of the others counted exactly in the chunks'
      ``folded_l1_misses``/``folded_l2_misses`` (:func:`_fold_repeated_calls`);
    * with whole elements per line and a line-aligned ``base_address``, each
      run of ``g`` back-to-back sub-plan invocations over one line sequence
      keeps its first two and its last, the last marked in the chunks'
      ``weighted_ranges`` with weight ``g - 2`` (:func:`_fold_group`).

    The simulated machine streams a squeezed plan (:func:`squeeze_plan`) on
    its set-class geometry, so these folds act on one set class.

    The chunks' raw ``accesses`` always count every access, dropped ones
    and weights included.  A chunk holds at most ``chunk_accesses`` of them
    unless a single codelet call does (leaf nests over the budget are split
    along their loop axes).  Addresses are validated once per plan or nest,
    so the downstream simulators can skip their per-call validation scans.
    """

    def __init__(
        self,
        line_size: int,
        element_size: int = DEFAULT_ELEMENT_SIZE,
        base_address: int = 0,
        chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
        caches: tuple[CacheConfig, CacheConfig | None] | None = None,
    ):
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
        self.line_size = line_size
        self.element_size = element_size
        self.base_address = base_address
        self.chunk_accesses = chunk_accesses
        self.caches = caches
        common = math.gcd(element_size, line_size)
        self._period = line_size // common
        self._period_lines = element_size // common
        aligned = line_size % element_size == 0 and base_address % line_size == 0
        self._line_elements = line_size // element_size if caches and aligned else 0
        self._memo: LRUCache[tuple[Plan, int, int], LineChunk] = LRUCache(
            TEMPLATE_MEMO_LINES, weigh=_line_count
        )

    def stream(self, source: Plan | Iterable[LeafNest]) -> Iterator[LineChunk]:
        """Stream a plan, or a :class:`LeafNest` sequence taken in order, as
        bounded, duplicate-collapsed line chunks."""
        if isinstance(source, Plan):
            self._check_span(0, source.size - 1, source)
            pieces = self._expand(source, 0, 1, 1)
        else:
            pieces = self._nests(source)
        writer = _ChunkWriter(self.chunk_accesses)
        for copies in pieces:
            yield from writer.write(copies)
        if writer.pending:
            yield writer.flush()

    def _nests(self, nests: Iterable[LeafNest]) -> Iterator[_Copies]:
        for nest in nests:
            self._check_span(*_nest_element_range(nest), nest)
            yield from self._leaf(nest, 1)

    def _check_span(self, low: int, high: int, what: object) -> None:
        if self.base_address + low * self.element_size < 0:
            raise ValueError(
                f"{what} produces negative byte addresses (min element index {low})"
            )
        # The expansion computes in int32 (byte addresses included, on the
        # general line-mapping path).
        if self.base_address + high * self.element_size >= LINE_LIMIT:
            raise ValueError(
                f"{what} reaches byte address 2^31 or beyond (max element index {high})"
            )

    def _invoke(
        self, node: Plan, bases: np.ndarray, stride: int, weights: np.ndarray
    ) -> Iterator[_Copies]:
        """Copies of ``node`` run at stride ``stride`` from each of ``bases``:
        template replays, except where the sub-plan or a weighted copy of
        it would pass its bound, which are generated instead."""
        accesses = 2 * node.size * node.num_leaves()
        if accesses > TEMPLATE_ACCESSES:
            generated = np.ones(bases.shape[0], dtype=bool)
        else:
            generated = weights * accesses > self.chunk_accesses
        low = 0
        for index in np.flatnonzero(generated).tolist() + [bases.shape[0]]:
            if index > low:
                yield self._replay(node, stride, bases[low:index], weights[low:index])
            if index < bases.shape[0]:
                yield from self._expand(node, int(bases[index]), stride, int(weights[index]))
            low = index + 1

    def _replay(
        self, node: Plan, stride: int, bases: np.ndarray, weights: np.ndarray
    ) -> _Copies:
        if stride * self.element_size % self.line_size == 0:
            # Every access lies a whole number of lines from the base.
            base_line = self.base_address // self.line_size
            shift = (self.base_address + bases * self.element_size) // self.line_size
            return _Copies(
                [self._template(node, stride, 0)],
                np.zeros(bases.shape[0], dtype=np.intp),
                shift - base_line,
                weights,
            )
        residues, which = np.unique(bases % self._period, return_inverse=True)
        return _Copies(
            [self._template(node, stride, residue) for residue in residues.tolist()],
            which,
            bases // self._period * self._period_lines,
            weights,
        )

    def _template(self, node: Plan, stride: int, residue: int) -> LineChunk:
        """``node``'s collapsed stream from base ``residue`` (memoised)."""
        key = (node, stride, residue)
        template = self._memo.get(key)
        if template is None:
            writer = _ChunkWriter()
            for copies in self._expand(node, residue, stride, 1):
                writer.append(copies)
            template = writer.flush()
            self._memo.put(key, template)
        return template

    def _expand(self, node: Plan, base: int, stride: int, weight: int) -> Iterator[_Copies]:
        """``node``'s stream from ``base``, child by child in execution order."""
        if isinstance(node, Small):
            nest = LeafNest(node.n, base, 1, 0, 1, 0, stride)
            yield from self._leaf(nest, weight)
            return
        remaining = node.size  # R in the paper's pseudo-code
        inner = 1  # S in the paper's pseudo-code
        for child in reversed(node.children):
            child_size = child.size
            remaining //= child_size
            child_stride = inner * stride
            block = child_size * child_stride  # one row of the stride loop
            if isinstance(child, Small):
                nest = LeafNest(
                    k=child.n,
                    base=base,
                    outer_count=remaining,
                    outer_stride=block,
                    inner_count=inner,
                    inner_stride=stride,
                    elem_stride=child_stride,
                )
                yield from self._leaf(nest, weight)
            else:
                k, weights = np.arange(inner), np.full(inner, weight, dtype=np.int64)
                group = _fold_group(base, stride, child_stride, self._line_elements)
                if group:
                    # Invocations 0, 1 and the last of each group over one
                    # line sequence, the last standing for the rest.
                    k, group_weights = _keep_ends(inner // group, group)
                    weights = weight * group_weights
                j = np.arange(remaining) * block
                bases = (base + j[:, None] + k * stride).reshape(-1)
                yield from self._invoke(child, bases, child_stride, np.tile(weights, remaining))
            inner *= child_size

    def _leaf(self, nest: LeafNest, weight: int) -> Iterator[_Copies]:
        """The nest's stream, split along its loop axes into pieces whose
        weighted raw accesses fit the chunk budget."""
        limit = max(self.chunk_accesses // weight, 1)
        elements = nest.elements_per_call
        if 2 * nest.total_elements > limit and nest.calls > 1:
            # The pieces cover the original call sequence in order, so
            # expansion and collapse are unchanged; only the chunk
            # boundaries (which are semantically irrelevant) move.
            outer = nest.outer_count > 1
            count = nest.outer_count if outer else nest.inner_count
            rows = max(1, limit // (2 * elements * (nest.inner_count if outer else 1)))
            for row in range(0, count, rows):
                yield from self._leaf(_slice(nest, outer, row, min(rows, count - row)), weight)
            return
        yield _one_copy(self._nest_stream(nest), weight)

    def _nest_stream(self, nest: LeafNest) -> _Stream:
        """One nest's lines, its write passes elided and its repeated calls
        folded where ``caches`` allow (consecutive repeats are collapsed by
        the writer)."""
        line_size, element_size = self.line_size, self.element_size
        raw = 2 * nest.total_elements
        lines_per_call = _analytic_lines_per_call(
            nest, line_size, element_size, self.base_address
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
                elidable = _write_pass_elidable(nest, element_size, l1)
                if elidable:
                    passes = 1
                # Analytic nests never fold: a fold needs several elements
                # per line, and a call's elements whole lines apart.
                fold = _fold_repeated_calls(
                    nest, element_size, self.base_address, l1, l2, elidable
                )
                if fold is not None:
                    nest, folded_l1, folded_l2 = fold
        if lines_per_call:
            lines = _analytic_lines(
                nest, lines_per_call, passes, line_size, element_size, self.base_address
            )
        else:
            lines = _raw_lines(nest, passes, line_size, element_size, self.base_address)
        return _Stream(lines, raw, folded_l1, folded_l2)


def stream_line_chunks(
    source: Plan | Iterable[LeafNest],
    line_size: int,
    element_size: int = DEFAULT_ELEMENT_SIZE,
    base_address: int = 0,
    chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
    caches: tuple[CacheConfig, CacheConfig | None] | None = None,
) -> Iterator[LineChunk]:
    """Stream a plan (or a leaf-nest sequence) as bounded line chunks.

    A one-off :meth:`TraceBuilder.stream`, with a fresh template memo; see
    :class:`TraceBuilder` for the arguments and the chunks' contract.
    """
    return TraceBuilder(
        line_size, element_size, base_address, chunk_accesses, caches
    ).stream(source)


def squeeze_plan(plan: Plan, low: int, high: int) -> Plan:
    """The plan whose trace is ``plan``'s *set class 0* with element-index
    bits ``low:high`` deleted.

    Class 0 is the accesses, of ``plan`` run from element 0, whose element
    indices have bits ``low:high`` all zero.  Along a path of the plan tree
    each node owns a contiguous range of index bits (a split's rightmost
    child the lowest), and the loop counters of the triple loop own the
    ranges of the other children; so deleting the bits each node owns
    inside ``low:high`` from its exponent leaves a plan whose triple loop
    runs exactly class 0's accesses, in order, with those bits deleted.  A
    leaf may reach exponent 0, a one-element codelet that reads and writes
    its element (DESIGN.md §10, "Set classes").
    """

    def squeezed(node: Plan, bit: int) -> Plan:
        lost = max(0, min(high, bit + node.n) - max(low, bit))
        if not lost:
            return node
        if isinstance(node, Small):
            return _small_unchecked(node.n - lost)
        children = []
        for child in reversed(node.children):
            children.append(squeezed(child, bit))
            bit += child.n
        return _split_unchecked(tuple(reversed(children)), node.n - lost)

    return squeezed(plan, 0)


def _elements(node: Plan, stride: int) -> np.ndarray:
    """Int32 element indices of every access of ``node`` run from element 0
    at stride ``stride``, in execution order (children right to left, as
    :meth:`TraceBuilder._expand` walks them)."""
    if isinstance(node, Small):
        block = np.arange(0, node.size * stride, stride, dtype=np.int32)
        return np.concatenate([block, block])  # read pass, then write pass
    pieces, remaining, inner = [], node.size, 1
    for child in reversed(node.children):
        remaining //= child.size
        child_stride = inner * stride
        block = child.size * child_stride  # one row of the stride loop
        j = np.arange(0, remaining * block, block, dtype=np.int32)
        k = np.arange(0, child_stride, stride, dtype=np.int32)
        bases = (j[:, None] + k).reshape(-1, 1)
        pieces.append((bases + _elements(child, child_stride)).reshape(-1))
        inner *= child.size
    return np.concatenate(pieces)


def plan_lines(plan: Plan, line_size: int, element_size: int = DEFAULT_ELEMENT_SIZE) -> LineChunk:
    """``TraceBuilder(line_size, element_size).stream(plan)``'s concatenated
    chunks as one chunk, built with the whole trace in memory (small plans)."""
    if plan.size * element_size > LINE_LIMIT:
        raise ValueError(f"{plan} reaches byte address 2^31 or beyond")
    lines = _lines_of_elements(_elements(plan, 1), 0, element_size, line_size)
    return LineChunk(collapse_consecutive(lines)[0], 2 * plan.size * plan.num_leaves())


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
