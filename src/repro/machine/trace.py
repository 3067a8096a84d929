"""Memory-trace generation from plan execution.

Per codelet call the WHT package's unrolled code loads its ``2^k`` input
elements and then stores the ``2^k`` results back to the same locations; the
trace therefore contains, for every call, one read pass followed by one write
pass over the call's strided element block.

Two views of that trace are provided (see DESIGN.md §3):

* :func:`stream_line_chunks` — the measurement pipeline.  It expands the
  plan's element indices with one numpy broadcast per plan node and emits
  its cache-line stream as bounded, duplicate-collapsed int32
  :class:`LineChunk` batches; a plan past the chunk budget streams its
  root's children in pieces that fit it, so the full trace of a large plan
  is never held in memory.  Given the L1 geometry, the stream also drops
  every write pass that is provably all hits (repeated-pass elision,
  DESIGN.md §10).  :func:`squeeze_plan` turns a plan into the smaller plan
  whose trace is one *set class* of the original's, which the simulated
  machine streams on a geometry with as many times fewer sets (DESIGN.md
  §10, "Set classes").
* :func:`trace_from_nests` / :class:`MemoryTrace` — the eager byte-address
  view over :meth:`repro.wht.interpreter.PlanInterpreter.profile`'s leaf
  nests, retained for tests, ablations and any consumer that wants the
  exact per-element access sequence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.machine.cache import LINE_LIMIT, CacheConfig, _as_lines
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
    "stream_line_chunks",
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
    element accesses the chunk represents (before collapsing and elision),
    which is what the hierarchy reports as L1 accesses.
    """

    lines: np.ndarray
    accesses: int

    def __post_init__(self) -> None:
        # Chunk construction is the validation boundary: the simulators
        # downstream take these int32 lines with their range scan disabled.
        lines = _as_lines(self.lines)
        object.__setattr__(self, "lines", lines)
        if self.accesses < lines.shape[0]:
            raise ValueError(
                f"accesses ({self.accesses}) cannot be fewer than the collapsed "
                f"line count ({lines.shape[0]})"
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
    represents.  Several segments of one chunk may belong to the same plan
    (a long stream spans chunks) and a chunk may carry many plans (short
    streams fuse).

    Like :class:`LineChunk`, construction validates the shape and the int32
    line range (an offset pushing a line past 2^31 wraps negative and is
    caught here): this is the batch simulation's input boundary.
    """

    lines: np.ndarray
    seg_bounds: np.ndarray
    seg_plan: np.ndarray
    seg_accesses: np.ndarray

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
        for name in ("seg_plan", "seg_accesses"):
            if np.shape(getattr(self, name)) != (segments,):
                raise ValueError(f"{name} must have one entry per segment ({segments})")

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
        )
        for buf in (buf_lines, buf_plan, buf_accesses):
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
            buffered += int(chunk.lines.shape[0])
            if buffered >= chunk_lines:
                yield flush()
    if buf_plan:
        yield flush()


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


@functools.lru_cache(maxsize=4096)
def _write_pass_elidable(elements: int, stride_bytes: int, l1: CacheConfig) -> bool:
    """Whether the write pass of a codelet call over ``elements`` elements
    ``stride_bytes`` apart may be elided on ``l1``.

    A codelet call reads its element block, then writes it back.  When no
    L1 set receives more than its ways of the call's lines (the *cohort*
    bound, exact for element strides that are a whole number of lines, via
    :func:`_set_cohort`, or a divisor of the line), the write pass is all
    hits that leave every level's state as the read pass left it, so it is
    dropped (DESIGN.md §10).  The answer depends on the call's base not at
    all, so it is memoised per ``(elements, stride, L1 geometry)``.
    """
    if elements == 1:
        return True  # read and write hit the same single line back to back
    line_size = l1.line_size
    if stride_bytes <= 0:
        return False
    if stride_bytes % line_size == 0:
        return _set_cohort(elements, stride_bytes, l1) <= l1.associativity
    if line_size % stride_bytes == 0:
        span = (elements * stride_bytes + line_size - 1) // line_size + 1
        return span <= l1.num_lines
    return False


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


def _stride_loops(node: Plan, stride: int) -> Iterator[tuple[Plan, int, np.ndarray]]:
    """Each child of the split ``node`` run at stride ``stride``, right to
    left as the triple loop runs them: the child, its stride, and the int32
    bases of its ``(j, k)`` invocations relative to ``node``'s, in order."""
    remaining, inner = node.size, 1  # R and S in the paper's pseudo-code
    for child in reversed(node.children):
        remaining //= child.size
        child_stride = inner * stride
        block = child.size * child_stride  # one row of the stride loop
        j = np.arange(0, remaining * block, block, dtype=np.int32)
        k = np.arange(0, child_stride, stride, dtype=np.int32)
        yield child, child_stride, (j[:, None] + k).reshape(-1)
        inner *= child.size


def _elements(node: Plan, stride: int, element_size: int, l1: CacheConfig | None) -> np.ndarray:
    """Int32 element indices of every access of ``node`` run from element 0
    at stride ``stride``, in execution order: a leaf's read pass then its
    write pass, which is dropped where :func:`_write_pass_elidable` holds
    on ``l1``; a split's children right to left, each broadcast over the
    bases of its stride loop."""
    if isinstance(node, Small):
        block = np.arange(0, node.size * stride, stride, dtype=np.int32)
        if l1 is not None and _write_pass_elidable(node.size, stride * element_size, l1):
            return block
        return np.concatenate([block, block])
    return np.concatenate(
        [
            (bases[:, None] + _elements(child, child_stride, element_size, l1)).reshape(-1)
            for child, child_stride, bases in _stride_loops(node, stride)
        ]
    )


def _pieces(
    node: Plan,
    base: int,
    stride: int,
    budget: int,
    element_size: int,
    l1: CacheConfig | None,
) -> Iterator[tuple[np.ndarray, int]]:
    """``node``'s element indices from ``base`` in execution order, as
    ``(indices, raw accesses)`` pieces of at most ``budget`` raw accesses
    each, unless a single codelet call holds more.

    A node that fits the budget is one :func:`_elements` broadcast.  A
    larger one streams its children right to left: a child whose one
    invocation fits is broadcast over blocks of its bases that fit, a
    larger child recurses at each base.
    """
    accesses = 2 * node.size * node.num_leaves()
    if isinstance(node, Small) or accesses <= budget:
        elements = _elements(node, stride, element_size, l1)
        if base:
            elements += base
        yield elements, accesses
        return
    for child, child_stride, bases in _stride_loops(node, stride):
        if base:
            bases += base
        per_call = 2 * child.size * child.num_leaves()
        if per_call > budget:
            for child_base in bases.tolist():
                yield from _pieces(child, child_base, child_stride, budget, element_size, l1)
            continue
        elements = _elements(child, child_stride, element_size, l1)
        calls = budget // per_call
        for start in range(0, bases.shape[0], calls):
            block = bases[start : start + calls]
            yield (block[:, None] + elements).reshape(-1), per_call * block.shape[0]


def stream_line_chunks(
    plan: Plan,
    line_size: int,
    element_size: int = DEFAULT_ELEMENT_SIZE,
    base_address: int = 0,
    chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
    l1: CacheConfig | None = None,
) -> Iterator[LineChunk]:
    """Stream a plan's cache-line trace as bounded, duplicate-collapsed
    :class:`LineChunk` batches.

    The trace follows the triple-loop schedule of
    :class:`repro.wht.interpreter.PlanInterpreter`, the plan's elements
    ``base_address`` bytes on.  A plan whose raw accesses fit
    ``chunk_accesses`` is one chunk, one numpy broadcast per plan node
    (:func:`_elements`); a larger one streams in pieces of at most that
    many raw accesses (:func:`_pieces`), each a chunk, unless a single
    codelet call holds more.  Runs of one line are collapsed, across chunk
    junctions too.

    Without ``l1`` the chunks' lines concatenate to exactly
    ``collapse_consecutive`` of the eager trace's line sequence.  ``l1``,
    the L1 geometry the stream will be simulated on (its line size must be
    ``line_size``), drops the write pass of every codelet call proven
    all-hit on it (:func:`_write_pass_elidable`), which leaves every
    level's statistics exact (DESIGN.md §10).  The chunks' raw
    ``accesses`` count every access, dropped ones included.

    Arguments are checked here, the stream is generated lazily.
    """
    check_positive_int(line_size, "line_size")
    check_positive_int(element_size, "element_size")
    check_positive_int(chunk_accesses, "chunk_accesses")
    if l1 is not None and l1.line_size != line_size:
        raise ValueError(f"line_size {line_size} differs from the L1 line size {l1.line_size}")
    if base_address < 0:
        raise ValueError(f"base_address must be nonnegative, got {base_address}")
    # The expansion computes in int32 (byte addresses included, on the
    # general line-mapping path).
    if base_address + (plan.size - 1) * element_size >= LINE_LIMIT:
        raise ValueError(f"{plan} reaches byte address 2^31 or beyond")
    return _line_chunks(
        _pieces(plan, 0, 1, chunk_accesses, element_size, l1),
        line_size,
        element_size,
        base_address,
    )


def _line_chunks(
    pieces: Iterable[tuple[np.ndarray, int]],
    line_size: int,
    element_size: int,
    base_address: int,
) -> Iterator[LineChunk]:
    """Each piece's lines as one chunk, keeping the first line of each run
    of equal lines, across chunks too."""
    last = None
    for elements, accesses in pieces:
        lines = _lines_of_elements(elements, base_address, element_size, line_size)
        keep = np.empty(lines.shape[0], dtype=bool)
        keep[0] = last is None or int(lines[0]) != last
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
        if not keep.all():
            lines = lines[np.flatnonzero(keep)]  # a gather beats boolean indexing here
        if lines.shape[0]:
            last = int(lines[-1])
        yield LineChunk(lines, accesses)


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
