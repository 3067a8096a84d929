"""Plan interpreter: the paper's triple-loop recursion, instrumented.

The interpreter evaluates a split-tree plan with the triple loop of Section 2
of the paper::

    R = N; S = 1
    for i = t, t-1, ..., 1:                 # children, right to left
        R = R / N_i
        for j = 0, ..., R-1:                # block loop
            for k = 0, ..., S-1:            # stride loop
                WHT_{N_i} applied at base + (j*N_i*S + k)*stride, stride S*stride
        S = S * N_i

Children are processed right to left so that child ``i`` of the composition is
applied at stride ``N_{i+1} * ... * N_t``, exactly as dictated by the tensor
factors of Equation 1 (the factor ``I (x) WHT_{N_i} (x) I_{2^{n_{i+1}+...}}``
acts at that stride).  In particular the *right recursive* algorithm
``split[small[1], W_{2^{n-1}}]`` recurses on two contiguous halves and finishes
with a stride-``N/2`` combining pass — the classical recursive FFT schedule —
while the *left recursive* algorithm recurses on interleaved (strided)
subvectors.  The paper's pseudo-code enumerates the same loops with the child
index running in the opposite direction; because the tensor factors commute,
both orders compute the same transform, but only the right-to-left order
reproduces the canonical algorithms' measured cache behaviour (see DESIGN.md).

Two entry points are provided:

* :meth:`PlanInterpreter.execute` — run the recursion on an actual NumPy
  vector (in place), used for correctness checking and the wall-clock path.
* :meth:`PlanInterpreter.profile` — run the recursion *without data*, counting
  every structural event (codelet calls, split invocations, loop iterations)
  and optionally emitting :class:`LeafNest` descriptors from which the memory
  trace is generated.  This is what the simulated machine instruments; it is
  the Python analogue of attaching PAPI counters to the compiled WHT package.

The event counts produced by ``profile`` are exactly reproducible from the
plan structure alone; :mod:`repro.models.instruction_count` recomputes them
analytically and the test suite asserts the two always agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.util.lru import LRUCache
from repro.wht.codelets import apply_codelet, codelet_costs
from repro.wht.encoding import plan_key
from repro.wht.plan import Plan, Small, Split

__all__ = ["LeafNest", "NestBlock", "ExecutionStats", "PlanInterpreter"]


@dataclass(frozen=True)
class LeafNest:
    """One (j, k) loop nest worth of codelet calls, described compactly.

    When the interpreter reaches a leaf child of a split node it does not emit
    one event per codelet call; it emits a single ``LeafNest`` describing the
    whole double loop.  The memory-trace generator expands the nest with a
    single vectorised broadcast, preserving the exact access order
    ``for outer: for inner: for element`` (outer = the block loop ``j``,
    inner = the stride loop ``k``).
    """

    #: Codelet exponent (the nest calls ``small[k]``).
    k: int
    #: Element index of the first element touched by the (j=0, k=0) call.
    base: int
    #: Number of outer (j) iterations.
    outer_count: int
    #: Element-index distance between consecutive j iterations.
    outer_stride: int
    #: Number of inner (k) iterations.
    inner_count: int
    #: Element-index distance between consecutive k iterations.
    inner_stride: int
    #: Element-index distance between consecutive elements within one call.
    elem_stride: int

    @property
    def calls(self) -> int:
        """Number of codelet calls described by the nest."""
        return self.outer_count * self.inner_count

    @property
    def elements_per_call(self) -> int:
        """Vector length of each codelet call."""
        return 1 << self.k

    @property
    def total_elements(self) -> int:
        """Total element accesses of one pass (read or write) over the nest."""
        return self.calls * self.elements_per_call

    def element_indices(self) -> np.ndarray:
        """All element indices touched, in exact access order (one pass)."""
        j = np.arange(self.outer_count, dtype=np.int64) * self.outer_stride
        k = np.arange(self.inner_count, dtype=np.int64) * self.inner_stride
        e = np.arange(self.elements_per_call, dtype=np.int64) * self.elem_stride
        grid = self.base + j[:, None, None] + k[None, :, None] + e[None, None, :]
        return grid.reshape(-1)


#: Shared single-offset array for blocks describing exactly one nest instance.
_SINGLE_OFFSET = np.zeros(1, dtype=np.int64)


def _fold_group(base: int, stride: int, child_stride: int, line_elements: int) -> int:
    """Invocations per foldable group of a sub-plan replay, or 0.

    The stride loop invokes the child at bases ``row + k * stride``.  When
    the child's stride is a multiple of the line length, its line sequence
    depends on its base only through the base's line; a group of ``g =
    line_elements / stride`` consecutive ``k`` shares that line when every
    row starts within the first ``stride`` elements of its line (rows lie
    ``child_size * child_stride`` apart, a multiple of the line, so they
    share the base's residue).  Folding keeps three invocations per group,
    so groups of three or fewer are left alone.

    Inside a template ``base`` is template-relative, and the test is still
    exact: by induction over the triple loop, a node at stride ``p`` and
    size ``N`` of a walk started at base 0 has base ``r + m * p * N`` with
    ``r < p``.  When the stride tests pass, ``p * N`` is a multiple of the
    line (it is at least ``child_size * child_stride``), so the relative and
    the absolute base both leave a line residue below ``stride``.
    """
    if not line_elements or child_stride % line_elements or stride >= line_elements:
        return 0
    if line_elements % stride or base % line_elements >= stride:
        return 0
    group = line_elements // stride  # divides ``inner``: inner * stride is a line multiple
    return group if group > 3 else 0


def _compose_weights(
    outer: np.ndarray | None,
    outer_count: int,
    inner: np.ndarray | None,
    inner_count: int,
) -> np.ndarray | None:
    """Weights of a template block replayed at ``outer_count`` bases.

    Instances are laid out replay-major, as the replayed offsets are; a
    weighted replay of a weighted template multiplies the two weights.
    """
    if outer is None:
        return None if inner is None else np.tile(inner, outer_count)
    if inner is None:
        return np.repeat(outer, inner_count)
    return (outer[:, None] * inner[None, :]).reshape(-1)


@dataclass(frozen=True)
class NestBlock:
    """Many instances of one leaf-nest shape, described once plus per-instance arrays.

    A sub-plan invoked ``R * S`` times by the triple loop emits the same nest
    sequence every time, shifted by a different base and occurring at a
    different point of the access stream.  The walker therefore yields one
    :class:`NestBlock` per nest *emission site*: the template ``nest`` (whose
    ``base`` is relative to the block) together with, per instance, its base
    ``offsets`` (element indices) and its ``starts`` (position of the
    instance's first access within the plan's raw access stream, counting the
    read and the write pass).  Replaying a nested sub-plan composes both
    arrays with one broadcast, so the number of blocks grows with the plan's
    *structure*, not with its invocation counts.

    Blocks are **not** yielded in execution order (instances of different
    blocks interleave); sorting all instances by ``starts`` recovers the
    exact recursive access order, which is how the streamed trace expander
    and :meth:`PlanInterpreter.iter_nests` consume them.

    ``weights`` is ``None`` for a block listing every instance.  A walk
    given ``line_elements`` folds runs of repeated sub-plan invocations
    (:meth:`PlanInterpreter.iter_nest_blocks`): it then lists only the kept
    instances, and ``weights[i]`` is how many back-to-back invocations of
    one line sequence instance ``i`` stands for.

    ``offsets``, ``starts`` and ``weights`` must be treated as immutable
    (blocks share template arrays).
    """

    nest: LeafNest
    offsets: np.ndarray
    starts: np.ndarray
    weights: np.ndarray | None = None

    @property
    def instances(self) -> int:
        """Number of nest instances described by the block."""
        return int(self.offsets.shape[0])

    @property
    def accesses_per_instance(self) -> int:
        """Raw accesses of one instance: read plus write pass."""
        return 2 * self.nest.total_elements


@dataclass
class ExecutionStats:
    """Structural event counts of one plan execution.

    These are *raw event counts*; converting them to instruction or cycle
    totals is the job of the machine's cost models, so the same counts can be
    weighted differently (e.g. in the associativity or overhead ablations).
    """

    #: Size exponent of the executed transform.
    n: int = 0
    #: Number of codelet calls, keyed by codelet exponent.
    codelet_calls: Counter = field(default_factory=Counter)
    #: Number of split-node invocations (each recursive call of a split body).
    split_invocations: int = 0
    #: Total iterations of the outer (per-child, index ``i``) loop.
    outer_iterations: int = 0
    #: Total iterations of the stride (index ``k``) loop: ``sum_i S_i`` per
    #: split invocation.
    stride_iterations: int = 0
    #: Total iterations of the block (index ``j``) loop summed once per child:
    #: ``sum_i R_i`` per split invocation (the paper pseudo-code's middle loop).
    block_iterations: int = 0
    #: Total child calls == ``sum_i R_i * S_i`` (innermost loop bodies).
    child_calls: int = 0
    #: Floating point additions executed by codelet bodies.
    additions: int = 0
    #: Floating point subtractions executed by codelet bodies.
    subtractions: int = 0
    #: Element loads executed by codelet bodies.
    loads: int = 0
    #: Element stores executed by codelet bodies.
    stores: int = 0

    @property
    def size(self) -> int:
        """Transform length ``2^n``."""
        return 1 << self.n

    @property
    def arithmetic_ops(self) -> int:
        """Total floating point operations."""
        return self.additions + self.subtractions

    @property
    def memory_ops(self) -> int:
        """Total element loads plus stores."""
        return self.loads + self.stores

    @property
    def total_codelet_calls(self) -> int:
        """Number of base-case codelet calls."""
        return sum(self.codelet_calls.values())

    def scaled(self, factor: int) -> "ExecutionStats":
        """A new stats object with every count multiplied by ``factor``.

        Used by the analytic models: a sub-plan invoked ``factor`` times
        contributes ``factor`` times its standalone event counts.
        """
        if factor < 0:
            raise ValueError(f"factor must be nonnegative, got {factor}")
        scaled_calls: Counter = Counter(
            {k: v * factor for k, v in self.codelet_calls.items()}
        )
        return ExecutionStats(
            n=self.n,
            codelet_calls=scaled_calls,
            split_invocations=self.split_invocations * factor,
            outer_iterations=self.outer_iterations * factor,
            stride_iterations=self.stride_iterations * factor,
            block_iterations=self.block_iterations * factor,
            child_calls=self.child_calls * factor,
            additions=self.additions * factor,
            subtractions=self.subtractions * factor,
            loads=self.loads * factor,
            stores=self.stores * factor,
        )

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Accumulate another stats object into this one (returns self)."""
        self.codelet_calls.update(other.codelet_calls)
        self.split_invocations += other.split_invocations
        self.outer_iterations += other.outer_iterations
        self.stride_iterations += other.stride_iterations
        self.block_iterations += other.block_iterations
        self.child_calls += other.child_calls
        self.additions += other.additions
        self.subtractions += other.subtractions
        self.loads += other.loads
        self.stores += other.stores
        return self

    def as_dict(self) -> dict:
        """A flat dictionary view (used by reports and serialisation)."""
        return {
            "n": self.n,
            "codelet_calls": dict(self.codelet_calls),
            "split_invocations": self.split_invocations,
            "outer_iterations": self.outer_iterations,
            "stride_iterations": self.stride_iterations,
            "block_iterations": self.block_iterations,
            "child_calls": self.child_calls,
            "additions": self.additions,
            "subtractions": self.subtractions,
            "loads": self.loads,
            "stores": self.stores,
        }


class PlanInterpreter:
    """Executes or profiles WHT plans using the paper's loop schedule.

    ``template_cache_size`` bounds an LRU cache of walked sub-plan templates
    keyed by ``(plan key, stride)``: a repeated sub-plan (the dynamic
    programming search builds every candidate at exponent ``m`` from the same
    best sub-plans) is walked into its :class:`NestBlock` template once and
    replayed from the cache afterwards.  Cached templates are read-only —
    replaying composes fresh offset/start arrays — so cache hits are
    bit-identical to re-walking.  The key also carries the walk's
    ``line_elements`` (``0`` for none), so folded and unfolded templates
    never share an entry.  ``0`` disables the cache.
    """

    def __init__(self, template_cache_size: int = 64):
        if template_cache_size < 0:
            raise ValueError("template_cache_size must be >= 0")
        self._template_cache: (
            LRUCache[tuple[str, int, int], tuple[list[NestBlock], ExecutionStats, int]]
            | None
        ) = LRUCache(template_cache_size) if template_cache_size else None

    def _sub_plan_template(
        self, child: Plan, child_stride: int, line_elements: int
    ) -> tuple[list["NestBlock"], "ExecutionStats", int]:
        """The child's block template at ``child_stride`` (cached, immutable)."""
        cache = self._template_cache
        key = (plan_key(child), child_stride, line_elements)
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                return cached
        sub = ExecutionStats()
        sub_cursor = [0]
        template = list(
            self._walk_blocks(child, 0, child_stride, sub, sub_cursor, line_elements)
        )
        entry = (template, sub, sub_cursor[0])
        if cache is not None:
            cache.put(key, entry)
        return entry

    def execute(
        self,
        plan: Plan,
        x: np.ndarray,
        collect_stats: bool = False,
    ) -> ExecutionStats | None:
        """Apply ``plan`` to ``x`` in place; optionally return event counts.

        ``x`` must be a 1-D float array of length ``plan.size``.
        """
        if not isinstance(x, np.ndarray) or x.ndim != 1:
            raise ValueError("execute requires a 1-D numpy array")
        if x.shape[0] != plan.size:
            raise ValueError(
                f"plan computes a transform of length {plan.size}, "
                f"input has length {x.shape[0]}"
            )
        stats = ExecutionStats(n=plan.n) if collect_stats else None
        self._run(plan, base=0, stride=1, x=x, stats=stats, nests=None)
        return stats

    def profile(
        self,
        plan: Plan,
        record_trace: bool = False,
    ) -> tuple[ExecutionStats, list[LeafNest] | None]:
        """Count structural events of executing ``plan``, without data.

        When ``record_trace`` is true the list of :class:`LeafNest` events is
        returned as well (in execution order); otherwise ``None`` is returned
        in its place and no per-nest bookkeeping is done.
        """
        stats = ExecutionStats(n=plan.n)
        if not record_trace:
            for _ in self.iter_nest_blocks(plan, stats=stats):
                pass
            return stats, None
        return stats, list(self.iter_nests(plan, stats=stats))

    def iter_nests(
        self, plan: Plan, stats: ExecutionStats | None = None
    ) -> Iterator[LeafNest]:
        """Yield the plan's :class:`LeafNest` events in execution order.

        Streaming equivalent of ``profile(plan, record_trace=True)``: the
        plan is walked as nest blocks, whose instances are then sorted by
        stream position to recover the exact recursive emission order.  When
        ``stats`` is given, structural event counts are accumulated into it
        while walking.
        """
        blocks = list(self.iter_nest_blocks(plan, stats=stats))
        if not blocks:
            return
        counts = np.array([block.instances for block in blocks])
        block_ids = np.repeat(np.arange(len(blocks)), counts)
        offsets = np.concatenate([block.offsets for block in blocks])
        starts = np.concatenate([block.starts for block in blocks])
        order = np.argsort(starts, kind="stable")
        for block_id, offset in zip(
            block_ids[order].tolist(), offsets[order].tolist()
        ):
            nest = blocks[block_id].nest
            yield replace(nest, base=nest.base + offset) if offset else nest

    def iter_nest_blocks(
        self,
        plan: Plan,
        stats: ExecutionStats | None = None,
        line_elements: int | None = None,
    ) -> Iterator[NestBlock]:
        """Yield the plan's nest stream as :class:`NestBlock` groups.

        This is the fast producer behind :meth:`profile` and the simulated
        machine's streaming trace pipeline.  Instead of re-walking a sub-plan
        once per ``(j, k)`` invocation (the seed interpreter's deeply
        recursive ``_run`` schedule), each repeated sub-plan is walked *once*
        into a template whose blocks are replayed by composing base offsets
        and stream positions with a single broadcast each, with event counts
        merged back via exact integer scaling.  Sorting all block instances
        by ``starts`` reproduces the recursive nest sequence exactly
        (asserted by the test suite).

        ``line_elements`` — the number of vector elements per cache line of
        the trace the blocks will be expanded into — turns on repeated
        sub-plan folding.  When a split child runs at a stride that is a
        multiple of ``line_elements`` under a parent stride below it, each
        group of ``g = line_elements / stride`` back-to-back stride-loop
        invocations starts inside one line and so replays one identical
        line sequence.  Only the first three invocations of each group are
        emitted, the third with weight ``g - 2`` (``NestBlock.weights``):
        under LRU, applying a sequence to the state it just produced
        reproduces that state, so from the third copy on every cache level
        fed by the sequence or its miss stream repeats exactly (DESIGN.md
        §10).  Event counts in ``stats`` still include every invocation.
        With the default ``None`` every instance is emitted unweighted.
        """
        if line_elements is not None and line_elements < 1:
            raise ValueError(f"line_elements must be positive, got {line_elements}")
        cursor = [0]
        yield from self._walk_blocks(
            plan,
            base=0,
            stride=1,
            stats=stats,
            cursor=cursor,
            line_elements=line_elements or 0,
        )

    # -- internals -----------------------------------------------------------

    def _walk_blocks(
        self,
        node: Plan,
        base: int,
        stride: int,
        stats: ExecutionStats | None,
        cursor: list[int],
        line_elements: int = 0,
    ) -> Iterator[NestBlock]:
        if isinstance(node, Small):
            yield self._leaf_block(
                node.n,
                base=base,
                outer_count=1,
                outer_stride=0,
                inner_count=1,
                inner_stride=0,
                elem_stride=stride,
                stats=stats,
                cursor=cursor,
            )
            return
        assert isinstance(node, Split)
        if stats is not None:
            stats.split_invocations += 1
        size = node.size
        remaining = size  # R in the paper's pseudo-code
        inner = 1  # S in the paper's pseudo-code
        for child in reversed(node.children):
            child_size = child.size
            remaining //= child_size
            if stats is not None:
                stats.outer_iterations += 1
                stats.stride_iterations += inner
                stats.block_iterations += remaining
                stats.child_calls += remaining * inner
            if isinstance(child, Small):
                yield self._leaf_block(
                    child.n,
                    base=base,
                    outer_count=remaining,
                    outer_stride=child_size * inner * stride,
                    inner_count=inner,
                    inner_stride=stride,
                    elem_stride=inner * stride,
                    stats=stats,
                    cursor=cursor,
                )
            else:
                child_stride = inner * stride
                invocations = remaining * inner
                if invocations == 1:
                    yield from self._walk_blocks(
                        child, base, child_stride, stats, cursor, line_elements
                    )
                else:
                    template, sub, template_accesses = self._sub_plan_template(
                        child, child_stride, line_elements
                    )
                    if stats is not None:
                        stats.merge(sub.scaled(invocations))
                    j = np.arange(remaining, dtype=np.int64) * (child_size * inner * stride)
                    k = np.arange(inner, dtype=np.int64)
                    group = _fold_group(base, stride, child_stride, line_elements)
                    weights = None
                    if group:
                        # Keep the first three invocations of each group of
                        # ``group`` over one line sequence; the third stands
                        # for the rest.
                        k = k.reshape(-1, group)[:, :3].reshape(-1)
                        weights = np.tile(
                            np.array([1, 1, group - 2], dtype=np.int64),
                            remaining * (inner // group),
                        )
                    offsets = (base + (j[:, None] + k[None, :] * stride)).reshape(-1)
                    starts = cursor[0] + (
                        (np.arange(remaining, dtype=np.int64)[:, None] * inner + k[None, :])
                        * template_accesses
                    ).reshape(-1)
                    for block in template:
                        yield NestBlock(
                            block.nest,
                            (offsets[:, None] + block.offsets[None, :]).reshape(-1),
                            (starts[:, None] + block.starts[None, :]).reshape(-1),
                            _compose_weights(
                                weights, offsets.shape[0], block.weights, block.instances
                            ),
                        )
                    cursor[0] += invocations * template_accesses
            inner *= child_size

    def _leaf_block(
        self,
        k: int,
        base: int,
        outer_count: int,
        outer_stride: int,
        inner_count: int,
        inner_stride: int,
        elem_stride: int,
        stats: ExecutionStats | None,
        cursor: list[int],
    ) -> NestBlock:
        calls = outer_count * inner_count
        if stats is not None:
            costs = codelet_costs(k)
            stats.codelet_calls[k] += calls
            stats.additions += calls * costs.additions
            stats.subtractions += calls * costs.subtractions
            stats.loads += calls * costs.loads
            stats.stores += calls * costs.stores
        nest = LeafNest(
            k=k,
            base=base,
            outer_count=outer_count,
            outer_stride=outer_stride,
            inner_count=inner_count,
            inner_stride=inner_stride,
            elem_stride=elem_stride,
        )
        start = cursor[0]
        cursor[0] += 2 * calls * (1 << k)
        return NestBlock(
            nest, _SINGLE_OFFSET, np.array([start], dtype=np.int64)
        )

    def _run(
        self,
        node: Plan,
        base: int,
        stride: int,
        x: np.ndarray | None,
        stats: ExecutionStats | None,
        nests: list[LeafNest] | None,
    ) -> None:
        if isinstance(node, Small):
            # A bare leaf plan (no surrounding split): a single codelet call.
            self._leaf_calls(
                node.n,
                base=base,
                outer_count=1,
                outer_stride=0,
                inner_count=1,
                inner_stride=0,
                elem_stride=stride,
                x=x,
                stats=stats,
                nests=nests,
            )
            return
        assert isinstance(node, Split)
        if stats is not None:
            stats.split_invocations += 1
        size = node.size
        remaining = size  # R in the paper's pseudo-code
        inner = 1  # S in the paper's pseudo-code
        for child in reversed(node.children):
            child_size = child.size
            remaining //= child_size
            if stats is not None:
                stats.outer_iterations += 1
                stats.stride_iterations += inner
                stats.block_iterations += remaining
                stats.child_calls += remaining * inner
            if isinstance(child, Small):
                # Entire (j, k) double loop expressed as one nest
                # (j = block loop, outer; k = stride loop, inner).
                self._leaf_calls(
                    child.n,
                    base=base,
                    outer_count=remaining,
                    outer_stride=child_size * inner * stride,
                    inner_count=inner,
                    inner_stride=stride,
                    elem_stride=inner * stride,
                    x=x,
                    stats=stats,
                    nests=nests,
                )
            else:
                for j in range(remaining):
                    for k in range(inner):
                        self._run(
                            child,
                            base=base + (j * child_size * inner + k) * stride,
                            stride=inner * stride,
                            x=x,
                            stats=stats,
                            nests=nests,
                        )
            inner *= child_size

    def _leaf_calls(
        self,
        k: int,
        base: int,
        outer_count: int,
        outer_stride: int,
        inner_count: int,
        inner_stride: int,
        elem_stride: int,
        x: np.ndarray | None,
        stats: ExecutionStats | None,
        nests: list[LeafNest] | None,
    ) -> None:
        calls = outer_count * inner_count
        if stats is not None:
            costs = codelet_costs(k)
            stats.codelet_calls[k] += calls
            stats.additions += calls * costs.additions
            stats.subtractions += calls * costs.subtractions
            stats.loads += calls * costs.loads
            stats.stores += calls * costs.stores
        if nests is not None:
            nests.append(
                LeafNest(
                    k=k,
                    base=base,
                    outer_count=outer_count,
                    outer_stride=outer_stride,
                    inner_count=inner_count,
                    inner_stride=inner_stride,
                    elem_stride=elem_stride,
                )
            )
        if x is not None:
            for j in range(outer_count):
                for kk in range(inner_count):
                    apply_codelet(
                        x,
                        k,
                        base=base + j * outer_stride + kk * inner_stride,
                        stride=elem_stride,
                    )
