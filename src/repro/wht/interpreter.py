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

Three entry points are provided:

* :meth:`PlanInterpreter.execute` — run the recursion on an actual NumPy
  vector (in place), used for correctness checking and the wall-clock path.
* :meth:`PlanInterpreter.profile` — run the recursion *without data*, counting
  every structural event (codelet calls, split invocations, loop iterations)
  and optionally emitting the :class:`LeafNest` descriptors from which the
  eager memory trace is generated.  It makes one Python call per sub-plan
  invocation, so it serves as the reference the fast paths are tested
  against.
* :func:`analytic_stats` — the same event counts from the plan structure
  alone, memoised per sub-plan.  This is what the simulated machine reports;
  it is the Python analogue of attaching PAPI counters to the compiled WHT
  package.  The machine's memory trace comes from
  :func:`repro.machine.trace.stream_line_chunks`, which broadcasts the same
  loop schedule over the plan tree.

The test suite asserts that ``analytic_stats`` and the counts of ``execute``
and ``profile`` always agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.wht.codelets import apply_codelet, codelet_costs
from repro.wht.plan import Plan, Small, Split

__all__ = ["LeafNest", "ExecutionStats", "PlanInterpreter", "analytic_stats"]


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


@lru_cache(maxsize=65536)
def _analytic_stats_cached(plan: Plan) -> ExecutionStats:
    if isinstance(plan, Small):
        costs = codelet_costs(plan.n)
        stats = ExecutionStats(n=plan.n, codelet_calls=Counter({plan.n: 1}))
        stats.additions = costs.additions
        stats.subtractions = costs.subtractions
        stats.loads = costs.loads
        stats.stores = costs.stores
        return stats
    if not isinstance(plan, Split):
        raise TypeError(f"not a plan node: {plan!r}")

    stats = ExecutionStats(n=plan.n)
    stats.split_invocations = 1
    remaining = plan.size
    inner = 1
    for child in reversed(plan.children):
        child_size = child.size
        remaining //= child_size
        calls = remaining * inner
        stats.outer_iterations += 1
        stats.stride_iterations += inner
        stats.block_iterations += remaining
        stats.child_calls += calls
        stats.merge(_analytic_stats_cached(child).scaled(calls))
        inner *= child_size
    return stats


def analytic_stats(plan: Plan) -> ExecutionStats:
    """Event counts of executing ``plan`` once, derived without execution.

    The recurrence mirrors the triple loop: a child invoked ``R * S`` times
    contributes ``R * S`` times its standalone counts.  The result equals
    ``PlanInterpreter().execute(plan, x, collect_stats=True)`` for every
    valid plan (property-tested) but costs ``O(nodes)`` instead of
    ``O(actual loop iterations)``, memoised per sub-plan.  A fresh object is
    returned on every call so callers may freely mutate or merge it.
    """
    return _analytic_stats_cached(plan).scaled(1)


class PlanInterpreter:
    """Executes or profiles WHT plans using the paper's loop schedule."""

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

        Runs the recursive schedule of :meth:`execute` with no vector, one
        Python call per sub-plan invocation: the reference instrument the
        analytic counts (:func:`analytic_stats`) and the streamed trace are
        tested against.  When ``record_trace`` is true the list of
        :class:`LeafNest` events is returned as well (in execution order);
        otherwise ``None`` is returned in its place.
        """
        stats = ExecutionStats(n=plan.n)
        nests: list[LeafNest] | None = [] if record_trace else None
        self._run(plan, base=0, stride=1, x=None, stats=stats, nests=nests)
        return stats, nests

    # -- internals -----------------------------------------------------------

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
