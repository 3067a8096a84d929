"""Canonical plan keys and structure-of-arrays plan encoding.

The batched plan-evaluation engine needs two things from the ``wht`` layer:

* :func:`plan_key` — a *canonical content key* for a plan.  Two plans share a
  key iff they are structurally identical, the key is stable across processes
  (no ``hash()`` involvement) and human-readable: it is simply the compact
  grammar rendering (``split[small[1],small[2]]``), so a key recorded in a
  persistent cost cache can be parsed back into the plan it names.
* :func:`encode_plans` — a structure-of-arrays encoder that flattens a *batch*
  of split trees into flat NumPy arrays (:class:`EncodedPlans`).  Nodes are
  stored in post-order per plan (children before their parent, plans
  concatenated), and every parent→child edge becomes a *child slot* carrying
  the composition geometry (the ``log2`` of the stride factor contributed by
  the siblings to the child's right).  The vectorised analytic models in
  :mod:`repro.models` evaluate thousands of plans in a handful of NumPy sweeps
  over these arrays instead of one Python recursion per plan.

The encoding is model-independent: one :class:`EncodedPlans` can be shared by
the instruction-count and cache-miss models (and any future analytic model),
which is how the combined-model cost scores a candidate batch with a single
encoding pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.util.lru import LRUCache
from repro.wht.grammar import plan_to_string
from repro.wht.plan import Plan, Split

__all__ = ["plan_key", "EncodedPlans", "encode_plans", "MAX_ENCODABLE_EXPONENT"]

#: Largest root exponent the int64 batch arithmetic supports exactly.  Every
#: intermediate quantity of the analytic models is bounded by ``2^(2n)``-ish
#: terms, so staying well below 63 bits keeps the vectorised path bit-exact
#: against the arbitrary-precision scalar models.
MAX_ENCODABLE_EXPONENT = 30


def plan_key(plan: Plan) -> str:
    """Canonical content key of ``plan`` (the compact grammar string).

    Keys are content-addressed: structural equality of plans is equality of
    keys, independent of object identity, process or Python version.  The key
    doubles as a serialisation — ``parse_plan(plan_key(p)) == p``.  Rendered
    once per plan object and cached on it, as ``Split`` caches its hash; a
    split whose children all cache their keys joins them instead.
    """
    key = plan.__dict__.get("_key")
    if key is None:
        keys = [c.__dict__.get("_key") for c in plan.children] if isinstance(plan, Split) else None
        if keys and None not in keys:
            key = f"split[{','.join(keys)}]"
        else:
            key = plan_to_string(plan)
        object.__setattr__(plan, "_key", key)
    return key


@dataclass(frozen=True)
class EncodedPlans:
    """A batch of split trees flattened into structure-of-arrays form.

    Nodes appear in post-order within each plan (children before their
    parent), with the plans' node ranges concatenated; a plan's root is
    therefore the *last* node of its segment.  Each parent→child edge is a
    *child slot*; the slots of one split node are contiguous and in
    left-to-right child order, and ``slot_owner`` is non-decreasing.

    All arrays are ``int64`` except ``node_is_leaf`` (bool).  Invariants are
    guaranteed by :func:`encode_plans`; the dataclass itself performs no
    validation (it is produced in bulk on hot paths).
    """

    #: Exponent ``n`` of every node.
    node_exponent: np.ndarray
    #: True for ``Small`` (leaf) nodes.
    node_is_leaf: np.ndarray
    #: Depth of every node below its plan's root (root = 0).
    node_depth: np.ndarray
    #: ``plan_node_start[p] : plan_node_start[p + 1]`` is plan ``p``'s node range.
    plan_node_start: np.ndarray
    #: Node index of the split owning each child slot (non-decreasing).
    slot_owner: np.ndarray
    #: Node index of the child occupying each slot.
    slot_child: np.ndarray
    #: Sum of the exponents of the siblings to the child's right: the slot's
    #: stride factor is ``2^slot_suffix_exponent`` (the triple loop's ``S``).
    slot_suffix_exponent: np.ndarray
    #: ``plan_slot_start[p] : plan_slot_start[p + 1]`` is plan ``p``'s slot range.
    plan_slot_start: np.ndarray

    @property
    def num_plans(self) -> int:
        """Number of encoded plans."""
        return len(self.plan_node_start) - 1

    @property
    def num_nodes(self) -> int:
        """Total node count across the batch."""
        return len(self.node_exponent)

    @property
    def num_slots(self) -> int:
        """Total child-slot count across the batch."""
        return len(self.slot_owner)

    @property
    def root_index(self) -> np.ndarray:
        """Node index of every plan's root (the last node of its segment)."""
        return self.plan_node_start[1:] - 1

    @property
    def root_exponent(self) -> np.ndarray:
        """Root exponent of every plan."""
        return self.node_exponent[self.root_index]

    def node_plan(self) -> np.ndarray:
        """Plan id of every node (``node_plan()[i]`` owns node ``i``)."""
        counts = np.diff(self.plan_node_start)
        return np.repeat(np.arange(self.num_plans, dtype=np.int64), counts)

    def node_multiplicity(self) -> np.ndarray:
        """How often each node executes per run of its plan.

        A sub-plan of size ``2^k`` inside a root of size ``2^n`` is invoked
        once per element block it covers: the per-ancestor call factors
        ``N_parent / N_child`` telescope to ``2^(n - k)``.
        """
        counts = np.diff(self.plan_node_start)
        root_exp = np.repeat(self.root_exponent, counts)
        return np.int64(1) << (root_exp - self.node_exponent)

    def slot_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node ``(first_slot, slot_count)`` child-range arrays.

        Leaves have zero slots.  Derived from the sortedness of
        ``slot_owner`` rather than stored, since the vectorised models
        operate on whole slot arrays and only tests and diagnostics need the
        per-node ranges.
        """
        nodes = np.arange(self.num_nodes, dtype=np.int64)
        first = np.searchsorted(self.slot_owner, nodes, side="left")
        last = np.searchsorted(self.slot_owner, nodes, side="right")
        return first.astype(np.int64), (last - first).astype(np.int64)

    def segment_sum_nodes(self, values: np.ndarray) -> np.ndarray:
        """Exact per-plan sums of a per-node int64 array."""
        return _segment_sum(values, self.plan_node_start)

    def segment_sum_slots(self, values: np.ndarray) -> np.ndarray:
        """Exact per-plan sums of a per-slot int64 array."""
        return _segment_sum(values, self.plan_slot_start)


def _segment_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over the segments delimited by ``starts``.

    Implemented with one cumulative sum so empty segments cost nothing and
    the arithmetic stays in int64 (exact for the models' magnitudes).
    """
    prefix = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, dtype=np.int64, out=prefix[1:])
    return prefix[starts[1:]] - prefix[starts[:-1]]


@dataclass(frozen=True)
class _PlanSegment:
    """One plan's encoded arrays with plan-local node indices (immutable).

    Segments are what the per-plan memoisation caches: batch encoding then
    reduces to concatenating segments and offsetting the slot index arrays
    by each plan's node base — a handful of NumPy operations regardless of
    how deep the plans are, instead of one Python recursion per plan.
    """

    node_exponent: np.ndarray
    node_is_leaf: np.ndarray
    node_depth: np.ndarray
    slot_owner: np.ndarray
    slot_child: np.ndarray
    slot_suffix: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.node_exponent.shape[0])

    @property
    def num_slots(self) -> int:
        return int(self.slot_owner.shape[0])


#: Per-plan segment cache keyed by :func:`plan_key`.  A segment is a few
#: hundred bytes, so even a six-figure entry count stays modest; the LRU
#: bound keeps adversarial workloads from growing without limit.
_SEGMENT_CACHE: LRUCache[str, _PlanSegment] = LRUCache(1 << 16)


def _encode_segment(plan: Plan) -> _PlanSegment:
    """Walk one plan into its local-index segment (the only per-node pass)."""
    node_exp: list[int] = []
    node_leaf: list[bool] = []
    node_depth: list[int] = []
    slot_owner: list[int] = []
    slot_child: list[int] = []
    slot_suffix: list[int] = []

    def walk(node: Plan, depth: int) -> int:
        children = node.children
        if not children:
            index = len(node_exp)
            node_exp.append(node.n)
            node_leaf.append(True)
            node_depth.append(depth)
            return index
        child_depth = depth + 1
        child_indices = [walk(child, child_depth) for child in children]
        index = len(node_exp)
        node_exp.append(node.n)
        node_leaf.append(False)
        node_depth.append(depth)
        suffix = 0
        suffixes = []
        for child in reversed(children):
            suffixes.append(suffix)
            suffix += child.n
        suffixes.reverse()
        for child_index, child_suffix in zip(child_indices, suffixes):
            slot_owner.append(index)
            slot_child.append(child_index)
            slot_suffix.append(child_suffix)
        return index

    walk(plan, 0)
    return _PlanSegment(
        node_exponent=np.asarray(node_exp, dtype=np.int64),
        node_is_leaf=np.asarray(node_leaf, dtype=bool),
        node_depth=np.asarray(node_depth, dtype=np.int64),
        slot_owner=np.asarray(slot_owner, dtype=np.int64),
        slot_child=np.asarray(slot_child, dtype=np.int64),
        slot_suffix=np.asarray(slot_suffix, dtype=np.int64),
    )


def encode_plans(plans: "Sequence[Plan] | Iterable[Plan]") -> EncodedPlans:
    """Flatten a batch of plans into an :class:`EncodedPlans`.

    Encoding is a memoised *segment splice*: each distinct plan is walked
    once into a plan-local :class:`_PlanSegment` (cached by
    :func:`plan_key`, so re-scoring the same campaign — or re-encoding a
    candidate the search saw last round — never repeats the per-node Python
    pass) and the batch result is assembled by concatenating segments and
    offsetting the slot index arrays, bit-identical to a direct whole-batch
    walk.
    """
    segments: list[_PlanSegment] = []
    for plan in plans:
        if not isinstance(plan, Plan):
            raise TypeError(f"not a Plan: {plan!r}")
        if plan.n > MAX_ENCODABLE_EXPONENT:
            raise ValueError(
                f"plan exponent {plan.n} exceeds the batch encoder's exact-int64 "
                f"range (max {MAX_ENCODABLE_EXPONENT}); use the scalar models"
            )
        key = plan_key(plan)
        segment = _SEGMENT_CACHE.get(key)
        if segment is None:
            segment = _encode_segment(plan)
            _SEGMENT_CACHE.put(key, segment)
        segments.append(segment)

    node_counts = np.array([segment.num_nodes for segment in segments], dtype=np.int64)
    slot_counts = np.array([segment.num_slots for segment in segments], dtype=np.int64)
    plan_node_start = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum(node_counts, out=plan_node_start[1:])
    plan_slot_start = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum(slot_counts, out=plan_slot_start[1:])

    def spliced(arrays: list[np.ndarray], dtype) -> np.ndarray:
        if not arrays:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(arrays)

    # Slot indices are plan-local; shifting them by each plan's node base
    # reproduces the global post-order indices of a whole-batch walk.
    slot_bases = np.repeat(plan_node_start[:-1], slot_counts)
    slot_owner = spliced([segment.slot_owner for segment in segments], np.int64)
    slot_child = spliced([segment.slot_child for segment in segments], np.int64)
    if slot_bases.shape[0]:
        slot_owner = slot_owner + slot_bases
        slot_child = slot_child + slot_bases

    return EncodedPlans(
        node_exponent=spliced([segment.node_exponent for segment in segments], np.int64),
        node_is_leaf=spliced([segment.node_is_leaf for segment in segments], bool),
        node_depth=spliced([segment.node_depth for segment in segments], np.int64),
        plan_node_start=plan_node_start,
        slot_owner=slot_owner,
        slot_child=slot_child,
        slot_suffix_exponent=spliced([segment.slot_suffix for segment in segments], np.int64),
        plan_slot_start=plan_slot_start,
    )
