"""The instruction-count model (paper reference [5], Hitczenko–Johnson–Huang).

The model computes, from the split tree alone, exactly the event counts the
instrumented interpreter would observe — codelet calls, split invocations and
loop iterations — and weights them with an :class:`InstructionCostModel`.  The
recurrence mirrors the triple loop: a child of size ``N_i`` inside a node of
size ``N`` is invoked ``N / N_i`` times, so its standalone counts contribute
with that multiplicity, and the node itself adds its loop overhead events.
That recurrence, :func:`analytic_stats`, lives beside ``ExecutionStats`` in
:mod:`repro.wht.interpreter`, since the simulated machine reports it too.

Because the analytic counts and the interpreter's measured counts are the same
quantity computed two ways, the test suite asserts exact agreement for every
plan; this is the reproduction's analogue of the paper's statement that the
models "can be computed from a high-level description of the algorithm".
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.machine.cpu import InstructionBreakdown, InstructionCostModel
from repro.wht.codelets import codelet_costs
from repro.wht.encoding import EncodedPlans, encode_plans
from repro.wht.interpreter import ExecutionStats, analytic_stats
from repro.wht.plan import MAX_UNROLLED, Plan

__all__ = ["analytic_stats", "instruction_count", "InstructionCountModel"]


@lru_cache(maxsize=1)
def _codelet_cost_tables() -> dict[str, np.ndarray]:
    """Per-exponent codelet operation counts as int64 lookup tables."""
    ks = range(1, MAX_UNROLLED + 1)
    costs = [codelet_costs(k) for k in ks]
    pad = [0]  # leaf exponents start at 1
    return {
        "additions": np.array(pad + [c.additions for c in costs], dtype=np.int64),
        "subtractions": np.array(pad + [c.subtractions for c in costs], dtype=np.int64),
        "loads": np.array(pad + [c.loads for c in costs], dtype=np.int64),
        "stores": np.array(pad + [c.stores for c in costs], dtype=np.int64),
    }


def instruction_count(
    plan: Plan,
    cost_model: InstructionCostModel | None = None,
) -> int:
    """Total modelled instruction count of one execution of ``plan``."""
    model = cost_model if cost_model is not None else InstructionCostModel()
    return model.instructions(analytic_stats(plan))


class InstructionCountModel:
    """Callable wrapper around the analytic instruction-count model.

    Instances are cheap, deterministic cost functions suitable for the DP
    search, the model-pruned search and the correlation studies.
    """

    def __init__(self, cost_model: InstructionCostModel | None = None):
        self.cost_model = cost_model if cost_model is not None else InstructionCostModel()

    def stats(self, plan: Plan) -> ExecutionStats:
        """Analytic event counts for ``plan``."""
        return analytic_stats(plan)

    def breakdown(self, plan: Plan) -> InstructionBreakdown:
        """Instruction totals by category for ``plan``."""
        return self.cost_model.breakdown(analytic_stats(plan))

    def count(self, plan: Plan) -> int:
        """Total modelled instruction count for ``plan``."""
        return self.cost_model.instructions(analytic_stats(plan))

    def count_batch(
        self, plans: "Sequence[Plan] | EncodedPlans"
    ) -> np.ndarray:
        """Vectorised :meth:`count` over a batch of plans.

        Accepts either a plan sequence or a pre-built
        :class:`~repro.wht.encoding.EncodedPlans` (so one encoding can be
        shared between models).  Returns an int64 array that matches the
        scalar :meth:`count` exactly on every plan (property-tested): the
        recurrence is replaced by closed-form per-node contributions — a node
        of size ``2^k`` under a root of size ``2^n`` executes ``2^(n-k)``
        times — summed per plan with exact integer cumulative sums.
        """
        enc = plans if isinstance(plans, EncodedPlans) else encode_plans(plans)
        if enc.num_plans == 0:
            return np.zeros(0, dtype=np.int64)
        model = self.cost_model
        mult = enc.node_multiplicity()
        leaf = enc.node_is_leaf
        leaf_k = enc.node_exponent[leaf]
        leaf_mult = mult[leaf]
        tables = _codelet_cost_tables()

        # Per-node direct instructions: codelet bodies + per-call overhead on
        # leaves, invocation overhead on splits.
        node_direct = np.zeros(enc.num_nodes, dtype=np.int64)
        node_direct[leaf] = leaf_mult * (
            tables["additions"][leaf_k]
            + tables["subtractions"][leaf_k]
            + tables["loads"][leaf_k]
            + tables["stores"][leaf_k]
            + model.codelet_call_base
            + model.codelet_call_per_unit * leaf_k
        )
        node_direct[~leaf] = mult[~leaf] * model.split_invocation_cost

        # Per-node codelet-call counts (for the recursion-overhead correction).
        node_codelet_calls = np.zeros(enc.num_nodes, dtype=np.int64)
        node_codelet_calls[leaf] = leaf_mult

        # Per-slot loop events.  For child ``i`` of a split of size ``2^m``:
        # the stride loop runs ``S_i = 2^suffix`` times, the block loop
        # ``R_i = 2^(m - c_i - suffix)`` times and the child is called
        # ``R_i * S_i = 2^(m - c_i)`` times — all scaled by the owner's
        # multiplicity.
        owner_mult = mult[enc.slot_owner]
        owner_exp = enc.node_exponent[enc.slot_owner]
        child_exp = enc.node_exponent[enc.slot_child]
        suffix = enc.slot_suffix_exponent
        slot_stride_iters = owner_mult << suffix
        slot_block_iters = owner_mult << (owner_exp - child_exp - suffix)
        slot_child_calls = owner_mult << (owner_exp - child_exp)
        slot_loop = (
            owner_mult * model.outer_loop_cost
            + slot_stride_iters * model.stride_loop_cost
            + slot_block_iters * model.block_loop_cost
            + slot_child_calls * model.inner_loop_cost
        )

        totals = enc.segment_sum_nodes(node_direct) + enc.segment_sum_slots(slot_loop)
        child_calls = enc.segment_sum_slots(slot_child_calls)
        codelet_calls = enc.segment_sum_nodes(node_codelet_calls)
        recursive_calls = np.maximum(child_calls - codelet_calls, 0)
        totals += recursive_calls * model.recursive_call_cost
        return totals

    def __call__(self, plan: Plan) -> float:
        """Cost-function interface (e.g. for :class:`repro.wht.DPSearch`)."""
        return float(self.count(plan))

    def __repr__(self) -> str:
        return f"InstructionCountModel({self.cost_model!r})"
