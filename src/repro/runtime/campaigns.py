"""Campaign execution on top of backends and stores.

This module is the runtime's analogue of the paper's measurement campaigns:
draw plans from the RSU distribution, derive one noise seed per sample, and
hand the resulting work units to an execution backend.  Plan sampling stays in
the driver (it is a sequential draw from one generator), so every backend
measures the exact same plans with the exact same seeds; that is what makes
serial, multiprocess and batched execution bit-identical.

The seed derivation scheme is unchanged from the original serial loop:
``derive_seed(seed, "plans", n, count)`` seeds the plan sampler and
``derive_seed(seed, "noise", n, index)`` seeds sample ``index``'s cycle-noise
draw, so tables produced through this module match the historical ones.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.machine.machine import SimulatedMachine
from repro.runtime.backends import BatchedBackend, ExecutionBackend, WorkUnit
from repro.runtime.store import CampaignKey, CampaignStore, NullStore, machine_config_hash
from repro.runtime.table import MeasurementTable
from repro.util.rng import derive_seed
from repro.util.validation import check_positive_int
from repro.wht.encoding import plan_key
from repro.wht.plan import MAX_UNROLLED, Plan
from repro.wht.random_plans import RSUSampler

__all__ = [
    "campaign_key",
    "named_plans_key",
    "sample_units",
    "run_campaign",
    "measure_plan_list",
]


def campaign_key(
    machine: SimulatedMachine,
    n: int,
    count: int,
    seed: int,
    max_leaf: int = MAX_UNROLLED,
    max_children: int | None = None,
) -> CampaignKey:
    """The content-addressed store key of one RSU campaign."""
    return CampaignKey(
        machine_hash=machine_config_hash(machine.config),
        n=n,
        count=count,
        seed=seed,
        max_leaf=max_leaf,
        max_children=max_children,
    )


def named_plans_key(
    machine: SimulatedMachine,
    plans: Sequence[Plan],
    seed: int,
    tag: str = "explicit",
) -> CampaignKey:
    """The content-addressed store key of one explicit-plan measurement table.

    Unlike :func:`campaign_key` — where ``(n, count, seed, sampler knobs)``
    fully determine the sampled plans — an explicit plan list is free-form,
    so the key digests the canonical plan keys of the list itself (order
    included: the noise seed of each entry depends on its index).  Two calls
    measuring the same plans in the same order under the same seed share one
    store entry; any difference in the list yields a disjoint key.
    """
    digest = hashlib.sha256(
        "\n".join(f"{tag}|{plan_key(plan)}" for plan in plans).encode("utf-8")
    ).hexdigest()[:16]
    return CampaignKey(
        machine_hash=machine_config_hash(machine.config),
        n=plans[0].n,
        count=len(plans),
        seed=seed,
        max_leaf=MAX_UNROLLED,
        max_children=None,
        kind=f"plans:{tag}:{digest}",
    )


def sample_units(
    n: int,
    count: int,
    seed: int,
    max_leaf: int = MAX_UNROLLED,
    max_children: int | None = None,
) -> list[WorkUnit]:
    """Draw ``count`` RSU plans of size ``2^n`` with per-sample noise seeds."""
    check_positive_int(n, "n")
    check_positive_int(count, "count")
    sampler = RSUSampler(max_leaf=max_leaf, max_children=max_children)
    plans = sampler.sample_many(n, count, derive_seed(seed, "plans", n, count))
    return [
        WorkUnit(plan=plan, noise_seed=derive_seed(seed, "noise", n, index))
        for index, plan in enumerate(plans)
    ]


def run_campaign(
    machine: SimulatedMachine,
    n: int,
    count: int,
    *,
    seed: int,
    max_leaf: int = MAX_UNROLLED,
    max_children: int | None = None,
    backend: ExecutionBackend | None = None,
    store: CampaignStore | None = None,
) -> MeasurementTable:
    """Measure an RSU campaign, consulting ``store`` before executing.

    On a store hit the backend is never invoked (zero ``measure`` calls); on a
    miss the sampled work units go through ``backend`` — by default the fused
    :class:`~repro.runtime.backends.BatchedBackend`, which prepares the whole
    campaign as one cross-plan workload and is bit-identical to the serial
    path (noise draws are pinned per unit, not to execution order) — and the
    resulting table is stored before being returned.
    """
    backend = backend if backend is not None else BatchedBackend()
    store = store if store is not None else NullStore()
    key = campaign_key(machine, n, count, seed, max_leaf=max_leaf, max_children=max_children)
    cached = store.get(key)
    if cached is not None:
        return cached
    units = sample_units(n, count, seed, max_leaf=max_leaf, max_children=max_children)
    measurements = backend.measure_units(machine, units)
    table = MeasurementTable.from_measurements(measurements)
    store.put(key, table)
    return table


def measure_plan_list(
    machine: SimulatedMachine,
    plans: Iterable[Plan],
    *,
    seed: int,
    tag: str = "explicit",
    backend: ExecutionBackend | None = None,
    store: CampaignStore | None = None,
) -> MeasurementTable:
    """Measure an explicit list of plans (all of one size) through a backend.

    Noise seeds are derived per index from ``(seed, tag, plan.n, index)``.
    Defaults to the fused :class:`~repro.runtime.backends.BatchedBackend`
    (bit-identical to serial execution, one prepared workload per batch).

    ``store`` makes explicit-plan tables store-native, exactly like
    :func:`run_campaign`: the table is keyed by :func:`named_plans_key` (a
    digest of the plan list itself), consulted before measuring and written
    after.  Because every noise draw is derived from ``(seed, tag, n,
    index)``, a store hit is bit-identical to re-measuring — caching changes
    nothing but the work performed.  The default (``None``) preserves the
    historical uncached behaviour.
    """
    backend = backend if backend is not None else BatchedBackend()
    plan_list: Sequence[Plan] = list(plans)
    if not plan_list:
        raise ValueError("measure_plan_list requires at least one plan")
    store = store if store is not None else NullStore()
    key = named_plans_key(machine, plan_list, seed, tag=tag)
    cached = store.get(key)
    if cached is not None:
        return cached
    units = [
        WorkUnit(plan=plan, noise_seed=derive_seed(seed, tag, plan.n, index))
        for index, plan in enumerate(plan_list)
    ]
    measurements = backend.measure_units(machine, units)
    table = MeasurementTable.from_measurements(measurements)
    store.put(key, table)
    return table
