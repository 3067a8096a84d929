"""The batched, metric-first plan-evaluation engine for search costs.

The paper's search economics are "spend expensive work only where it pays":
analytic models prune the space and only the survivors are measured.  This
module applies the same economics to the *measurement* side of a search, and
— since the paper's whole point is that different cost functions rank plans
differently — does it per **metric**:

* candidates are evaluated in **batches** — a search round hands the whole
  candidate list to :meth:`CostEngine.records`, which deduplicates by
  :func:`repro.wht.encoding.plan_key` and routes the remaining work through a
  pluggable :class:`~repro.runtime.backends.ExecutionBackend` (serial or
  multiprocess fan-out);
* one simulated execution populates **every hardware counter metric at
  once** (``cycles``, ``instructions``, ``l1_misses``, ``l2_misses``,
  ``l1_accesses`` all come from the same
  :class:`~repro.machine.measurement.Measurement`), so requesting a subset
  of already-measured metrics — or a new counter metric on a measured plan —
  re-measures nothing;
* analytic **model metrics** (``model_instructions``, ``model_l1_misses``,
  ``model_combined``) are computed from the plan structure with the
  vectorised batch models and never touch the machine, so adding a model
  metric to an existing campaign performs zero hardware measurements;
* every record lands in a **persistent append-log record store** in the
  session's :class:`~repro.runtime.store.CampaignStore`, keyed by
  ``(machine content hash, seed)`` — re-running a figure or resuming a
  search in a later process skips every already-measured candidate, and
  appends stay O(batch) no matter how large the table has grown.  New values
  reach the cache only *after* their append returns (durability before
  visibility), and :meth:`CostEngine.reload` folds in whatever another
  writer — or a failed, torn append — left in the log since;
* the noise draw of each measurement is seeded per plan
  (``derive_seed(seed, "plan-cost", plan_key)``), so the cost of a plan is
  one well-defined record independent of evaluation order, batch shape or
  backend — which is what makes serial, multiprocess and cached evaluation
  bit-identical.  (On a noise-free machine a record's cycles equal
  ``machine.measure(plan).cycles`` exactly.)

This is the one cost API of every search strategy (:mod:`repro.search`): a
strategy's ``cost`` is either an engine surface, which evaluates its default
:class:`~repro.runtime.objectives.Objective`, or :meth:`EngineSurface.cost`,
which binds any other objective — a different metric, the analytic
``model_instructions`` / ``model_combined`` scores, the paper's
``alpha*I + beta*M`` composite, ``wall_time`` or a custom reducer — to the
same shared record cache.  Both are callable on a single plan and expose
``batch`` for a whole round.  The ``evaluations`` / ``measured`` counter pair
distinguishes cache hits from real simulation work for honest pruning
reports.

:class:`EngineSurface` is that consumer-facing surface, defined once:
``cost`` / ``batch`` / ``__call__``, the ``evaluations`` / ``measured`` /
``fallbacks`` counters, and the ``fallback=True`` path — a lazily built
private engine that serves, bit-identically, any batch a record source
could not.  Three classes stand on it, one per record path: the local
:class:`CostEngine`, the in-process
:class:`~repro.runtime.service.ServiceClient` and the wire's
:class:`~repro.runtime.fleet.FleetClient` (a single server URL is a
one-member fleet).  Each defines ``records`` in its own class body.

This engine is also the only acquisition path: the
:class:`~repro.runtime.service.CampaignService` keeps one
:class:`CostEngine` per record shard and its workers acquire through it, so
the ``(machine config, plan, seed)`` contract is written down once.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Sequence

from repro.machine.machine import MachineConfig, PreparedPlanCache, SimulatedMachine
from repro.runtime.backends import BatchedBackend, ExecutionBackend, WorkUnit
from repro.runtime.metrics import (
    COUNTER_CHANNEL,
    MODEL_CHANNEL,
    WALL_CHANNEL,
    CostRecord,
    counter_values,
    metric_spec,
    nondeterministic_metric_names,
)
from repro.runtime.objectives import Objective, resolve_objective
from repro.runtime.store import (
    CampaignStore,
    CostLogKey,
    MemoryStore,
    NullStore,
    machine_config_hash,
)
from repro.util.rng import derive_seed
from repro.wht.encoding import MAX_ENCODABLE_EXPONENT, EncodedPlans, encode_plans, plan_key
from repro.wht.plan import Plan

__all__ = ["CostEngine", "EngineSurface", "ObjectiveCost"]

_NOTHING: "Mapping[str, float]" = MappingProxyType({})


class ObjectiveCost:
    """One objective bound to a cost engine: a drop-in search cost function.

    Callable on a single plan, exposes ``batch`` for the strategies' batched
    evaluation protocol, and proxies the engine's ``evaluations``/``measured``
    counters so pruning reports stay honest.  All objective costs bound to
    the same engine share its per-plan record cache — evaluating a second
    objective over already-measured metrics costs nothing.
    """

    def __init__(self, engine: "EngineSurface", objective: Objective):
        self.engine = engine
        self.objective = objective

    def batch(self, plans: Sequence[Plan]) -> list[float]:
        """Objective values of ``plans`` in order."""
        records = self.engine.records(plans, self.objective.metrics)
        value = self.objective.value
        return [value(record.values) for record in records]

    def __call__(self, plan: Plan) -> float:
        """Scalar cost-function interface (a batch of one)."""
        return self.batch([plan])[0]

    @property
    def evaluations(self) -> int:
        """Plan-cost requests served by the underlying engine."""
        return self.engine.evaluations

    @property
    def measured(self) -> int:
        """Plans actually measured by the underlying engine."""
        return self.engine.measured

    def __repr__(self) -> str:
        return f"ObjectiveCost({self.objective.describe()!r}, engine={self.engine!r})"


class EngineSurface:
    """The engine surface every record path shares.

    Search strategies and sessions consume ``records`` / ``batch`` /
    ``__call__`` / ``cost(objective)`` and read the ``evaluations`` /
    ``measured`` / ``fallbacks`` counters; this class defines all of it
    except ``records``, which each subclass implements in its own body.

    ``fallback=True`` arms graceful degradation: a subclass whose record
    source fails hands the failure to :meth:`_degrade`, which re-raises
    it unless fallback is armed and otherwise serves the batch from a
    private :class:`CostEngine` built on first use.  That engine has the
    same machine configuration and seed, hence the same
    ``derive_seed(seed, "plan-cost", plan_key)`` noise draws and
    bit-identical records; ``fallbacks`` counts the batches it served.
    """

    def __init__(
        self,
        machine: "MachineConfig | SimulatedMachine",
        objective: "str | Objective" = "cycles",
        seed: int = 0,
        fallback: bool = False,
    ):
        self.config = machine.config if isinstance(machine, SimulatedMachine) else machine
        if not isinstance(self.config, MachineConfig):
            raise TypeError(f"cannot interpret {machine!r} as a machine")
        self.objective = resolve_objective(objective)
        self.seed = int(seed)
        self.fallback = bool(fallback)
        #: Plan-cost requests served (cache hits included).
        self.evaluations = 0
        #: Plans actually measured on this surface's behalf.
        self.measured = 0
        #: Batches the degraded (private-engine) path served.
        self.fallbacks = 0
        self._fallback_engine: "CostEngine | None" = None

    def cost(self, objective: "str | Objective") -> ObjectiveCost:
        """Bind ``objective`` to this engine as a drop-in cost function.

        Every bound cost shares the engine's record cache and counters, so
        switching objectives mid-campaign re-measures nothing that is
        already known.
        """
        return ObjectiveCost(self, resolve_objective(objective))

    def batch(self, plans: Sequence[Plan]) -> list[float]:
        """Default-objective costs of ``plans`` in order."""
        records = self.records(plans)
        value = self.objective.value
        return [value(record.values) for record in records]

    def __call__(self, plan: Plan) -> float:
        """Scalar cost-function interface (a batch of one)."""
        return self.batch([plan])[0]

    # -- the fallback path -------------------------------------------------------

    def _fallback_store(self) -> CampaignStore:
        """The private engine's store: in-memory unless a subclass can read more."""
        return MemoryStore()

    def _degrade(
        self, error: Exception, plans: Sequence[Plan], names: "tuple[str, ...]"
    ) -> list[CostRecord]:
        """Re-raise ``error``, or with ``fallback`` armed serve the batch privately."""
        if not self.fallback:
            raise error
        if self._fallback_engine is None:
            self._fallback_engine = CostEngine(
                SimulatedMachine(self.config),
                objective=self.objective,
                backend=BatchedBackend(),
                store=self._fallback_store(),
                seed=self.seed,
            )
        engine = self._fallback_engine
        self.fallbacks += 1
        before = engine.measured
        records = engine.records(list(plans), names)
        self.measured += engine.measured - before
        return records

    def close(self) -> None:
        """Close the private fallback engine's backend, if one was built (idempotent)."""
        engine, self._fallback_engine = self._fallback_engine, None
        if engine is not None:
            engine.backend.close()


class CostEngine(EngineSurface):
    """Batched, cached multi-metric evaluation of candidate plans.

    Parameters
    ----------
    machine:
        The simulated machine to measure on.  Unless it already has one (a
        session's machine does), a default-capacity
        :class:`~repro.machine.machine.PreparedPlanCache` is attached so
        repeated preparations within the engine's lifetime are also reused.
    objective:
        The engine's default objective — what ``engine(plan)`` and
        ``engine.batch(plans)`` evaluate.  A metric name string, an
        :class:`~repro.runtime.objectives.Objective`, or a
        :class:`~repro.models.combined.CombinedModel` (default:
        ``"cycles"``, the WHT package's classic search cost).
    backend:
        How candidate batches execute (default:
        :class:`~repro.runtime.backends.BatchedBackend`, which fuses every
        batch's distinct plans into one cross-plan prepared workload).
    store:
        Where the per-plan record log persists (default:
        :class:`~repro.runtime.store.NullStore`, i.e. in-memory for the
        engine's lifetime only).  With a
        :class:`~repro.runtime.store.DiskStore` the cache survives across
        processes.
    seed:
        Seed of the per-plan noise derivation.  Engines sharing (machine
        configuration, seed) share cached records — across *all* metrics
        and objectives.
    """

    def __init__(
        self,
        machine: SimulatedMachine,
        *,
        objective: "str | Objective" = "cycles",
        backend: ExecutionBackend | None = None,
        store: CampaignStore | None = None,
        seed: int = 0,
    ):
        super().__init__(machine, objective, seed)
        self.machine = machine
        if machine.prepared_cache is None:
            machine.prepared_cache = PreparedPlanCache()
        self.backend = backend if backend is not None else BatchedBackend()
        self.store = store if store is not None else NullStore()
        self.key = CostLogKey(
            machine_hash=machine_config_hash(machine.config), seed=self.seed
        )
        #: Per-plan record cache: plan key -> metric name -> value.  Seeded
        #: from the store's record log by :meth:`reload`.
        self._records: dict[str, dict[str, float]] = {}
        self._scorers: dict[str, object] = {}
        #: Model-metric values computed (analytic: no machine work).
        self.scored = 0
        self.reload()

    def reload(self) -> None:
        """Fold the store's current record log into the cache.

        Values already cached stay (so do wall times, which are never
        persisted); the store's values are added on top.  Non-deterministic
        metrics (wall time) are scrubbed from what is read — a timing
        recorded by another host or session must never be served as this
        engine's cache hit.  Re-reading picks up records another writer
        appended since, or that a failed append left behind (a torn tail
        whose complete lines did land).
        """
        volatile = nondeterministic_metric_names()
        for key, values in self.store.get_cost_records(self.key).items():
            for name in volatile:
                values.pop(name, None)
            if key in self._records:
                self._records[key].update(values)
            elif values:
                self._records[key] = values  # the store hands out fresh mappings

    # -- evaluation --------------------------------------------------------------

    def _noise_seed(self, key: str) -> int:
        return derive_seed(self.seed, "plan-cost", key)

    def records(
        self, plans: Sequence[Plan], metrics: Sequence[str] | None = None
    ) -> list[CostRecord]:
        """Cost records of ``plans`` in order, restricted to ``metrics``.

        ``metrics`` defaults to the engine's objective's metrics.  Per
        metric, only the work that is actually missing happens: hardware
        counter metrics trigger one measurement per distinct unmeasured plan
        (populating *all* counter metrics of that plan at once), wall-time
        metrics execute the plan, and model metrics are computed with the
        vectorised batch models without touching the machine.  Everything
        newly acquired is appended to the store's record log *before* it is
        published to the cache — durability before visibility: no value any
        caller can observe can be lost, and an append that raises leaves the
        cache exactly as it was.
        """
        names = tuple(metrics) if metrics is not None else self.objective.metrics
        specs = [metric_spec(name) for name in names]
        keys = [plan_key(plan) for plan in plans]
        self.evaluations += len(keys)

        need_counters: dict[str, Plan] = {}
        need_wall: dict[tuple[str, str], tuple[Plan, object]] = {}
        need_model: dict[str, dict[str, Plan]] = {}
        for key, plan in zip(keys, plans):
            record = self._records.get(key)
            for spec in specs:
                if record is not None and spec.name in record:
                    continue
                if spec.channel == COUNTER_CHANNEL:
                    need_counters.setdefault(key, plan)
                elif spec.channel == WALL_CHANNEL:
                    need_wall.setdefault((key, spec.name), (plan, spec))
                elif spec.channel == MODEL_CHANNEL:
                    need_model.setdefault(spec.name, {}).setdefault(key, plan)

        acquired: dict[str, dict[str, float]] = {}
        pending: dict[str, dict[str, float]] = {}

        def stage(key: str, values: dict[str, float], persist: bool = True) -> None:
            acquired.setdefault(key, {}).update(values)
            if persist:
                pending.setdefault(key, {}).update(values)

        if need_counters:
            units = [
                WorkUnit(plan=plan, noise_seed=self._noise_seed(key))
                for key, plan in need_counters.items()
            ]
            measurements = self.backend.measure_units(self.machine, units)
            self.measured += len(units)
            for key, measurement in zip(need_counters, measurements):
                stage(key, counter_values(measurement))
        for (key, _name), (plan, spec) in need_wall.items():
            self.measured += 1
            # Non-deterministic acquisitions are memoised for this engine's
            # lifetime but never persisted: wall time measured here is
            # meaningless on the host that reads the store next.
            stage(
                key,
                {spec.name: float(spec.measure(self.machine, plan))},
                persist=spec.deterministic,
            )
        if need_model:
            # One shared encoding feeds every model metric of the batch
            # (a composite objective asks for two or three at once); each
            # metric stages only the plans that were missing *it*.
            union: dict[str, Plan] = {}
            for missing in need_model.values():
                union.update(missing)
            shared: EncodedPlans | None = None
            if len(need_model) > 1:
                union_plans = list(union.values())
                if all(plan.n <= MAX_ENCODABLE_EXPONENT for plan in union_plans):
                    shared = encode_plans(union_plans)
            if shared is not None:
                index_of = {key: index for index, key in enumerate(union)}
                for name, missing in need_model.items():
                    values = self._scorer(name)(shared)
                    self.scored += len(missing)
                    for key in missing:
                        stage(key, {name: float(values[index_of[key]])})
            else:
                for name, missing in need_model.items():
                    values = self._scorer(name)(list(missing.values()))
                    self.scored += len(missing)
                    for key, value in zip(missing, values):
                        stage(key, {name: float(value)})

        if pending:
            self.store.append_cost_records(self.key, pending)
        for key, values in acquired.items():
            if key in self._records:
                self._records[key].update(values)
            else:
                self._records[key] = values
        return [
            CostRecord(
                plan_key=key,
                values={name: self._records[key][name] for name in names},
            )
            for key in keys
        ]

    def _scorer(self, metric: str):
        scorer = self._scorers.get(metric)
        if scorer is None:
            scorer = metric_spec(metric).scorer_factory(self.machine.config)
            self._scorers[metric] = scorer
        return scorer

    # -- persistence -------------------------------------------------------------

    def compact(self) -> None:
        """Compact the store's record log for this engine's key."""
        self.store.compact_cost_records(self.key)

    # -- introspection -----------------------------------------------------------

    @property
    def cached_costs(self) -> int:
        """Number of plans with at least one cached metric value."""
        return len(self._records)

    def cached(self, key: str) -> "Mapping[str, float]":
        """The values cached under plan key ``key`` (empty if unknown).

        A live view for readers — callers must not mutate it.
        """
        return self._records.get(key, _NOTHING)

    def known_metrics(self, plan: Plan) -> tuple[str, ...]:
        """The metrics already cached for ``plan`` (empty if unknown)."""
        return tuple(self.cached(plan_key(plan)))

    def __repr__(self) -> str:
        return (
            f"CostEngine(machine={self.machine.config.name!r}, "
            f"objective={self.objective.describe()!r}, "
            f"backend={getattr(self.backend, 'name', type(self.backend).__name__)}, "
            f"store={self.store!r}, seed={self.seed}, "
            f"{self.cached_costs} cached records, "
            f"{self.measured}/{self.evaluations} measured)"
        )
