"""First-class cost metrics: the registry behind the multi-metric cost API.

The paper's central observation is that *different* cost functions — measured
cycles, instruction counts, cache-miss models, and the combined
``alpha * I + beta * M`` model — rank WHT plans differently.  The runtime
therefore treats the cost quantity itself as data: a :class:`MetricSpec`
describes one named metric (how it is obtained and from which *channel*), and
the registry maps metric names to specs so every consumer — the cost engine,
the search objectives, the figures — selects metrics uniformly by name.

Metrics come in two kinds:

* **hardware** metrics are read off one simulated execution.  All metrics on
  the ``"counters"`` channel (``cycles``, ``instructions``, ``l1_misses``,
  ``l2_misses``, ``l1_accesses``) are extracted from a single
  :class:`~repro.machine.measurement.Measurement` — one PAPI-style run
  populates every one of them at once, which is what makes requesting a new
  counter metric on an already-measured plan free.  ``wall_time`` lives on
  its own ``"wall"`` channel because it requires actually executing the plan
  in Python rather than reading the simulator's counters.
* **model** metrics are computed analytically from the plan structure alone
  (no execution, no simulation), backed by the vectorised batch models:
  ``model_instructions``, ``model_l1_misses`` and the paper's default
  combined model ``model_combined``.  Their scorers are built per machine
  configuration so the instruction weights and the L1 geometry match the
  machine being studied.

:class:`CostRecord` is the unit the engine trades in: one plan's values for
any subset of metrics.  Records are merged per plan in the engine's cache and
in the append-log store, so the set of known metrics for a plan grows
monotonically without ever re-measuring what is already known.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.machine.machine import MachineConfig, SimulatedMachine
from repro.machine.measurement import Measurement
from repro.models.cache_misses import CacheMissModel
from repro.models.combined import CombinedModel
from repro.models.instruction_count import InstructionCountModel
from repro.wht.encoding import MAX_ENCODABLE_EXPONENT, EncodedPlans, encode_plans
from repro.wht.plan import Plan

__all__ = [
    "COUNTER_CHANNEL",
    "WALL_CHANNEL",
    "MODEL_CHANNEL",
    "MetricSpec",
    "CostRecord",
    "WallTimePolicy",
    "DEFAULT_WALL_TIME_POLICY",
    "set_wall_time_policy",
    "register_metric",
    "metric_spec",
    "available_metrics",
    "hardware_metric_names",
    "counter_metric_names",
    "counter_values",
    "model_metric_names",
]

#: Channel of every metric extracted from one simulated (PAPI-style) run.
COUNTER_CHANNEL = "counters"
#: Channel of metrics requiring an actual Python execution of the plan.
WALL_CHANNEL = "wall"
#: Channel of analytic model metrics (no execution of any kind).
MODEL_CHANNEL = "model"

#: Scorer signature: plans (or an already-shared :class:`EncodedPlans`) in,
#: one float value per plan out.  Accepting an encoding lets the engine
#: encode a batch once and feed every model metric from it.
BatchScorer = Callable[["Sequence[Plan] | EncodedPlans"], "np.ndarray | list[float]"]


@dataclass(frozen=True)
class MetricSpec:
    """Description of one named cost metric.

    Exactly one acquisition mechanism is set, matching ``channel``:

    * ``from_measurement`` for :data:`COUNTER_CHANNEL` metrics (a pure read
      of one :class:`Measurement` field);
    * ``measure`` for :data:`WALL_CHANNEL` metrics (runs the plan);
    * ``scorer_factory`` for :data:`MODEL_CHANNEL` metrics (builds the
      vectorised batch scorer for one machine configuration).
    """

    name: str
    #: ``"hardware"`` (read off an execution) or ``"model"`` (analytic).
    kind: str
    #: Which acquisition channel populates the metric.
    channel: str
    description: str
    from_measurement: Callable[[Measurement], float] | None = None
    measure: Callable[[SimulatedMachine, Plan], float] | None = None
    scorer_factory: Callable[[MachineConfig], BatchScorer] | None = None
    #: Whether repeated acquisition yields identical values (wall time does
    #: not; everything else is deterministic given the engine's noise seed).
    deterministic: bool = True
    #: Optional acquisition policy carried alongside the metric (e.g. the
    #: ``wall_time`` metric's :class:`WallTimePolicy`), recorded so consumers
    #: can see *how* stored values were obtained.
    policy: object | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("hardware", "model"):
            raise ValueError(f"metric kind must be 'hardware' or 'model', got {self.kind!r}")
        mechanisms = {
            COUNTER_CHANNEL: self.from_measurement,
            WALL_CHANNEL: self.measure,
            MODEL_CHANNEL: self.scorer_factory,
        }
        if self.channel not in mechanisms:
            raise ValueError(
                f"unknown metric channel {self.channel!r}; "
                f"available: {sorted(mechanisms)}"
            )
        if mechanisms[self.channel] is None:
            raise ValueError(
                f"metric {self.name!r} on channel {self.channel!r} is missing "
                "its acquisition function"
            )


@dataclass(frozen=True)
class CostRecord:
    """One plan's values for some set of metrics.

    ``values`` maps metric names to floats; records for the same plan merge
    (new metrics extend the record, re-measured metrics overwrite with
    identical values by construction).  The record behaves like a read-only
    mapping for the metrics it carries.
    """

    plan_key: str
    values: Mapping[str, float] = field(default_factory=dict)

    def __getitem__(self, metric: str) -> float:
        try:
            return self.values[metric]
        except KeyError:
            raise KeyError(
                f"record for {self.plan_key!r} has no metric {metric!r}; "
                f"known: {sorted(self.values)}"
            ) from None

    def __contains__(self, metric: str) -> bool:
        return metric in self.values

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def metrics(self) -> tuple[str, ...]:
        """Names of the metrics this record carries."""
        return tuple(self.values)


# -- registry -------------------------------------------------------------------

_REGISTRY: dict[str, MetricSpec] = {}


def register_metric(spec: MetricSpec, replace: bool = False) -> MetricSpec:
    """Add ``spec`` to the registry (``replace=True`` to overwrite)."""
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"metric {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def metric_spec(name: str) -> MetricSpec:
    """The registered spec for ``name`` (raises ``KeyError`` with the options)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown metric {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_metrics() -> tuple[str, ...]:
    """Every registered metric name, sorted."""
    return tuple(sorted(_REGISTRY))


def hardware_metric_names() -> tuple[str, ...]:
    """Names of the hardware metrics, in registration order."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.kind == "hardware")


def counter_metric_names() -> tuple[str, ...]:
    """Names of the metrics one ``measure`` call populates, in registration order."""
    return tuple(
        name for name, spec in _REGISTRY.items() if spec.channel == COUNTER_CHANNEL
    )


def counter_values(measurement: Measurement) -> dict[str, float]:
    """Every counter-channel metric of one measurement, by name.

    This is the "one PAPI run populates every counter at once" extraction
    the cost engine (and so the campaign service) stages: acquiring *any*
    counter metric stores *all* of them.
    """
    values = {}
    for name, spec in _REGISTRY.items():
        if spec.channel == COUNTER_CHANNEL:
            values[name] = float(spec.from_measurement(measurement))
    return values


def model_metric_names() -> tuple[str, ...]:
    """Names of the analytic model metrics, in registration order."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.kind == "model")


def nondeterministic_metric_names() -> tuple[str, ...]:
    """Names of the metrics whose repeated acquisition varies (wall time).

    The cost engine keeps these out of the persistent record store: a
    wall-clock number measured on one host must not be served as a cache
    hit on another.
    """
    return tuple(name for name, spec in _REGISTRY.items() if not spec.deterministic)


# -- built-in hardware metrics ---------------------------------------------------

register_metric(
    MetricSpec(
        name="cycles",
        kind="hardware",
        channel=COUNTER_CHANNEL,
        description="Simulated cycle count (the paper's PAPI_TOT_CYC)",
        from_measurement=lambda m: float(m.cycles),
    )
)
register_metric(
    MetricSpec(
        name="instructions",
        kind="hardware",
        channel=COUNTER_CHANNEL,
        description="Retired instructions (the paper's PAPI_TOT_INS)",
        from_measurement=lambda m: float(m.instructions),
    )
)
register_metric(
    MetricSpec(
        name="l1_misses",
        kind="hardware",
        channel=COUNTER_CHANNEL,
        description="L1 data-cache misses (the paper's PAPI_L1_DCM)",
        from_measurement=lambda m: float(m.l1_misses),
    )
)
register_metric(
    MetricSpec(
        name="l2_misses",
        kind="hardware",
        channel=COUNTER_CHANNEL,
        description="L2 data-cache misses (the paper's PAPI_L2_DCM)",
        from_measurement=lambda m: float(m.l2_misses),
    )
)
register_metric(
    MetricSpec(
        name="l1_accesses",
        kind="hardware",
        channel=COUNTER_CHANNEL,
        description="L1 data-cache accesses (loads + stores reaching the cache)",
        from_measurement=lambda m: float(m.l1_accesses),
    )
)
@dataclass(frozen=True)
class WallTimePolicy:
    """Acquisition policy of the ``wall_time`` metric (see DESIGN.md §9).

    Wall time is inherently non-deterministic, so a single run is whatever
    the scheduler made of it.  The policy runs the plan ``repetitions``
    times, drops ``trim_fraction`` of the sorted timings from *each* end and
    stores the mean of the rest — a trimmed mean that damps one-sided
    scheduler outliers, which is what makes wall-time records collected on
    different hosts comparable in shape (never in absolute value; the engine
    still refuses to serve another host's wall time from the store).
    """

    repetitions: int = 5
    trim_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not 0.0 <= self.trim_fraction < 0.5:
            raise ValueError(
                f"trim_fraction must lie in [0, 0.5), got {self.trim_fraction}"
            )

    def measure(self, machine: SimulatedMachine, plan: Plan) -> float:
        """Trimmed-mean wall time of ``plan`` on ``machine`` under the policy."""
        return float(
            machine.measure_wall_time(
                plan,
                repetitions=self.repetitions,
                trim_fraction=self.trim_fraction,
            )
        )


#: The default policy the registered ``wall_time`` metric acquires under.
DEFAULT_WALL_TIME_POLICY = WallTimePolicy()


def set_wall_time_policy(policy: WallTimePolicy) -> MetricSpec:
    """Re-register the ``wall_time`` metric under a different policy.

    Engines pick the new policy up on their next wall-channel acquisition
    (already-cached values in an engine's memory are kept for its lifetime;
    wall time is never persisted, so no stale policy can leak from a store).
    """
    if not isinstance(policy, WallTimePolicy):
        raise TypeError(f"expected a WallTimePolicy, got {policy!r}")
    return register_metric(_wall_time_spec(policy), replace=True)


def _wall_time_spec(policy: WallTimePolicy) -> MetricSpec:
    return MetricSpec(
        name="wall_time",
        kind="hardware",
        channel=WALL_CHANNEL,
        description=(
            f"Trimmed-mean wall-clock seconds of executing the plan "
            f"({policy.repetitions} repetitions, {policy.trim_fraction:.0%} "
            f"trimmed from each end)"
        ),
        measure=policy.measure,
        deterministic=False,
        policy=policy,
    )


register_metric(_wall_time_spec(DEFAULT_WALL_TIME_POLICY))


# -- built-in model metrics ------------------------------------------------------


def _batchable(plans: Sequence[Plan]) -> bool:
    return all(plan.n <= MAX_ENCODABLE_EXPONENT for plan in plans)


def _instruction_scorer(config: MachineConfig) -> BatchScorer:
    model = InstructionCountModel(config.instruction_model)

    def score(plans: "Sequence[Plan] | EncodedPlans") -> "np.ndarray | list[float]":
        if isinstance(plans, EncodedPlans):
            return model.count_batch(plans).astype(float)
        if not _batchable(plans):
            return [float(model.count(plan)) for plan in plans]
        return model.count_batch(plans).astype(float)

    return score


def _miss_scorer(config: MachineConfig) -> BatchScorer:
    model = CacheMissModel.from_machine_config(config, level="l1")

    def score(plans: "Sequence[Plan] | EncodedPlans") -> "np.ndarray | list[float]":
        if isinstance(plans, EncodedPlans):
            return model.misses_batch(plans).astype(float)
        if not _batchable(plans):
            return [float(model.misses(plan)) for plan in plans]
        return model.misses_batch(plans).astype(float)

    return score


def _combined_scorer(config: MachineConfig) -> BatchScorer:
    instruction_model = InstructionCountModel(config.instruction_model)
    miss_model = CacheMissModel.from_machine_config(config, level="l1")
    combined = CombinedModel()

    def score(plans: "Sequence[Plan] | EncodedPlans") -> "np.ndarray | list[float]":
        if not isinstance(plans, EncodedPlans):
            if not _batchable(plans):
                return [
                    combined.value(
                        instruction_model.count(plan), miss_model.misses(plan)
                    )
                    for plan in plans
                ]
            plans = encode_plans(plans)
        return combined.values(
            instruction_model.count_batch(plans).astype(float),
            miss_model.misses_batch(plans).astype(float),
        )

    return score


register_metric(
    MetricSpec(
        name="model_instructions",
        kind="model",
        channel=MODEL_CHANNEL,
        description="Analytic instruction-count model (machine's weights)",
        scorer_factory=_instruction_scorer,
    )
)
register_metric(
    MetricSpec(
        name="model_l1_misses",
        kind="model",
        channel=MODEL_CHANNEL,
        description="Analytic L1 cache-miss model (machine's L1 geometry)",
        scorer_factory=_miss_scorer,
    )
)
register_metric(
    MetricSpec(
        name="model_combined",
        kind="model",
        channel=MODEL_CHANNEL,
        description="The paper's default combined model 1.00*I + 0.05*M (analytic)",
        scorer_factory=_combined_scorer,
    )
)
