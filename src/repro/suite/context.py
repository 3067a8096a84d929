"""Per-(machine, seed) execution context: the suite runner's and the figures'.

A :class:`SuiteContext` wraps one :class:`~repro.runtime.session.Session` and
owns the *baseline* data every dependent experiment shares:

* ``"small"`` — the in-cache RSU campaign table,
* ``"large"`` — the out-of-cache RSU campaign table,
* ``"canonical"`` — per-size canonical + DP-best measurement tables (the
  Figure 1–3 sweep and the scatter figures' reference points).

Baselines materialise **once** per context and are shared by every
experiment that declares them — the runner's baseline-first DAG.  All of
them are store-native: campaigns through
:func:`~repro.runtime.campaigns.run_campaign`, canonical tables through
:meth:`Session.measure_plans` (keyed by a digest of the plan list) and the
DP-best plans through the session's cost engine (append-log cost records).
Re-running against the same store therefore re-derives everything from
cached records with zero new measurements.

The canonical baseline derives every noise draw from ``(seed, tag, n,
index)`` and searches through the engine, so the results are identical
across backends, across a connected/remote service, and across cold/warm
store states.

The suite runner builds one context per ``machine x seed`` cell;
``Session.suite()`` wraps a session the caller already has, and
:meth:`SuiteContext.figure` then builds one figure at a time through the same
experiment registry the runner uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.runtime.backends import ExecutionBackend
from repro.runtime.session import Session
from repro.runtime.table import MeasurementTable
from repro.search.dp import dp_search
from repro.wht.canonical import canonical_plans
from repro.wht.plan import Plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.search.dp import DPSearchResult

__all__ = ["CountingBackend", "SuiteContext", "BASELINE_ORDER", "REFERENCE_NAMES"]

#: Materialisation order of the shared baselines (cheap campaigns first, the
#: DP-bearing canonical sweep last).
BASELINE_ORDER = ("small", "large", "canonical")

#: Reference algorithms measured per size, in the paper's legend order.
REFERENCE_NAMES = ("iterative", "left", "right", "best")


class CountingBackend:
    """A transparent backend wrapper counting the units it measures.

    The suite runner wraps the session backend with this to account for
    *every* measurement a unit causes — campaigns, canonical tables and
    (for plain sessions, whose cost engine evaluates through the session
    backend) engine acquisitions — which is what the manifest records and
    what the resume/perf gates assert to be zero on a warm store.
    """

    def __init__(self, inner: ExecutionBackend):
        self.inner = inner
        self.measured = 0

    @property
    def name(self) -> str:
        return f"counting({getattr(self.inner, 'name', type(self.inner).__name__)})"

    def measure_units(self, machine, units):
        units = list(units)
        self.measured += len(units)
        return self.inner.measure_units(machine, units)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if callable(close):
            close()

    def __repr__(self) -> str:
        return f"CountingBackend({self.inner!r}, measured={self.measured})"


class SuiteContext:
    """One machine + one seed + one session, plus the shared baselines.

    ``machine_id`` labels the context (the spec's machine id; the machine
    config's name by default).  Local measurements are accounted for when
    the session measures through a :class:`CountingBackend`.
    """

    def __init__(self, session: Session, machine_id: str | None = None):
        self.session = session
        self.machine = session.machine
        self.scale = session.scale
        self.machine_id = machine_id if machine_id is not None else self.machine.config.name
        backend = session.backend
        self._counting = backend if isinstance(backend, CountingBackend) else None
        if session.service is not None:
            self.mode = "service"
        elif session.remote_url is not None:
            self.mode = "remote"
        else:
            self.mode = "plain"
        self._canonical_tables: dict[int, MeasurementTable] = {}
        self._dp_result: "DPSearchResult | None" = None
        self._dp_max_n = 0
        self._model_tables: dict[str, MeasurementTable] = {}

    # -- measurement accounting --------------------------------------------------

    def measured_total(self) -> int:
        """Measurements this context has caused so far (all channels).

        Plain sessions: everything — campaigns, canonical tables and engine
        acquisitions — flows through the counted session backend.  Remote
        sessions add the remote client's own counter (engine acquisitions
        happen server-side); connected sessions only see the client counter
        (campaign batches measure on the shared service's machine).  Local
        measurements count only when the session's backend is a
        :class:`CountingBackend`.
        """
        total = self._counting.measured if self._counting is not None else 0
        if self.mode in ("service", "remote"):
            engine = self.session._cost_engine
            if engine is not None:
                total += int(getattr(engine, "measured", 0))
        return total

    # -- baselines ---------------------------------------------------------------

    def materialize(self, baseline: str) -> None:
        """Run one named baseline (idempotent; memoised by the session)."""
        if baseline == "small":
            self.session.small_table()
        elif baseline == "large":
            self.session.large_table()
        elif baseline == "canonical":
            self.sweep_sizes()
            for n in self.sweep_sizes():
                self.canonical_table(n)
        else:
            raise ValueError(f"unknown baseline {baseline!r}; known: {BASELINE_ORDER}")

    def small_table(self) -> MeasurementTable:
        return self.session.small_table()

    def large_table(self) -> MeasurementTable:
        return self.session.large_table()

    def campaign_table(self, which: str) -> MeasurementTable:
        if which not in ("small", "large"):
            raise ValueError(f"which must be 'small' or 'large', got {which!r}")
        return self.small_table() if which == "small" else self.large_table()

    def model_table(self, which: str) -> MeasurementTable:
        """A campaign table with the analytic model columns grafted on."""
        table = self._model_tables.get(which)
        if table is None:
            from repro.experiments.model_scores import with_model_columns
            from repro.models.combined import CombinedModel
            from repro.models.instruction_count import InstructionCountModel

            table = with_model_columns(
                self.campaign_table(which),
                instruction_model=InstructionCountModel(self.machine.config.instruction_model),
                miss_model=self.machine.config,
                combined=CombinedModel(),
            )
            self._model_tables[which] = table
        return table

    def figure_table(self, which: str, metrics: Sequence[str]) -> MeasurementTable:
        """The campaign table able to serve ``metrics`` (model-scored iff needed)."""
        if any(str(metric).startswith("model_") for metric in metrics):
            return self.model_table(which)
        return self.campaign_table(which)

    # -- canonical sweep ---------------------------------------------------------

    def sweep_sizes(self) -> tuple[int, ...]:
        """The Figure 1–3 sweep sizes (1 up to the scale's canonical max)."""
        return tuple(range(1, self.scale.canonical_max_size + 1))

    def dp_result(self, max_n: int) -> "DPSearchResult":
        """Engine-backed DP search up to ``max_n`` (grows monotonically).

        Evaluates measured cycles through :meth:`Session.cost_engine`, so
        every candidate's metrics land in the store's append-log record
        cache: a warm re-run (or any other objective over the same plans)
        replays the search without a single new measurement.
        """
        if self._dp_result is None or max_n > self._dp_max_n:
            engine = self.session.cost_engine()
            self._dp_result = dp_search(
                max_n,
                engine.cost("cycles"),
                max_children=self.session.dp_max_children,
                record_candidates=False,
            )
            self._dp_max_n = max_n
        return self._dp_result

    def best_plan(self, n: int) -> Plan:
        """The DP-best plan of size ``2^n`` under engine-measured cycles."""
        return self.dp_result(max(n, self.scale.canonical_max_size)).best(n)

    def canonical_table(self, n: int) -> MeasurementTable:
        """Iterative/left/right/DP-best measurements at one size (cached).

        Measured through :meth:`Session.measure_plans` with the fixed
        ``"suite-canonical"`` tag and :data:`REFERENCE_NAMES` order, so the
        table is store-native and bit-identical across backends and runs.
        """
        table = self._canonical_tables.get(n)
        if table is None:
            named = canonical_plans(n)
            plans = [named["iterative"], named["left"], named["right"], self.best_plan(n)]
            table = self.session.measure_plans(plans, tag="suite-canonical")
            self._canonical_tables[n] = table
        return table

    def reference_points(
        self, n: int, metrics: Sequence[str]
    ) -> dict[str, tuple[float, ...]]:
        """Per-reference-algorithm metric tuples at one size.

        Measured metrics come from :meth:`canonical_table`'s columns; model
        metrics are scored with the registry's scorers on the reference
        plans themselves (zero measurements), with the same scorers as
        :meth:`model_table`'s columns.
        """
        from repro.runtime.metrics import metric_spec

        table = self.canonical_table(n)
        points: dict[str, tuple[float, ...]] = {}
        for index, name in enumerate(REFERENCE_NAMES):
            values = []
            for metric in metrics:
                if str(metric).startswith("model_"):
                    scorer = metric_spec(metric).scorer_factory(self.machine.config)
                    values.append(float(scorer([table.plans[index]])[0]))
                else:
                    values.append(float(table.column(metric)[index]))
            points[name] = tuple(values)
        return points

    # -- figures, one at a time -------------------------------------------------

    def figure(self, kind: str, **options: Any) -> Any:
        """Build one registered experiment kind and return its figure object.

        ``kind`` is any :func:`~repro.suite.figures.experiment_kinds` name
        (``"figure1"`` … ``"figure11"``, ``"correlations"``, ``"theory"``,
        ``"search"``, ``"objective_sweep"``); ``options`` are validated
        exactly as a spec's experiment options are.  Baselines materialise
        on first use and are shared by every later figure of this context.
        """
        from repro.suite.figures import KIND_REGISTRY, build_experiment, validate_options
        from repro.suite.spec import ExperimentSpec, SpecError

        if kind not in KIND_REGISTRY:
            raise SpecError(f"unknown experiment kind {kind!r}; available: {sorted(KIND_REGISTRY)}")
        experiment = ExperimentSpec(id=kind, kind=kind, options=dict(options))
        validate_options(experiment, kind, self.scale)
        return build_experiment(self, experiment)[0]

    def run_all(self) -> dict[str, Any]:
        """Every figure and summary table of the paper, keyed by kind."""
        from repro.suite.figures import PAPER_EXPERIMENTS

        return {kind: self.figure(kind) for kind in PAPER_EXPERIMENTS}

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self.session.close()

    def describe(self) -> str:
        return (
            f"SuiteContext(machine={self.machine_id!r}, seed={self.scale.seed}, "
            f"mode={self.mode}, measured={self.measured_total()})"
        )

    def __repr__(self) -> str:
        return self.describe()
