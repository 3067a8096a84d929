"""The session façade: one object owning machine, scale, backend and store.

``repro.session(...)`` is the package's single entry point for running the
paper's evaluation: it resolves machine/scale/backend/store presets, and the
returned :class:`Session` runs campaigns, searches and every figure of the
paper through the configured runtime::

    import repro

    sess = repro.session(machine="default", scale="default", backend="multiprocess")
    table = sess.large_table()          # campaign via the backend + store
    results = sess.run_all()            # all eleven figures end-to-end
    best = sess.search(10)              # DP-best plan on this machine

Campaign results flow through the session's :class:`~repro.runtime.store.CampaignStore`,
so a session configured with ``store="./campaigns"`` persists its tables to
disk and a later process (or CI job) completes the same campaigns via cache
hits without re-measuring anything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.config import ExperimentScale, ci_scale, default_scale, paper_scale
from repro.machine.configs import MACHINE_PRESETS
from repro.machine.machine import MachineConfig, PreparedPlanCache, SimulatedMachine
from repro.runtime.backends import (
    BatchedBackend,
    ExecutionBackend,
    SerialBackend,
    resolve_backend,
)
from repro.runtime.campaigns import measure_plan_list, run_campaign
from repro.runtime.cost_engine import CostEngine
from repro.runtime.objectives import Objective
from repro.runtime.store import CampaignStore, resolve_store
from repro.runtime.table import MeasurementTable
from repro.search import ExhaustiveSearch, RandomSearch, SearchResult, dp_best_plan
from repro.util.rng import derive_seed
from repro.wht.plan import MAX_UNROLLED, Plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.fleet import FleetClient
    from repro.runtime.service import CampaignService, ServiceClient
    from repro.suite.context import SuiteContext

__all__ = ["Session", "session", "SCALE_PRESETS"]

#: Mapping of scale names accepted by :func:`session` to factories.
SCALE_PRESETS = {
    "default": default_scale,
    "paper": paper_scale,
    "ci": ci_scale,
}


def _resolve_machine(spec: "str | MachineConfig | SimulatedMachine") -> SimulatedMachine:
    if isinstance(spec, SimulatedMachine):
        return spec
    if isinstance(spec, MachineConfig):
        return SimulatedMachine(spec)
    if isinstance(spec, str):
        try:
            factory = MACHINE_PRESETS[spec]
        except KeyError:
            raise ValueError(
                f"unknown machine preset {spec!r}; available: {sorted(MACHINE_PRESETS)}"
            ) from None
        return SimulatedMachine(factory())
    raise TypeError(f"cannot interpret {spec!r} as a machine")


def _resolve_scale(spec: "str | ExperimentScale") -> ExperimentScale:
    if isinstance(spec, ExperimentScale):
        return spec
    if isinstance(spec, str):
        try:
            return SCALE_PRESETS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown scale preset {spec!r}; available: {sorted(SCALE_PRESETS)}"
            ) from None
    raise TypeError(f"cannot interpret {spec!r} as an experiment scale")


class Session:
    """One machine + one scale + one backend + one store, fluent on top.

    Campaign tables are memoised per session *object* (so repeated figure
    methods share them by identity) and cached in the session's store (so
    other sessions — including ones in other processes, for a disk store —
    reuse the completed measurement work).

    Unless the machine already has one, the session attaches a
    :class:`~repro.machine.machine.PreparedPlanCache` sized for two RSU
    campaign populations (``2 * scale.sample_count``) on top of
    :attr:`~repro.machine.machine.PreparedPlanCache.DEFAULT_CAPACITY`, so
    everything measured on the session's machine — both campaigns, the
    canonical sweep, the DP searches and an objective sweep re-drawing the
    campaign populations — prepares each distinct plan once.  Results are
    unchanged: every noise draw comes from the unit's or the plan's seed.
    """

    def __init__(
        self,
        machine: SimulatedMachine,
        scale: ExperimentScale,
        backend: ExecutionBackend,
        store: CampaignStore,
        dp_max_children: int | None = 2,
        service: "CampaignService | None" = None,
        service_fallback: bool = False,
        remote_url: "str | Sequence[str] | None" = None,
        remote_options: "dict | None" = None,
    ):
        if machine.prepared_cache is None:
            machine.prepared_cache = PreparedPlanCache(
                2 * scale.sample_count + PreparedPlanCache.DEFAULT_CAPACITY
            )
        self.machine = machine
        self.scale = scale
        self.service = service
        #: Connected sessions only: arm the client's graceful degradation
        #: (evaluate through a private engine when the service can't answer).
        self.service_fallback = bool(service_fallback)
        #: Remote sessions only: the ``tcp://`` / ``unix://`` server URL —
        #: or list of member URLs — the session's
        #: :class:`~repro.runtime.fleet.FleetClient` dials, plus keyword
        #: options for its transports.
        self.remote_url = remote_url
        self.remote_options = dict(remote_options or {})
        if service is not None:
            # A tenant session: campaign batches measure on the service's
            # machine and campaign tables live in the service's store, which
            # is every tenant's — never clear it.  The session's cost engine
            # is a ServiceClient, which never appends, so the service stays
            # the store's single record writer.
            # Explicit backend/store arguments are ignored in favour of the
            # service's; use a plain session to opt out.
            from repro.runtime.service import ServiceBackend

            backend = ServiceBackend(service)
            store = service.store
        self.backend = backend
        self.store = store
        self.dp_max_children = dp_max_children
        self._tables: dict[tuple[int, int, int, int | None], MeasurementTable] = {}
        self._suite: "SuiteContext | None" = None
        self._cost_engine: "CostEngine | ServiceClient | FleetClient | None" = None

    @classmethod
    def connect(
        cls,
        service: "CampaignService | str | Sequence[str]",
        machine: "str | MachineConfig | SimulatedMachine" = "default",
        scale: "str | ExperimentScale" = "default",
        *,
        dp_max_children: int | None = 2,
        fallback: bool = False,
        **transport_options: Any,
    ) -> "Session":
        """A session whose measurement work all flows through ``service``.

        Any number of connected sessions — across threads, with a shared
        disk-backed service even across processes — share the service's job
        queue, in-flight dedup and record shards, so overlapping search work
        is measured exactly once fleet-wide.  Their campaign batches run on
        the service's machine, whose prepared-plan cache simulates each
        distinct plan once (see
        :meth:`~repro.runtime.service.CampaignService.measure_units`).  Their
        campaign tables live in the service's store, and ``session.store`` *is*
        that store, shared by every tenant: do not ``clear()`` it::

            service = repro.serve(store="./campaigns", workers=4)
            a = repro.Session.connect(service)
            b = repro.Session.connect(service)   # b reuses a's measurements

        ``service`` may also be a **URL** — ``"tcp://host:port"`` or
        ``"unix://path"`` naming a :func:`repro.serve_tcp` /
        :func:`repro.serve_unix` server — or a **list** of member URLs,
        and the session becomes a remote tenant::

            sess = repro.Session.connect(["tcp://a:9001", "tcp://b:9001"])

        Its cost engine is a :class:`~repro.runtime.fleet.FleetClient`
        (a single URL is a one-member fleet) speaking the frame protocol
        with supervised reconnect, heartbeats and idempotent
        resubmission.  It stripes every batch across the members by
        ``(machine_hash, plan_key)`` over a rendezvous ring, and the
        search survives any single member dying or draining mid-flight
        (keys rehash to the survivors; the shared record space keeps
        measurements unique).  ``dp_search`` stays bit-identical to a
        local run.  Extra keyword arguments (``timeout``,
        ``max_attempts``, ``backoff_base``, ``fault_plan``, ...)
        configure the client.  Campaign tables still measure locally in a
        remote session — only the cost engine crosses the wire.

        ``fallback=True`` arms graceful degradation on the session's
        client: batches the service cannot answer (quarantined work, a
        closed or draining service, a dead wire past the reconnect
        budget) are evaluated through a private engine, bit-identical to
        the service path — the session's searches then survive an
        unhealthy service instead of raising.
        """
        resolved = _resolve_machine(machine)
        if isinstance(service, (list, tuple)):
            if not service or not all(isinstance(url, str) for url in service):
                raise TypeError(
                    "a fleet connect list must be a non-empty list of URL strings"
                )
            service = tuple(service)
        if isinstance(service, (str, tuple)):
            from repro.runtime.store import MemoryStore

            return cls(
                machine=resolved,
                scale=_resolve_scale(scale),
                backend=BatchedBackend(),
                store=MemoryStore(),
                dp_max_children=dp_max_children,
                service_fallback=fallback,
                remote_url=service,
                remote_options=transport_options,
            )
        if transport_options:
            unexpected = ", ".join(sorted(transport_options))
            raise TypeError(
                f"transport options ({unexpected}) only apply when connecting "
                "to a tcp:// or unix:// URL"
            )
        return cls(
            machine=resolved,
            scale=_resolve_scale(scale),
            backend=service.backend,  # replaced by __init__; kept for clarity
            store=service.store,
            dp_max_children=dp_max_children,
            service=service,
            service_fallback=fallback,
        )

    # -- campaigns ---------------------------------------------------------------

    def campaign(
        self,
        n: int,
        count: int | None = None,
        *,
        max_leaf: int = MAX_UNROLLED,
        max_children: int | None = None,
    ) -> MeasurementTable:
        """Measure ``count`` RSU samples of size ``2^n`` via backend + store.

        ``count`` defaults to the scale's sample count; ``max_leaf`` and
        ``max_children`` constrain the RSU sampler.
        """
        effective = count if count is not None else self.scale.sample_count
        memo_key = (n, effective, max_leaf, max_children)
        table = self._tables.get(memo_key)
        if table is None:
            table = run_campaign(
                self.machine,
                n,
                effective,
                seed=self.scale.seed,
                max_leaf=max_leaf,
                max_children=max_children,
                backend=self.backend,
                store=self.store,
            )
            self._tables[memo_key] = table
        return table

    def small_table(self) -> MeasurementTable:
        """The in-cache random-sample campaign (paper size 2^9)."""
        return self.campaign(self.scale.small_size)

    def large_table(self) -> MeasurementTable:
        """The out-of-cache random-sample campaign (paper size 2^18)."""
        return self.campaign(self.scale.large_size)

    def measure_plans(
        self, plans: Iterable[Plan], tag: str = "explicit", cache: bool = True
    ) -> MeasurementTable:
        """Measure an explicit list of plans (all of one size).

        With ``cache=True`` (the default) the table is store-native: it is
        keyed by a digest of the plan list (plus ``tag`` and the scale seed)
        in the session's store, so a later session over the same store serves
        the same list without re-measuring.  Noise seeds are derived per
        ``(seed, tag, n, index)``, so the cached table is bit-identical to a
        fresh measurement; ``cache=False`` restores the uncached behaviour.
        """
        return measure_plan_list(
            self.machine,
            plans,
            seed=self.scale.seed,
            tag=tag,
            backend=self.backend,
            store=self.store if cache else None,
        )

    # -- searches ----------------------------------------------------------------

    def cost_engine(self) -> "CostEngine | ServiceClient | FleetClient":
        """The session's batched multi-metric cost engine (memoised).

        The engine evaluates candidate batches through the session's backend
        and persists every acquired metric value in the session's store as
        append-log records keyed by ``(machine content hash, plan key)``, so
        a later session over the same store resumes a search with zero
        re-measurement — for *any* objective over already-known metrics.
        The engine seeds measurement noise per plan, so a plan's cost does
        not depend on evaluation order.

        A session on the plain serial backend hands the engine the fused
        :class:`~repro.runtime.backends.BatchedBackend` instead (bit-identical
        results, one cross-plan prepared workload per candidate round);
        multiprocess and custom backends pass through unchanged.

        A *connected* session (:meth:`connect`) returns a
        :class:`~repro.runtime.service.ServiceClient` instead — the same
        engine surface (:class:`~repro.runtime.cost_engine.EngineSurface`),
        but every acquisition routes through the shared
        :class:`~repro.runtime.service.CampaignService`, deduped against
        every other tenant.  The noise-seed derivation is identical, so a
        connected search is bit-identical to a private engine's.  A
        *remote* session (:meth:`connect` with a URL or a list of them)
        returns a :class:`~repro.runtime.fleet.FleetClient` — the same
        surface again, over supervised sockets.
        """
        if self._cost_engine is None:
            seed = derive_seed(self.scale.seed, "cost-engine")
            if self.remote_url is not None:
                from repro.runtime.fleet import FleetClient

                self._cost_engine = FleetClient(
                    self.remote_url,
                    self.machine.config,
                    seed=seed,
                    fallback=self.service_fallback,
                    **self.remote_options,
                )
            elif self.service is not None:
                self._cost_engine = self.service.client(
                    self.machine.config, seed=seed, fallback=self.service_fallback
                )
            else:
                backend = self.backend
                if type(backend) is SerialBackend:
                    # Exact-type check: a SerialBackend *subclass* is a custom
                    # backend and passes through unchanged.
                    backend = BatchedBackend()
                self._cost_engine = CostEngine(
                    self.machine,
                    backend=backend,
                    store=self.store,
                    seed=seed,
                )
        return self._cost_engine

    def search(
        self,
        n: int,
        strategy: str = "dp",
        objective: "str | Objective" = "cycles",
        **kwargs: Any,
    ) -> SearchResult:
        """Search the algorithm space of exponent ``n`` on this machine.

        ``strategy`` selects the search family: ``"dp"`` (the WHT package's
        dynamic programming, the default), ``"random"`` (RSU sampling) or
        ``"exhaustive"``; extra keyword arguments go to the strategy.

        ``objective`` selects *what* the search optimises: a metric name
        (``"cycles"``, ``"l1_misses"``, ``"model_instructions"``, ...) or an
        :class:`~repro.runtime.objectives.Objective` such as the paper's
        composite ``WeightedObjective.combined(alpha, beta)``.  Every strategy
        evaluates ``cost_engine().cost(objective)`` — batched through the
        session's backend, with the persistent per-plan record cache and
        per-(plan, seed) noise — so a search repeats bit for bit, and
        switching objectives re-measures nothing already known.
        """
        cost = self.cost_engine().cost(objective)
        if strategy == "dp":
            kwargs.setdefault("max_children", self.dp_max_children)
            return dp_best_plan(cost, n, **kwargs)
        if strategy == "random":
            rng = kwargs.pop("rng", derive_seed(self.scale.seed, "search", n))
            return RandomSearch(cost=cost, **kwargs).search(n, rng=rng)
        if strategy == "exhaustive":
            return ExhaustiveSearch(cost=cost, **kwargs).search(n)
        raise ValueError(
            f"unknown search strategy {strategy!r}; available: dp, random, exhaustive"
        )

    # -- figures -----------------------------------------------------------------

    def suite(self) -> "SuiteContext":
        """The figure-at-a-time view of this session (memoised).

        A :class:`~repro.suite.context.SuiteContext` over this session: its
        :meth:`~repro.suite.context.SuiteContext.figure` builds any
        experiment kind of the declarative suite through the same registry
        ``repro.suite(spec).run()`` uses, sharing this session's campaigns,
        canonical baseline and cost engine.
        """
        if self._suite is None:
            from repro.suite.context import SuiteContext

            self._suite = SuiteContext(self)
        return self._suite

    def run_all(self) -> dict[str, Any]:
        """Run all eleven paper figures plus the summary tables."""
        return self.suite().run_all()

    def render_report(self) -> str:
        """Human-readable report covering every figure."""
        from repro.experiments.report import render_report

        return render_report(
            self.run_all(), self.machine.config.describe(), self.scale.describe()
        )

    def write_experiments_report(self, path: str) -> str:
        """Write the full report to ``path`` and return the text."""
        text = self.render_report()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return text

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release resources held by the session (idempotent).

        A :class:`~repro.runtime.backends.MultiprocessBackend` keeps its
        worker pool alive across measurement batches; closing the session
        shuts the pool down.  A connected session's
        :class:`~repro.runtime.service.ServiceClient` may hold a
        lazily-built fallback engine, and a remote session's
        :class:`~repro.runtime.fleet.FleetClient` holds a socket and a
        heartbeat thread per member as well — closing the session closes
        the client and forgets it (the shared service itself is not the
        session's to stop).  The session remains usable afterwards — the
        next batch starts a fresh pool, the next engine use redials.  A
        plain :class:`~repro.runtime.cost_engine.CostEngine` stays
        memoised, keeping its record cache.
        """
        engine = self._cost_engine
        if engine is not None and not isinstance(engine, CostEngine):
            self._cost_engine = None
            engine.close()
        close = getattr(self.backend, "close", None)
        if callable(close):
            close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------

    def describe(self) -> str:
        """One-line summary of the session's configuration."""
        return (
            f"Session(machine={self.machine.config.name!r}, "
            f"scale=[{self.scale.describe()}], "
            f"backend={getattr(self.backend, 'name', type(self.backend).__name__)}, "
            f"store={self.store!r})"
        )

    def __repr__(self) -> str:
        return self.describe()


def session(
    machine: "str | MachineConfig | SimulatedMachine" = "default",
    scale: "str | ExperimentScale" = "default",
    backend: "str | ExecutionBackend" = "serial",
    store: "str | CampaignStore | None" = "memory",
    *,
    dp_max_children: int | None = 2,
    service: "CampaignService | None" = None,
    service_fallback: bool = False,
) -> Session:
    """Create a :class:`Session` from presets or concrete objects.

    Parameters
    ----------
    machine:
        Preset name (``"default"``, ``"opteron"``, ``"tiny"``, ...), a
        :class:`MachineConfig`, or a ready :class:`SimulatedMachine`.
    scale:
        ``"default"``, ``"paper"``, ``"ci"``, or an :class:`ExperimentScale`.
    backend:
        ``"serial"``, ``"multiprocess"``, ``"batched"``, or an
        :class:`ExecutionBackend` instance.
    store:
        ``"memory"`` (shared in-process store), ``"none"``/``None`` (no
        caching), a directory path for a persistent
        :class:`~repro.runtime.store.DiskStore`, or a store instance.
    service:
        A :class:`~repro.runtime.service.CampaignService` to connect to.
        When given, the service's backend and store replace the ``backend``
        and ``store`` arguments (see :meth:`Session.connect`).
    service_fallback:
        Connected sessions only: arm the client's graceful degradation
        (see :meth:`Session.connect`'s ``fallback``).
    """
    return Session(
        machine=_resolve_machine(machine),
        scale=_resolve_scale(scale),
        backend=resolve_backend(backend),
        store=resolve_store(store),
        dp_max_children=dp_max_children,
        service=service,
        service_fallback=service_fallback,
    )
