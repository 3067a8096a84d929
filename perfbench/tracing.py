"""Outside-in per-layer tracing for the benchmark.

Nothing inside ``src/`` is instrumented.  :class:`Tracer` instead wraps the
public functions of each layer of ``repro`` from the outside — class
methods are replaced on their class, module-level functions on every module
that imported them by name — and records, per span name, the *self* time
of every call: its duration minus the part covered by the spans it caused.
Counters are recorded at the same boundaries.  :meth:`Tracer.uninstall`
restores every original.

Spans nest per thread.  A span that opens in a worker thread with no span
of its own (the fleet client's per-member submit threads) is adopted by
the span currently open on the main thread, so a fleet round's self time
excludes the member calls it waited for.  A call into a layer that is
already the innermost open span (a sharded store delegating to its shard
store, a counting backend wrapping a batched one) is not split further.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

__all__ = ["LAYER_METRICS", "Tracer"]

#: Every per-layer metric the traced run reports: name -> (unit, better).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "search.rounds": ("count", "lower"),
    "search.candidates": ("count", "lower"),
    "search.self_s": ("s", "lower"),
    "cost_engine.calls": ("count", "lower"),
    "cost_engine.requested": ("count", "lower"),
    "cost_engine.measured": ("count", "lower"),
    "cost_engine.hit_ratio": ("ratio", "higher"),
    "cost_engine.self_s": ("s", "lower"),
    "backends.units": ("count", "lower"),
    "backends.self_s": ("s", "lower"),
    "machine.prepare_s": ("s", "lower"),
    "machine.plans_streamed": ("count", "lower"),
    "machine.plans_analytic": ("count", "higher"),
    "machine.trace_s": ("s", "lower"),
    "machine.trace_lines": ("count", "lower"),
    "machine.l1.simulate_s": ("s", "lower"),
    "machine.l1.lines": ("count", "lower"),
    "machine.l1.misses": ("count", "lower"),
    "machine.l2.simulate_s": ("s", "lower"),
    "machine.l2.lines": ("count", "lower"),
    "machine.l2.misses": ("count", "lower"),
    "machine.hierarchy.self_s": ("s", "lower"),
    "machine.assemble_s": ("s", "lower"),
    "models.batch_s": ("s", "lower"),
    "models.plans_scored": ("count", "lower"),
    "models.theory_s": ("s", "lower"),
    "wht.sample_s": ("s", "lower"),
    "wht.samples": ("count", "lower"),
    "wht.encode_s": ("s", "lower"),
    "store.appends": ("count", "lower"),
    "store.records_written": ("count", "lower"),
    "store.append_s": ("s", "lower"),
    "store.reads": ("count", "lower"),
    "store.read_s": ("s", "lower"),
    "service.jobs": ("count", "lower"),
    "service.submit_s": ("s", "lower"),
    "service.wait_s": ("s", "lower"),
    "service.retries": ("count", "lower"),
    "service.quarantined": ("count", "lower"),
    "transport.frames": ("count", "lower"),
    "transport.bytes": ("B", "lower"),
    "transport.encode_s": ("s", "lower"),
    "transport.call_s": ("s", "lower"),
    "fleet.member_calls": ("count", "lower"),
    "fleet.self_s": ("s", "lower"),
    "fleet.redirects": ("count", "lower"),
    "fleet.failovers": ("count", "lower"),
    "suite.units": ("count", "higher"),
    "suite.self_s": ("s", "lower"),
    "suite.sink_s": ("s", "lower"),
    "suite.manifest_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


class _Span:
    __slots__ = ("name", "parent", "start", "children")

    def __init__(self, name: str, parent: "_Span | None"):
        self.name = name
        self.parent = parent
        self.children: list[tuple[float, float]] = []
        self.start = time.perf_counter()


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Tracer:
    """Span self times and counters for the layers of ``repro``."""

    def __init__(self) -> None:
        #: Span name -> summed self time in seconds.
        self.self_s: "defaultdict[str, float]" = defaultdict(float)
        #: Counter name -> summed value.
        self.counts: "defaultdict[str, float]" = defaultdict(float)
        self._local = threading.local()
        self._main_stack: list[_Span] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> "_Span | None":
        """Open a span, or return ``None`` when ``name`` is already innermost."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
            if parent.name == name:
                return None
        else:
            parent = None
            if stack is not self._main_stack:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    pass
        span = _Span(name, parent)
        stack.append(span)
        return span

    def close(self, span: "_Span | None") -> None:
        if span is None:
            return
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            children = list(span.children)
            self.self_s[span.name] += end - span.start - _covered(span.start, end, children)
            if span.parent is not None:
                span.parent.children.append((span.start, end))

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` encloses the current call."""
        try:
            span = (self._stack() or self._main_stack)[-1]
        except IndexError:
            return False
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def timed(self, name: str, fn, pre=None, post=None):
        """``fn`` wrapped in a span; ``pre``/``post`` record counters.

        ``pre(args, kwargs)`` returns a state handed to
        ``post(state, args, kwargs, result)`` after a successful call.  A
        call nested in a span of the same name is neither split out nor
        counted again.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if post is not None and span is not None:
                post(state, args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, post):
        """``fn`` with ``post(args, result)`` run after each call; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            post(args, result)
            return result

        return wrapper

    def timed_iter(self, name: str, iterator, post=None):
        """A generator timing each ``next`` of ``iterator`` as a ``name`` span."""
        iterator = iter(iterator)
        while True:
            span = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(span)
            if post is not None:
                post(item)
            yield item

    # -- patching ------------------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str, pre=None, post=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self._set(cls, attr, staticmethod(self.timed(name, raw.__func__, pre, post)))
        else:
            self._set(cls, attr, self.timed(name, raw, pre, post))

    def replace_function(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` in every loaded ``repro`` module."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def wrap_function(self, original, name: str, pre=None, post=None) -> None:
        self.replace_function(original, self.timed(name, original, pre, post))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- the layers of repro -------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every layer boundary of ``repro`` (see :data:`LAYER_METRICS`)."""
        modules = {
            name: importlib.import_module(f"repro.{name}")
            for name in (
                "experiments.theory_table",  # binds the theory optimiser by name
                "machine.hierarchy",
                "machine.machine",
                "machine.trace",
                "models.cache_misses",
                "models.instruction_count",
                "models.theory",
                "runtime.backends",
                "runtime.cost_engine",
                "runtime.fleet",
                "runtime.service",
                "runtime.sharded_store",
                "runtime.store",
                "runtime.transport",
                "search.pruned",
                "search.random_search",
                "suite.manifest",
                "suite.runner",
                "suite.sinks",
                "util.batching",
                "wht.dp_search",
                "wht.encoding",
                "wht.random_plans",
            )
        }
        hierarchy, machine = modules["machine.hierarchy"], modules["machine.machine"]
        trace, theory = modules["machine.trace"], modules["models.theory"]
        backends, cost_engine = modules["runtime.backends"], modules["runtime.cost_engine"]
        fleet, service = modules["runtime.fleet"], modules["runtime.service"]
        sharded_store, store = modules["runtime.sharded_store"], modules["runtime.store"]
        transport, batching = modules["runtime.transport"], modules["util.batching"]
        pruned, random_search = modules["search.pruned"], modules["search.random_search"]
        manifest, sinks = modules["suite.manifest"], modules["suite.sinks"]
        suite_runner, dp_search = modules["suite.runner"], modules["wht.dp_search"]
        encoding, random_plans = modules["wht.encoding"], modules["wht.random_plans"]
        instruction_count = modules["models.instruction_count"]
        cache_misses = modules["models.cache_misses"]

        count = self.count

        # search: rounds and candidates at the round boundary, self time
        # around every public search entry point.
        def round_post(args, _result):
            count("search.rounds")
            count("search.candidates", len(args[1]))

        evaluate = batching.evaluate_cost_batch
        self.replace_function(evaluate, self.counted(evaluate, round_post))
        for cls, attr in (
            (dp_search.DPSearch, "search"),
            (dp_search.DPSearch, "extend"),
            (pruned.ModelPrunedSearch, "search"),
            (random_search.RandomSearch, "search"),
        ):
            self.wrap_method(cls, attr, "search")

        # runtime.cost_engine
        def engine_pre(args, _kwargs):
            return args[0].measured

        def engine_post(before, args, _kwargs, _result):
            count("cost_engine.calls")
            count("cost_engine.requested", len(args[1]))
            count("cost_engine.measured", args[0].measured - before)

        self.wrap_method(
            cost_engine.CostEngine, "records", "cost_engine", engine_pre, engine_post
        )

        # runtime.backends
        def units_post(_state, args, _kwargs, _result):
            count("backends.units", len(args[2]))

        for cls in (backends.BatchedBackend, backends.SerialBackend):
            self.wrap_method(cls, "measure_units", "backends", post=units_post)

        # machine: prepare, trace streaming, hierarchy, per-level caches, cpu
        for attr in ("prepare", "prepare_batch"):
            self.wrap_method(machine.SimulatedMachine, attr, "machine.prepare")
        self.wrap_method(machine.SimulatedMachine, "measure_prepared", "machine.assemble")

        def streamed_post(_state, args, _kwargs, _result):
            count("machine.plans_streamed", args[2])

        self.wrap_method(
            hierarchy.MemoryHierarchy,
            "process_line_chunks_batch",
            "machine.hierarchy",
            post=streamed_post,
        )
        self.wrap_method(
            hierarchy.MemoryHierarchy,
            "analytic_coverage_stats",
            "machine.hierarchy",
            post=lambda *_: count("machine.plans_analytic"),
        )

        def trace_lines(chunk) -> None:
            count("machine.trace_lines", chunk.lines.shape[0])

        splice = trace.splice_line_chunks

        @functools.wraps(splice)
        def timed_splice(*args, **kwargs):
            return self.timed_iter("machine.trace", splice(*args, **kwargs), trace_lines)

        self.replace_function(splice, timed_splice)

        def level_post(level: str):
            def post(_state, args, _kwargs, mask):
                count(f"machine.{level}.lines", args[0].shape[0])
                count(f"machine.{level}.misses", int(mask.sum()))

            return post

        def instrument(level: str, build):
            def built(*args, **kwargs):
                simulator = build(*args, **kwargs)
                if simulator is not None:
                    simulator.simulate = self.timed(
                        f"machine.{level}", simulator.simulate, post=level_post(level)
                    )
                return simulator

            return functools.wraps(build)(built)

        self._set(
            hierarchy.MemoryHierarchy,
            "build_l1",
            instrument("l1", hierarchy.MemoryHierarchy.build_l1),
        )
        self._set(
            hierarchy.MemoryHierarchy,
            "build_l2",
            instrument("l2", hierarchy.MemoryHierarchy.build_l2),
        )

        # models
        def scored_post(_state, args, _kwargs, result):
            count("models.plans_scored", len(result))

        self.wrap_method(
            instruction_count.InstructionCountModel, "count_batch", "models.batch", post=scored_post
        )
        self.wrap_method(
            cache_misses.CacheMissModel, "misses_batch", "models.batch", post=scored_post
        )
        self.wrap_function(theory.extreme_instruction_counts, "models.theory")

        # wht
        self.wrap_method(
            random_plans.RSUSampler,
            "sample_many",
            "wht.sample",
            post=lambda _s, _a, _k, result: count("wht.samples", len(result)),
        )

        self.wrap_method(
            random_plans.RSUSampler, "sample", "wht.sample", post=lambda *_: count("wht.samples")
        )
        self.wrap_function(encoding.encode_plans, "wht.encode")

        # runtime.store / runtime.sharded_store
        def written_post(_state, args, _kwargs, _result):
            count("store.appends")
            count("store.records_written", len(args[2]))

        for cls in (store.DiskStore, store.MemoryStore, sharded_store.ShardedRecordStore):
            self.wrap_method(cls, "append_cost_records", "store.append", post=written_post)
            self.wrap_method(
                cls, "put", "store.append", post=lambda *_: count("store.appends")
            )
            for attr in ("get", "get_cost_records"):
                self.wrap_method(
                    cls, attr, "store.read", post=lambda *_: count("store.reads")
                )

        # runtime.service
        self.wrap_method(
            service.CampaignService,
            "submit",
            "service.submit",
            post=lambda *_: count("service.jobs"),
        )
        self.wrap_method(service.JobTicket, "result", "service.wait")

        # runtime.transport
        def frame_post(_state, _args, _kwargs, data):
            count("transport.frames")
            count("transport.bytes", len(data))

        self.wrap_method(transport.FrameTransport, "encode", "transport.encode", post=frame_post)

        def call_pre(_args, _kwargs):
            if self.inside("fleet"):
                count("fleet.member_calls")

        self.wrap_method(transport.RemoteTransport, "call", "transport.call", pre=call_pre)

        # runtime.fleet
        def fleet_pre(args, _kwargs):
            client = args[0]
            return client.redirects, client.failovers

        def fleet_post(before, args, _kwargs, _result):
            client = args[0]
            count("fleet.redirects", client.redirects - before[0])
            count("fleet.failovers", client.failovers - before[1])

        self.wrap_method(fleet.FleetClient, "records", "fleet", fleet_pre, fleet_post)

        # suite / experiments / analysis
        self.wrap_method(suite_runner.SuiteRun, "run", "suite")
        build = suite_runner.build_experiment
        self._set(
            suite_runner,
            "build_experiment",
            self.counted(build, lambda *_: count("suite.units")),
        )
        for cls in (sinks.CSVSink, sinks.JSONLSink, sinks.FigureArtifactSink):
            self.wrap_method(cls, "write", "suite.sink")
        for attr in ("begin", "flush", "record_baseline", "record_unit"):
            self.wrap_method(manifest.Manifest, attr, "suite.manifest")
        return self

    # -- report --------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The raw span self times and counters, as plain JSON data."""
        with self._lock:
            return {"self_s": dict(self.self_s), "counts": dict(self.counts)}

    def metrics(self, wall_s: float, remote: "dict | None" = None) -> dict[str, float]:
        """Per-layer metrics of one traced timed phase of ``wall_s`` seconds.

        ``remote`` is the :meth:`snapshot` of a server process's tracer; its
        spans and counters add to this process's, but only local spans
        count against ``wall_s`` for ``trace.unattributed_s``.
        ``trace.overhead_frac`` needs an untraced run and is filled in by
        the caller.
        """
        unattributed = max(wall_s - sum(self.self_s.values()), 0.0)
        s, c = defaultdict(float, self.self_s), defaultdict(float, self.counts)
        for name, value in (remote or {}).get("self_s", {}).items():
            s[name] += value
        for name, value in (remote or {}).get("counts", {}).items():
            c[name] += value
        out = {}
        for name, (unit, _better) in LAYER_METRICS.items():
            if unit == "s":
                # ``<span>_s``, ``<span>.self_s`` and ``<span>.simulate_s``
                # are all the self time of span ``<span>``.
                span = name[: -len("_s")].removesuffix(".self").removesuffix(".simulate")
                out[name] = s.get(span, 0.0)
            else:
                out[name] = c.get(name, 0.0)
        requested = c.get("cost_engine.requested", 0.0)
        out["cost_engine.hit_ratio"] = (
            1.0 - c.get("cost_engine.measured", 0.0) / requested if requested else 0.0
        )
        out["trace.unattributed_s"] = unattributed
        out["trace.overhead_frac"] = 0.0
        return out
