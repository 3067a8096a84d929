"""The ``repro.suite(...)`` façade.

One call configures a whole paper reproduction::

    import repro

    run = repro.suite("benchmarks/suites/paper.json",
                      store="./campaigns", artifacts="./artifacts")
    result = run.run()
    print(result.describe())

``spec`` may be a path to a JSON spec file, a plain dict, or a ready
:class:`~repro.suite.spec.SuiteSpec`.  The returned
:class:`~repro.suite.runner.SuiteRun` is configured but not yet executed —
call :meth:`~repro.suite.runner.SuiteRun.run` (optionally narrowing by
experiment/machine/seed).

Because the import also installs the :mod:`repro.suite` subpackage, the
name ``repro.suite`` is *callable and a package at once*: ``repro.suite(...)``
runs this function, ``from repro.suite.spec import SuiteSpec`` still
imports normally, and ``python -m repro.suite`` reaches the CLI (runpy
resolves modules through importlib, not attribute lookup).  The one edge
case: ``import repro.suite as x`` binds this function, not the module —
use ``from repro import suite as suite_pkg`` style imports if you need the
module object itself.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.runtime.backends import ExecutionBackend
from repro.runtime.store import CampaignStore
from repro.suite.runner import SuiteRun
from repro.suite.spec import SuiteSpec, load_spec, spec_from_dict

__all__ = ["suite"]


def suite(
    spec: "SuiteSpec | Mapping[str, Any] | str",
    *,
    store: "str | CampaignStore | None" = "memory",
    backend: "str | ExecutionBackend | None" = None,
    sinks: "Sequence | None" = None,
    artifacts: str | None = None,
    manifest: str | None = None,
    service=None,
    connect: "str | Sequence[str] | None" = None,
    service_fallback: bool = False,
    dp_max_children: int | None = 2,
    **transport_options: Any,
) -> SuiteRun:
    """Configure a declarative experiment suite (validated, not yet run).

    Parameters
    ----------
    spec:
        A JSON spec file path, a plain dict, or a :class:`SuiteSpec`.
        Validation happens here, with path-prefixed actionable errors.
    store:
        Campaign/record store shared by every experiment: ``"memory"``
        (shared in-process), a directory path (persistent
        :class:`~repro.runtime.store.DiskStore` — the resume substrate),
        ``"none"``, or a store instance.
    backend:
        Execution backend preset or instance; defaults to the fused
        batched backend.  Ignored for connected (``service=``) sessions.
    sinks / artifacts:
        ``artifacts`` names the output directory; by default it receives
        CSV + JSONL tables and figure-artifact JSON, plus the run
        manifest.  ``sinks`` overrides the sink list (preset names or
        :class:`~repro.suite.sinks.ResultSink` objects); without either,
        results only live on the returned
        :class:`~repro.suite.results.SuiteResult`.
    manifest:
        Explicit manifest path (defaults to ``<artifacts>/manifest.json``;
        in-memory when there is no artifacts directory).
    service / connect:
        Run every experiment through a shared
        :class:`~repro.runtime.service.CampaignService` (``service=``) or
        through remote ``tcp://``/``unix://`` servers (``connect=``: one
        URL or a list of them, with ``**transport_options`` forwarded to
        the client).  Every context's cost engine is then a
        :class:`~repro.runtime.fleet.FleetClient` — a single URL is a
        one-member fleet — striping the search over the member ring and
        failing over when a member dies.  When the spec itself declares a
        top-level ``connect``, it is the default and an explicit
        ``connect=`` here overrides it.  Results are bit-identical to a
        plain private session either way.
    """
    if isinstance(spec, str):
        spec = load_spec(spec)
    else:
        spec = spec_from_dict(spec)
    if service is None and connect is None and spec.connect:
        connect = spec.connect
    if transport_options and connect is None:
        unexpected = ", ".join(sorted(transport_options))
        raise TypeError(
            f"transport options ({unexpected}) only apply with connect='tcp://...'"
        )
    return SuiteRun(
        spec,
        store=store,
        backend=backend,
        sinks=sinks,
        artifacts=artifacts,
        manifest=manifest,
        service=service,
        connect=connect,
        service_fallback=service_fallback,
        transport_options=transport_options,
        dp_max_children=dp_max_children,
    )
