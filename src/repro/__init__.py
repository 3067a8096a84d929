"""repro — reproduction of "Performance Analysis of a Family of WHT Algorithms".

The package reimplements, in Python, the full system behind Andrews & Johnson
(IPPS 2007): the WHT package's algorithm space (split-tree plans, unrolled
codelets, the triple-loop interpreter, canonical plans, RSU random sampling,
DP search), a simulated machine standing in for the paper's Opteron + PAPI
measurements, the analytic instruction-count and cache-miss models, the
combined ``alpha*I + beta*M`` model, and the statistical analysis (Pearson
correlation, IQR filtering, histograms, percentile pruning curves) used in the
paper's evaluation, together with an experiment harness that regenerates every
figure.

Quickstart
----------
The single entry point for running the paper's evaluation is
:func:`repro.session`, which bundles a machine, an experiment scale, an
execution backend and a campaign store:

>>> import repro
>>> sess = repro.session(machine="default", scale="default", backend="serial")
>>> table = sess.small_table()          # one measurement campaign
>>> results = sess.run_all()            # all eleven paper figures
>>> best = sess.search(10)              # DP-best plan on this machine

Campaigns fan out across worker processes with ``backend="multiprocess"``
(one persistent pool for the whole session) and deduplicate repeated plans
with ``backend="batched"`` — every backend produces bit-identical tables.
Passing ``store="./campaigns"`` persists completed campaigns as JSON — and
every per-plan cost record as an append-log — so later processes (figure
reruns, CI) complete the same campaigns via cache hits instead of
re-measuring.

Searches are parameterised by an *objective* over named cost metrics — the
paper's whole point is that different cost functions rank plans differently:

>>> sess.search(10, objective="cycles")                 # classic search
>>> sess.search(10, objective="l1_misses")              # optimise misses
>>> sess.search(10, objective=repro.WeightedObjective.combined(1.0, 0.05))
>>> sess.search(10, objective="model_instructions")     # analytic: no measuring

One simulated run populates every hardware counter metric at once
(``cycles``, ``instructions``, ``l1_misses``, ``l2_misses``,
``l1_accesses``), model metrics never touch the machine, and all records
share one persistent cache — switching objectives re-measures nothing.

Many sessions can share one measurement pipeline through the campaign
service — a job queue plus worker fleet that dedupes overlapping work
fleet-wide and persists records in one append log per machine and seed:

>>> service = repro.serve(store="./campaigns", workers=4)
>>> a = repro.Session.connect(service)
>>> b = repro.Session.connect(service)     # shares a's measurements
>>> best = a.search(14)                    # each plan measured once, total
>>> service.stats().dedup_savings          # duplicates that never ran

The same service serves tenants on *other hosts* over a supervised socket
transport — same bit-identical results, same exactly-once measurement,
now with reconnect, heartbeats and idempotent resubmission on the wire:

>>> server = repro.serve_tcp(service)      # tcp://127.0.0.1:<port>
>>> remote = repro.Session.connect(server.url, fallback=True)
>>> best = remote.search(14)               # bit-identical to the local search

A whole evaluation — figures, summary tables, objective sweeps — can be
declared as one JSON/dict spec and run as a suite, baseline-first, with
pluggable result sinks and store-native resume (re-running against the
same store performs zero new measurements):

>>> run = repro.suite("benchmarks/suites/paper.json",
...                   store="./campaigns", artifacts="./artifacts")
>>> result = run.run()              # figures 1-11 + tables + sweeps
>>> result.total_measured           # 0 on a warm store

(also: ``python -m repro.suite run spec.json``)

Lower-level objects remain available for direct use:

>>> from repro import wht, machine, models
>>> plan = wht.right_recursive_plan(10)
>>> mach = machine.default_machine()
>>> measurement = mach.measure(plan)
>>> models.instruction_count(plan)  # analytic, no execution needed
"""

from repro import analysis, config, experiments, machine, models, runtime, search, util, wht
from repro.config import ExperimentScale, ci_scale, default_scale, paper_scale
from repro.machine import Measurement, SimulatedMachine, default_machine
from repro.models import (
    CacheMissModel,
    CombinedModel,
    InstructionCountModel,
    instruction_count,
    optimize_combined_model,
)
from repro.runtime import (
    BatchedBackend,
    CampaignService,
    CampaignStore,
    CostEngine,
    CostRecord,
    CustomObjective,
    DiskStore,
    ExecutionBackend,
    FaultPlan,
    FaultSpec,
    FaultyBackend,
    FaultyStore,
    FleetClient,
    MeasurementTable,
    MemoryStore,
    MetricObjective,
    FaultyTransport,
    MultiprocessBackend,
    Objective,
    RemoteServiceClient,
    SerialBackend,
    ServiceClient,
    ServiceServer,
    Session,
    ShardedRecordStore,
    TransportError,
    WeightedObjective,
    serve,
    serve_tcp,
    serve_unix,
    session,
)
from repro.wht import (
    Plan,
    Small,
    Split,
    iterative_plan,
    left_recursive_plan,
    parse_plan,
    random_plans,
    right_recursive_plan,
)
from repro.suite import (
    ExperimentResult,
    MemorySink,
    SpecError,
    SuiteResult,
    SuiteRun,
    SuiteSpec,
    load_spec,
)

# ``repro.suite`` is callable *and* a package: importing the subpackage above
# bound the module object as an attribute of this package; rebinding the name
# to the façade function afterwards wins the attribute lookup, while
# ``from repro.suite.x import y`` and ``python -m repro.suite`` still resolve
# the package through importlib.  (Edge case: ``import repro.suite as m``
# binds this function, not the module.)
from repro.suite.api import suite

__version__ = "1.8.0"

__all__ = [
    "analysis",
    "config",
    "experiments",
    "machine",
    "models",
    "runtime",
    "search",
    "util",
    "wht",
    "ExperimentScale",
    "default_scale",
    "paper_scale",
    "ci_scale",
    "Measurement",
    "SimulatedMachine",
    "default_machine",
    "CacheMissModel",
    "CombinedModel",
    "InstructionCountModel",
    "instruction_count",
    "optimize_combined_model",
    "Session",
    "session",
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "BatchedBackend",
    "CampaignStore",
    "MemoryStore",
    "DiskStore",
    "ShardedRecordStore",
    "CampaignService",
    "ServiceClient",
    "serve",
    "ServiceServer",
    "serve_tcp",
    "serve_unix",
    "RemoteServiceClient",
    "FleetClient",
    "FaultyTransport",
    "TransportError",
    "FaultPlan",
    "FaultSpec",
    "FaultyBackend",
    "FaultyStore",
    "MeasurementTable",
    "CostEngine",
    "CostRecord",
    "Objective",
    "MetricObjective",
    "WeightedObjective",
    "CustomObjective",
    "Plan",
    "Small",
    "Split",
    "iterative_plan",
    "left_recursive_plan",
    "right_recursive_plan",
    "parse_plan",
    "random_plans",
    "suite",
    "SuiteRun",
    "SuiteSpec",
    "SuiteResult",
    "ExperimentResult",
    "MemorySink",
    "SpecError",
    "load_spec",
    "__version__",
]
