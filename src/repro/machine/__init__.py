"""Simulated machine substrate.

The paper measures cycle counts, instruction counts and data-cache misses with
PAPI hardware counters on an AMD Opteron.  Neither the hardware nor PAPI is
available here, and wall-clock timing of interpreted Python would be dominated
by interpreter overhead rather than by the cache effects the paper studies
(see DESIGN.md, substitution table).  This subpackage therefore provides an
execution-driven *simulated machine*:

* :mod:`repro.machine.cache` — set-associative LRU cache simulators (a
  per-access reference plus vectorised 2-way and N-way trace versions),
* :mod:`repro.machine.hierarchy` — a two-level data-cache hierarchy,
* :mod:`repro.machine.trace` — memory-trace generation from plan execution,
* :mod:`repro.machine.cpu` — instruction-cost and cycle models,
* :mod:`repro.machine.counters` — a PAPI-like counter facade,
* :mod:`repro.machine.machine` — :class:`SimulatedMachine`, the top-level
  object that turns a plan into a :class:`Measurement`,
* :mod:`repro.machine.configs` — machine presets (scaled default,
  Opteron-like, tiny test machine).
"""

from repro.machine.cache import (
    CacheConfig,
    CacheStatistics,
    NWayLRUCache,
    SetAssociativeLRUCache,
    TwoWayLRUCache,
    make_cache,
)
from repro.machine.hierarchy import HierarchyStatistics, MemoryHierarchy
from repro.machine.trace import (
    LineChunk,
    MemoryTrace,
    SplicedLineChunk,
    splice_line_chunks,
    stream_line_chunks,
    trace_from_nests,
)
from repro.machine.cpu import CycleModel, InstructionCostModel
from repro.machine.measurement import Measurement
from repro.machine.counters import PAPI_EVENTS, CounterSet, counters_from_measurement
from repro.machine.machine import (
    MachineConfig,
    PreparedPlan,
    PreparedPlanCache,
    SimulatedMachine,
)
from repro.machine.configs import (
    default_machine,
    default_machine_config,
    opteron_like,
    opteron_like_config,
    tiny_machine,
    tiny_machine_config,
)

__all__ = [
    "CacheConfig",
    "CacheStatistics",
    "NWayLRUCache",
    "SetAssociativeLRUCache",
    "TwoWayLRUCache",
    "make_cache",
    "HierarchyStatistics",
    "MemoryHierarchy",
    "LineChunk",
    "MemoryTrace",
    "SplicedLineChunk",
    "splice_line_chunks",
    "stream_line_chunks",
    "trace_from_nests",
    "CycleModel",
    "InstructionCostModel",
    "Measurement",
    "PAPI_EVENTS",
    "CounterSet",
    "counters_from_measurement",
    "MachineConfig",
    "PreparedPlan",
    "PreparedPlanCache",
    "SimulatedMachine",
    "default_machine",
    "default_machine_config",
    "opteron_like",
    "opteron_like_config",
    "tiny_machine",
    "tiny_machine_config",
]
