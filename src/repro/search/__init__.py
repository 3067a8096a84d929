"""Search strategies over the WHT algorithm space.

The WHT package's original contribution is *generate and test*: search a huge
algorithm space for the implementation that is fastest on a given machine.
The paper's contribution is showing that analytic models can prune that
search.  This subpackage provides both sides:

* :mod:`repro.search.dp` — the dynamic-programming search (the package's
  default strategy, used to define the "best" baseline of Figures 1–3);
* :mod:`repro.search.random_search` — plain random sampling;
* :mod:`repro.search.exhaustive` — exhaustive enumeration for small sizes;
* :mod:`repro.search.pruned` — the paper's model-pruned search: evaluate the
  cheap model on every candidate, keep only the candidates below a threshold
  (or the best fraction), and measure only those.

Every strategy takes one ``cost``: an engine surface
(:class:`~repro.runtime.cost_engine.CostEngine`, a service or fleet client),
which evaluates the engine's default objective, or ``engine.cost(objective)``
for any other metric or composite — simulated cycles, the analytic
``model_instructions`` / ``model_combined`` scores, ``wall_time``.  Both
expose ``batch`` and the ``evaluations`` / ``measured`` counters, so every
round is one batch and pruning reports count real measurements, not cache
hits.
"""

from repro.search.result import SearchResult
from repro.search.dp import dp_best_plan, dp_search
from repro.search.random_search import RandomSearch
from repro.search.exhaustive import ExhaustiveSearch
from repro.search.pruned import ModelPrunedSearch, PrunedSearchReport

__all__ = [
    "SearchResult",
    "dp_search",
    "dp_best_plan",
    "RandomSearch",
    "ExhaustiveSearch",
    "ModelPrunedSearch",
    "PrunedSearchReport",
]
