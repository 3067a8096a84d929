"""Result types shared by the suite runner, the sinks and the CLI.

The runner produces one :class:`ExperimentResult` per *unit* — the cartesian
product cell ``(machine, seed, experiment)`` — and wraps the whole run in a
:class:`SuiteResult`.  Each result carries three views of the same data:

* ``figure`` — the rich in-process object (a ``HistogramFigure``,
  ``ScatterData``, ``CorrelationSurface``, ``CanonicalSweep``, ...), for
  callers that continue analysing in Python, such as the benchmark drivers'
  assertions.
* ``tables`` — named :class:`SuiteTable` row sets, the unit sinks stream to
  CSV/JSONL.
* ``artifact`` — a plain JSON-serialisable dict (scalars and small series),
  written verbatim by the figure-artifact sink and compared byte-for-byte
  across backends/services in the bit-identity gates.

``tables`` and ``artifact`` contain only built-in Python types (the
:func:`jsonable` helper strips NumPy scalars/arrays), so two runs that
measure identical values serialise to identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["SuiteTable", "ExperimentResult", "SuiteResult", "jsonable", "sanitize_unit_id"]


def jsonable(value: Any) -> Any:
    """Recursively convert ``value`` to JSON-serialisable built-ins.

    NumPy scalars become Python ints/floats, arrays become lists, tuples
    become lists, mapping keys are coerced to strings (JSON object keys) and
    non-finite floats survive as the strings ``"nan"`` / ``"inf"`` /
    ``"-inf"`` so artifacts stay loadable by strict JSON parsers.
    """
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        out = float(value)
        if out != out:
            return "nan"
        if out == float("inf"):
            return "inf"
        if out == float("-inf"):
            return "-inf"
        return out
    if isinstance(value, np.ndarray):
        return [jsonable(item) for item in value.tolist()]
    if isinstance(value, Mapping):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonable(item) for item in items]
    return str(value)


def sanitize_unit_id(unit_id: str) -> str:
    """A unit id rendered safe for use as a file name stem."""
    return unit_id.replace("/", "__").replace(":", "_")


@dataclass(frozen=True)
class SuiteTable:
    """One named, sink-writable table: a header row plus data rows."""

    headers: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    @classmethod
    def build(cls, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> "SuiteTable":
        width = len(tuple(headers))
        clean_rows = []
        for row in rows:
            cells = tuple(jsonable(cell) for cell in row)
            if len(cells) != width:
                raise ValueError(
                    f"table row has {len(cells)} cells for {width} headers: {cells!r}"
                )
            clean_rows.append(cells)
        return cls(headers=tuple(str(h) for h in headers), rows=tuple(clean_rows))

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as dicts keyed by header (the JSONL sink's row shape)."""
        return [dict(zip(self.headers, row)) for row in self.rows]


@dataclass
class ExperimentResult:
    """Outcome of one suite unit — ``(machine, seed, experiment)``."""

    unit_id: str
    experiment_id: str
    kind: str
    machine_id: str
    seed: int
    #: ``"complete"``, ``"skipped"`` (manifest said already done) or ``"failed"``.
    status: str
    #: Measurements this unit's execution put on the backend/service (0 when
    #: everything came from the store, and always 0 for skipped units).
    measured: int = 0
    tables: dict[str, SuiteTable] = field(default_factory=dict)
    artifact: dict[str, Any] = field(default_factory=dict)
    #: The rich in-process figure object (``None`` for skipped/failed units).
    figure: Any = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("complete", "skipped")


@dataclass
class SuiteResult:
    """Everything one :meth:`~repro.suite.runner.SuiteRun.run` produced."""

    spec_name: str
    spec_hash: str
    results: list[ExperimentResult] = field(default_factory=list)
    manifest_path: str | None = None
    #: ``baseline_measured[context_id][baseline]`` — measurements spent
    #: materialising each shared baseline (empty on a warm store resume).
    baseline_measured: dict[str, dict[str, int]] = field(default_factory=dict)

    # -- aggregate views ---------------------------------------------------------

    @property
    def completed(self) -> list[ExperimentResult]:
        return [r for r in self.results if r.status == "complete"]

    @property
    def skipped(self) -> list[ExperimentResult]:
        return [r for r in self.results if r.status == "skipped"]

    @property
    def failed(self) -> list[ExperimentResult]:
        return [r for r in self.results if r.status == "failed"]

    @property
    def total_measured(self) -> int:
        """Measurements the whole run performed (0 on a warm store resume).

        Counts both the shared baselines and every unit's own execution.
        """
        baseline = sum(
            sum(per_baseline.values()) for per_baseline in self.baseline_measured.values()
        )
        return baseline + sum(r.measured for r in self.results)

    @property
    def ok(self) -> bool:
        return not self.failed

    def statuses(self) -> dict[str, str]:
        """Unit id to status, in execution order."""
        return {r.unit_id: r.status for r in self.results}

    # -- lookup ------------------------------------------------------------------

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def get(
        self,
        experiment_id: str,
        machine: str | None = None,
        seed: int | None = None,
    ) -> ExperimentResult:
        """The unique result of ``experiment_id`` (narrow by machine/seed).

        Raises :class:`KeyError` when no unit matches and :class:`ValueError`
        when several do (a multi-machine or multi-seed suite needs the extra
        coordinates).
        """
        matches = [
            r
            for r in self.results
            if r.experiment_id == experiment_id
            and (machine is None or r.machine_id == machine)
            and (seed is None or r.seed == seed)
        ]
        if not matches:
            known = sorted({r.experiment_id for r in self.results})
            raise KeyError(f"no result for experiment {experiment_id!r}; ran: {known}")
        if len(matches) > 1:
            cells = [(r.machine_id, r.seed) for r in matches]
            raise ValueError(
                f"experiment {experiment_id!r} ran in {len(matches)} contexts "
                f"{cells}; pass machine= and/or seed= to disambiguate"
            )
        return matches[0]

    def figure(self, experiment_id: str, machine: str | None = None, seed: int | None = None) -> Any:
        """The rich figure object of one experiment (see :meth:`get`)."""
        return self.get(experiment_id, machine=machine, seed=seed).figure

    def artifact(
        self, experiment_id: str, machine: str | None = None, seed: int | None = None
    ) -> dict[str, Any]:
        """The JSON artifact dict of one experiment (see :meth:`get`)."""
        return self.get(experiment_id, machine=machine, seed=seed).artifact

    def describe(self) -> str:
        """One line per unit: status, measurement count, experiment."""
        lines = [
            f"suite {self.spec_name!r} [{self.spec_hash[:12]}]: "
            f"{len(self.completed)} complete, {len(self.skipped)} skipped, "
            f"{len(self.failed)} failed, {self.total_measured} measurements"
        ]
        for r in self.results:
            note = f"  ({r.error})" if r.error else ""
            lines.append(f"  {r.status:>8}  measured={r.measured:<6} {r.unit_id}{note}")
        return "\n".join(lines)
