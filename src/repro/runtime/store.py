"""Persistent campaign stores.

Completed campaigns are durable artifacts: several figures analyse the same
underlying sample (Figures 5, 7, 8, 9 and 11 all share the large-size
campaign), and at paper scale a campaign is minutes-to-hours of simulation.
The store layer replaces the old process-local cache dict with a small
protocol:

* :class:`MemoryStore` — in-process dictionary (the old behaviour, now keyed
  correctly).
* :class:`DiskStore` — one JSON file per campaign under a directory, written
  atomically, so repeated figure runs and CI jobs skip re-measurement *across
  processes*.
* :class:`NullStore` — never stores anything (``store="none"``).

Keys are content-addressed: :func:`machine_config_hash` digests the *full*
:class:`~repro.machine.machine.MachineConfig` (cache geometry, instruction
weights, cycle model, element size — not just the config's name), which fixes
the historical collision where two machines sharing a name but differing in
geometry silently shared cached tables.

Per-plan costs live in an **append-log record store** keyed by
:class:`CostLogKey`: each entry maps a plan key to a multi-metric value
mapping (``{"cycles": ..., "instructions": ..., ...}``).  Appending a batch
of records is O(batch) regardless of how large the table already is — the
old format re-serialised the whole table on every measuring batch, which
made long campaigns quadratic in store writes.  Records for the same plan
merge metric-wise on read, so the set of known metrics per plan grows
monotonically.  :meth:`DiskStore.compact_cost_records` rewrites a log to one
merged line per plan; reading a compacted log is equivalent to reading the
original.  The append log is the only record format, and one flat directory
is its only layout: a directory holding files of any other shape (such as
pre-append-log per-metric ``costs-*.json`` tables, or logs under an older
``<root>/shards/<hash12>-s<seed>/`` tree) is simply not read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Protocol, runtime_checkable

try:  # POSIX advisory locks; absent on platforms without fcntl (Windows)
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None  # type: ignore[assignment]

from repro.machine.machine import MachineConfig
from repro.runtime.table import MeasurementTable

__all__ = [
    "machine_config_hash",
    "CampaignKey",
    "CostLogKey",
    "CampaignStore",
    "MemoryStore",
    "DiskStore",
    "ShardStats",
    "NullStore",
    "default_memory_store",
    "resolve_store",
]

#: Format version written into every whole-table DiskStore file.
DISK_FORMAT_VERSION = 1
#: Format version of the append-log cost record files.
LOG_FORMAT_VERSION = 2

#: Alias for the nested record mapping: plan key -> metric name -> value.
CostRecords = dict[str, dict[str, float]]


def machine_config_hash(config: MachineConfig) -> str:
    """Stable content hash of a full machine configuration.

    Every field of the configuration — nested cache geometries, instruction
    and cycle model weights, element size, simulator flags — contributes to
    the digest, so two configurations compare equal iff they would produce
    identical measurements.  The hash is stable across processes and Python
    versions (canonical JSON, no ``hash()`` involvement).
    """
    payload = dataclasses.asdict(config)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _token_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


@dataclass(frozen=True)
class CampaignKey:
    """Content-addressed identity of one campaign.

    ``machine_hash`` is :func:`machine_config_hash` of the full configuration;
    the remaining fields are the sampler settings that determine which plans
    are drawn and which noise seeds they receive.  ``kind`` distinguishes RSU
    sample campaigns from other table-producing runs.
    """

    machine_hash: str
    n: int
    count: int
    seed: int
    max_leaf: int
    max_children: int | None
    kind: str = "rsu"

    def as_dict(self) -> dict:
        """Plain dictionary view (written into DiskStore files)."""
        return dataclasses.asdict(self)

    def token(self) -> str:
        """Compact filesystem-safe identifier for this key."""
        return f"{self.kind}-n{self.n}-c{self.count}-{_token_digest(self.as_dict())}"


@dataclass(frozen=True)
class CostLogKey:
    """Content-addressed identity of one multi-metric cost record log.

    One log holds *every* metric measured for a machine configuration under
    one noise-derivation seed; metrics are fields of the stored records, not
    part of the key, so adding a metric to a campaign later extends the same
    log instead of forking a new table.
    """

    machine_hash: str
    seed: int = 0

    def as_dict(self) -> dict:
        """Plain dictionary view (written into log headers)."""
        return dataclasses.asdict(self)

    def token(self) -> str:
        """Compact filesystem-safe identifier for this key."""
        return f"costlog-{_token_digest(self.as_dict())}"


def _merge_records(into: CostRecords, new: Mapping[str, Mapping[str, float]]) -> None:
    for plan_key, values in new.items():
        record = into.setdefault(str(plan_key), {})
        for metric, value in values.items():
            record[str(metric)] = float(value)


@runtime_checkable
class CampaignStore(Protocol):
    """Where completed campaign tables and per-plan cost records live."""

    def get(self, key: CampaignKey) -> MeasurementTable | None:
        """The stored table for ``key``, or ``None`` on a miss."""
        ...

    def put(self, key: CampaignKey, table: MeasurementTable) -> None:
        """Store ``table`` under ``key`` (overwriting any previous entry)."""
        ...

    def get_cost_records(self, key: CostLogKey) -> CostRecords:
        """Every stored cost record for ``key``, merged per plan.

        Returns a fresh mutable mapping (empty on a miss).
        """
        ...

    def append_cost_records(self, key: CostLogKey, records: Mapping[str, Mapping[str, float]]) -> None:
        """Durably append a batch of records to ``key``'s log.

        The call returns only after the records are persisted; appending is
        O(batch), independent of the log's existing size.
        """
        ...

    def compact_cost_records(self, key: CostLogKey) -> None:
        """Rewrite ``key``'s log into one merged record per plan."""
        ...

    def clear(self) -> None:
        """Drop every stored table."""
        ...


class MemoryStore:
    """In-process store: plain dictionaries keyed by the content keys."""

    def __init__(self) -> None:
        self._tables: dict[CampaignKey, MeasurementTable] = {}
        self._cost_records: dict[CostLogKey, CostRecords] = {}

    def get(self, key: CampaignKey) -> MeasurementTable | None:
        return self._tables.get(key)

    def put(self, key: CampaignKey, table: MeasurementTable) -> None:
        self._tables[key] = table

    def get_cost_records(self, key: CostLogKey) -> CostRecords:
        stored = self._cost_records.get(key, {})
        return {plan_key: dict(values) for plan_key, values in stored.items()}

    def append_cost_records(self, key: CostLogKey, records: Mapping[str, Mapping[str, float]]) -> None:
        _merge_records(self._cost_records.setdefault(key, {}), records)

    def compact_cost_records(self, key: CostLogKey) -> None:
        return None  # records are already merged per plan

    def clear(self) -> None:
        self._tables.clear()
        self._cost_records.clear()

    def __len__(self) -> int:
        return len(self._tables) + len(self._cost_records)

    def __repr__(self) -> str:
        return (
            f"MemoryStore({len(self._tables)} tables, "
            f"{len(self._cost_records)} cost logs)"
        )


class NullStore:
    """A store that never hits and never retains (``store="none"``)."""

    def get(self, key: CampaignKey) -> MeasurementTable | None:
        return None

    def put(self, key: CampaignKey, table: MeasurementTable) -> None:
        return None

    def get_cost_records(self, key: CostLogKey) -> CostRecords:
        return {}

    def append_cost_records(self, key: CostLogKey, records: Mapping[str, Mapping[str, float]]) -> None:
        return None

    def compact_cost_records(self, key: CostLogKey) -> None:
        return None

    def clear(self) -> None:
        return None

    def __repr__(self) -> str:
        return "NullStore()"


@dataclass(frozen=True)
class ShardStats:
    """Size and occupancy of one on-disk record log (one ``CostLogKey``)."""

    #: The log's key, recovered from the log header.
    machine_hash: str
    seed: int
    #: Log file name, relative to the store root.
    path: str
    #: Bytes currently occupied by the log file.
    size_bytes: int
    #: Record lines in the log (>= distinct plans until compaction).
    record_lines: int
    #: Distinct plans with at least one record in the log.
    distinct_plans: int


class DiskStore:
    """One JSON file per campaign under ``path``; durable across processes.

    Campaign tables are written atomically (temp file + ``os.replace``) so a
    crashed or concurrent writer can never leave a half-written table behind.
    Cost records use the append-log format instead: one ``.jsonl`` file per
    :class:`CostLogKey` whose lines are independently parseable records, so a
    measuring batch pays one O(batch) append (plus an fsync) rather than a
    whole-table rewrite, and a crash mid-append loses at most the trailing
    partial line — which the reader detects and skips.  Writers (appends and
    compactions) of one log serialise on an advisory ``flock`` held via a
    sidecar ``.lock`` file, so two processes sharing a store directory can
    never interleave a log or lose appends to a concurrent compaction, and
    writers of different keys never contend; readers stay lock-free.  There
    is deliberately no in-memory memoisation of record *values*: every read
    re-reads the file, which is what makes a second process's cache hit
    equivalent to a same-process one.

    ``auto_compact`` (off by default) bounds reopen cost for long-lived
    campaigns: after each append, when a log holds more than ``auto_compact``
    times as many record lines as distinct plans (duplicate lines accumulate
    when later batches extend earlier plans' metrics), the log is compacted
    inline, under its writer lock, to one merged line per plan.  The trigger
    state is tracked per store object under a thread lock (one object may
    serve many service workers), seeded by one read of the existing log on
    the first append; compaction is read-equivalent, so concurrent writers
    at worst compact a little early or late — never incorrectly.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        auto_compact: float | None = None,
    ):
        if auto_compact is not None and auto_compact < 1.0:
            raise ValueError(
                f"auto_compact must be at least 1 (a line-to-plan ratio), "
                f"got {auto_compact}"
            )
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.auto_compact = auto_compact
        #: Per-log trigger state: (record line count, distinct plan keys).
        self._log_state: dict[CostLogKey, tuple[int, set[str]]] = {}
        self._log_state_lock = threading.Lock()

    def _file_for(self, key: CampaignKey) -> Path:
        return self.path / f"{key.token()}.json"

    def _log_for(self, key: CostLogKey) -> Path:
        return self.path / f"{key.token()}.jsonl"

    def log_path(self, key: CostLogKey) -> Path:
        """The on-disk append-log file of ``key`` (created on first append).

        Public so fault injectors and crash-tolerance tests can reach the
        raw log (torn tails, partial lines) without depending on the file
        naming scheme.
        """
        return self._log_for(key)

    def get(self, key: CampaignKey) -> MeasurementTable | None:
        file = self._file_for(key)
        try:
            with open(file, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("version") != DISK_FORMAT_VERSION:
                return None  # written by an incompatible version; treat as a miss
            return MeasurementTable.from_dict(payload["table"])
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            # A concurrent clear(), a truncated write that never reached
            # os.replace, or a corrupt/foreign file: all are misses — the
            # campaign is simply re-measured and re-stored.
            return None

    def put(self, key: CampaignKey, table: MeasurementTable) -> None:
        payload = {
            "version": DISK_FORMAT_VERSION,
            "key": key.as_dict(),
            "table": table.as_dict(),
        }
        self._write_atomic(self._file_for(key), payload)

    # -- cost record log ---------------------------------------------------------

    @contextmanager
    def _log_write_lock(self, key: CostLogKey) -> Iterator[None]:
        """Advisory exclusive lock serialising writers of one record log.

        The lock lives on a *sidecar* ``.lock`` file rather than the log
        itself: compaction replaces the log's inode (``os.replace``), and a
        writer blocked on the old inode's lock would otherwise wake up and
        append to an orphaned file.  The sidecar is never replaced, so every
        process (and every thread — each acquisition opens its own
        descriptor, and ``flock`` serialises distinct open descriptions)
        agrees on one lock per shard.  Readers never take it: the append-log
        format already tolerates concurrent appends mid-read.
        """
        lock_file = self.path / f"{key.token()}.lock"
        fd = os.open(lock_file, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def get_cost_records(self, key: CostLogKey) -> CostRecords:
        records: CostRecords = {}
        self._merge_log_entries(records, self._log_for(key))
        return records

    def _merge_log_entries(self, records: CostRecords, file: Path) -> None:
        for entry in self._read_log(file):
            plan_key = entry.get("p")
            values = entry.get("v")
            if isinstance(plan_key, str) and isinstance(values, dict):
                try:
                    _merge_records(records, {plan_key: values})
                except (TypeError, ValueError):
                    continue  # a foreign or corrupt record: skip, don't crash

    def append_cost_records(self, key: CostLogKey, records: Mapping[str, Mapping[str, float]]) -> None:
        if not records:
            return
        if self.auto_compact is not None:
            with self._log_state_lock:
                if key not in self._log_state:
                    # Seed the trigger counters from the log as it exists
                    # before this store's first append to it (one read;
                    # O(batch) updates afterwards).
                    self._log_state[key] = self._count_log(self._log_for(key))
        lines = []
        for plan_key, values in records.items():
            payload = {
                "p": str(plan_key),
                "v": {str(m): float(v) for m, v in values.items()},
            }
            lines.append(json.dumps(payload))
        # The whole batch goes out as ONE os.write on an O_APPEND descriptor
        # under the shard's advisory writer lock: two processes sharing a
        # store directory are serialised whole-batch (the O_APPEND write
        # additionally guarantees that even a foreign unlocked writer cannot
        # interleave mid-line), so simultaneous batches land whole, in some
        # order.
        data = ("\n".join(lines) + "\n").encode("utf-8")
        with self._log_write_lock(key):
            fd = os.open(self._log_for(key), os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                size = os.fstat(fd).st_size
                if size == 0:
                    header = json.dumps(
                        {"version": LOG_FORMAT_VERSION, "key": key.as_dict()}
                    )
                    data = (header + "\n").encode("utf-8") + data
                else:
                    # A crash can leave a partial trailing line; never glue new
                    # records onto it — terminate it so the reader skips exactly
                    # the partial line and nothing after it.
                    os.lseek(fd, -1, os.SEEK_END)
                    if os.read(fd, 1) != b"\n":
                        data = b"\n" + data
                os.write(fd, data)
                os.fsync(fd)
            finally:
                os.close(fd)
        if self.auto_compact is not None:
            self._maybe_auto_compact(key, records)

    def _maybe_auto_compact(self, key: CostLogKey, appended: Mapping[str, Mapping[str, float]]) -> None:
        with self._log_state_lock:
            lines, plans = self._log_state[key]
            lines += len(appended)
            plans.update(appended)
            self._log_state[key] = (lines, plans)
            due = lines > self.auto_compact * max(len(plans), 1)
        if due:
            # compact_cost_records refreshes the trigger state from the full
            # merged log, which also folds in any concurrent writer's plans.
            self.compact_cost_records(key)

    def compact_cost_records(self, key: CostLogKey) -> None:
        """Atomically rewrite the log as one merged record line per plan.

        Reading a compacted log yields exactly what reading the original
        would.  The shard's writer lock is held across the read-merge-replace
        cycle, so a concurrent appender can never land records between the
        read and the replace (which would silently drop them).
        """
        with self._log_write_lock(key):
            records: CostRecords = {}
            self._merge_log_entries(records, self._log_for(key))
            if not records:
                return
            file = self._log_for(key)
            lines = [json.dumps({"version": LOG_FORMAT_VERSION, "key": key.as_dict()})]
            for plan_key in sorted(records):
                lines.append(json.dumps({"p": plan_key, "v": records[plan_key]}))
            fd, tmp_name = tempfile.mkstemp(prefix=f".{file.stem}.", suffix=".tmp", dir=self.path)
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, file)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        with self._log_state_lock:
            if key in self._log_state:
                # The log now holds exactly one line per plan.
                self._log_state[key] = (len(records), set(records))

    def _read_log(self, file: Path) -> Iterator[dict]:
        """Parse a record log, tolerating truncated or corrupt lines.

        Every line is an independent record, so a malformed line — the
        partial tail a crash between ``write`` and ``fsync`` leaves behind,
        or a line damaged by a foreign writer — is *skipped*, not fatal:
        records appended after a crash (the appender terminates any partial
        tail first) remain reachable.  Only an incompatible version header
        aborts the whole log.
        """
        try:
            with open(file, "r", encoding="utf-8") as handle:
                raw_lines = handle.read().split("\n")
        except OSError:
            return
        for raw in raw_lines:
            if not raw.strip():
                continue
            try:
                entry = json.loads(raw)
            except json.JSONDecodeError:
                continue  # partial or damaged line: lose it, keep the rest
            if not isinstance(entry, dict):
                continue
            if "version" in entry:
                if entry.get("version") != LOG_FORMAT_VERSION:
                    return  # incompatible log: ignore its records entirely
                continue
            yield entry

    def _count_log(self, file: Path) -> tuple[int, set[str]]:
        """``(record lines, distinct plan keys)`` of one record log."""
        lines = 0
        plans: set[str] = set()
        for entry in self._read_log(file):
            plan = entry.get("p")
            if isinstance(plan, str):
                lines += 1
                plans.add(plan)
        return lines, plans

    def _write_atomic(self, file: Path, payload: dict) -> None:
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{file.stem}.", suffix=".tmp", dir=self.path
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, file)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def clear(self) -> None:
        with self._log_state_lock:
            self._log_state.clear()
        patterns = ("*.json", "*.jsonl", "*.lock")
        for file in [f for pattern in patterns for f in self.path.glob(pattern)]:
            try:
                file.unlink()
            except OSError:
                pass

    def entries(self) -> Iterator[Path]:
        """Paths of every stored campaign file (for inspection and tests)."""
        return iter(sorted(self.path.glob("*.json")))

    def cost_logs(self) -> Iterator[Path]:
        """Paths of every cost record log (for inspection and tests)."""
        return iter(sorted(self.path.glob("*.jsonl")))

    def shard_stats(self) -> list[ShardStats]:
        """Per-key log occupancy, read straight off the on-disk logs."""
        stats = []
        for log in self.cost_logs():
            try:
                size = log.stat().st_size
                with open(log, "r", encoding="utf-8") as handle:
                    header = json.loads(handle.readline())
            except (OSError, json.JSONDecodeError):
                continue  # removed mid-scan, or no complete header yet
            header_key = header.get("key", {}) if isinstance(header, dict) else {}
            lines, plans = self._count_log(log)
            stats.append(
                ShardStats(
                    machine_hash=str(header_key.get("machine_hash", "")),
                    seed=int(header_key.get("seed", 0)),
                    path=log.name,
                    size_bytes=size,
                    record_lines=lines,
                    distinct_plans=len(plans),
                )
            )
        return stats

    def close(self) -> None:
        """Nothing to release (every write is durable on return); idempotent."""

    def __enter__(self) -> "DiskStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.path)!r})"


#: The process-wide default store, shared by every session that asks for
#: ``"memory"``, so several sessions reuse each other's completed campaigns
#: in-process.
_DEFAULT_MEMORY_STORE = MemoryStore()


def default_memory_store() -> MemoryStore:
    """The shared in-process store used by ``store="memory"``."""
    return _DEFAULT_MEMORY_STORE


def resolve_store(spec: "str | os.PathLike[str] | CampaignStore | None") -> CampaignStore:
    """Normalise a store spec into a :class:`CampaignStore`.

    ``"memory"`` is the shared in-process store, ``"none"``/``None`` disables
    caching, and a path (any :class:`os.PathLike`, or a string containing a
    path separator such as ``"./campaigns"``) becomes a :class:`DiskStore`
    rooted at that directory.  A bare string that is neither a known store
    name nor path-like raises — so a typo of ``"memory"`` cannot silently
    switch caching semantics.  Store instances pass through unchanged.
    """
    if spec is None:
        return NullStore()
    if isinstance(spec, str):
        if spec == "memory":
            return default_memory_store()
        if spec == "none":
            return NullStore()
        if os.sep in spec or (os.altsep is not None and os.altsep in spec):
            return DiskStore(spec)
        raise ValueError(
            f"unknown store {spec!r}; use 'memory', 'none', a directory path "
            f"like {'./' + spec!r}, or a CampaignStore instance"
        )
    if isinstance(spec, os.PathLike):
        return DiskStore(spec)
    if isinstance(spec, CampaignStore):
        return spec
    raise TypeError(f"cannot interpret {spec!r} as a campaign store")
