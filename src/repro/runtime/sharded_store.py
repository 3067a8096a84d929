"""Sharded record log: one append-log writer per ``(machine_hash, seed)`` shard.

A multi-tenant campaign service measures for many machines and many seeds at
once; a single flat record log would make every one of its appends contend on
one file.  :class:`ShardedRecordStore` keeps the append-log format (and all of
:class:`~repro.runtime.store.DiskStore`'s crash-tolerant log machinery —
O(batch) locked appends, truncated-tail-tolerant reads, read-equivalent
compaction) but gives every :class:`~repro.runtime.store.CostLogKey` its own
shard directory under ``<root>/shards/``:

* **one writer per shard** — appends and compactions of a shard serialise on
  that shard's advisory file lock only; writers of different shards never
  contend;
* **concurrent lock-free readers** — reads never take a lock (the append-log
  format tolerates concurrent appends mid-read), so thousands of sessions can
  serve plan-cost lookups read-through from one store while the service's
  workers append;
* **background compaction** — when a shard's log accumulates more than
  ``auto_compact`` times as many record lines as distinct plans, a compaction
  is scheduled on a dedicated daemon thread instead of stalling the appending
  worker (``DiskStore``'s writer lock makes the concurrent compact-vs-append
  interleaving safe).

Each shard *is* a :class:`DiskStore` rooted at the shard directory, so the
record format, its crash tolerance and its compaction exist once; this class
only routes keys to shards and schedules compactions off the appending
thread.  Record logs at the root (a flat ``DiskStore``'s layout) are not
read: a root directory is either a flat store or a sharded one.

Campaign *tables* (whole-campaign JSON files) are not sharded — they are
written atomically and read rarely — and live at the root exactly as a flat
``DiskStore`` keeps them, so the root stays a drop-in
:class:`~repro.runtime.store.CampaignStore`.
"""

from __future__ import annotations

import json
import queue
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from repro.runtime.store import CampaignKey, CostLogKey, CostRecords, DiskStore
from repro.runtime.table import MeasurementTable

__all__ = ["ShardStats", "ShardedRecordStore"]


@dataclass(frozen=True)
class ShardStats:
    """Size and occupancy of one on-disk record shard."""

    #: The shard's log key, recovered from the log header.
    machine_hash: str
    seed: int
    #: Shard directory, relative to the store root.
    path: str
    #: Bytes currently occupied by the shard's log file.
    size_bytes: int
    #: Record lines in the log (>= distinct plans until compaction).
    record_lines: int
    #: Distinct plans with at least one record in the shard.
    distinct_plans: int


class ShardedRecordStore:
    """A :class:`CampaignStore` whose record logs are sharded per log key.

    Parameters
    ----------
    path:
        Root directory.  Campaign tables live at the root; record shards
        live under ``<root>/shards/<hash12>-s<seed>/``.
    auto_compact:
        Line-to-plan ratio beyond which a shard's compaction is scheduled
        (``None`` disables automatic compaction).  Unlike
        ``DiskStore(auto_compact=...)`` the compaction runs on a background
        thread, so the appender returns as soon as its own records are
        durable.
    background_compaction:
        ``False`` runs triggered compactions inline (deterministic ordering
        for tests); the default schedules them on the compactor thread.
    """

    def __init__(
        self,
        path: "str | Path",
        auto_compact: float | None = 8.0,
        background_compaction: bool = True,
    ):
        if auto_compact is not None and auto_compact < 1.0:
            raise ValueError(
                f"auto_compact must be at least 1 (a line-to-plan ratio), "
                f"got {auto_compact}"
            )
        self.path = Path(path)
        self.shards_path = self.path / "shards"
        self.shards_path.mkdir(parents=True, exist_ok=True)
        self.auto_compact = auto_compact
        self.background_compaction = background_compaction
        #: Flat store at the root: campaign tables only.
        self._root = DiskStore(self.path)
        self._lock = threading.Lock()
        self._shards: dict[CostLogKey, DiskStore] = {}
        #: Per-shard compaction trigger: (record lines, distinct plan keys).
        self._counters: dict[CostLogKey, tuple[int, set[str]]] = {}
        #: Shards with a compaction scheduled but not yet finished.
        self._compacting: set[CostLogKey] = set()
        self._compaction_queue: "queue.Queue[CostLogKey | None]" = queue.Queue()
        self._compactor: threading.Thread | None = None
        self._closed = False

    # -- shard resolution --------------------------------------------------------

    def _shard_dir(self, key: CostLogKey) -> Path:
        # Readable over exhaustive: a 48-bit hash prefix plus the seed.  Two
        # *distinct* keys colliding here is harmless anyway — the log file
        # inside the directory is named by the key's own digest token.
        return self.shards_path / f"{key.machine_hash[:12]}-s{key.seed}"

    def _shard(self, key: CostLogKey) -> DiskStore:
        shard = self._shards.get(key)
        if shard is not None:
            return shard
        with self._lock:
            shard = self._shards.get(key)
            if shard is None:
                shard = DiskStore(self._shard_dir(key))
                self._shards[key] = shard
            return shard

    def shard_log_path(self, key: CostLogKey) -> Path:
        """The on-disk append-log file inside ``key``'s shard.

        Resolving the path touches the shard (directory creation), so the
        returned location is exactly where the next append will land.
        Public for fault injectors and crash-tolerance tests.
        """
        shard = self._shard(key)
        return shard.log_path(key)

    # -- campaign tables (unsharded, at the root) --------------------------------

    def get(self, key: CampaignKey) -> MeasurementTable | None:
        return self._root.get(key)

    def put(self, key: CampaignKey, table: MeasurementTable) -> None:
        self._root.put(key, table)

    # -- record log --------------------------------------------------------------

    def get_cost_records(self, key: CostLogKey) -> CostRecords:
        return self._shard(key).get_cost_records(key)

    def append_cost_records(
        self, key: CostLogKey, records: Mapping[str, Mapping[str, float]]
    ) -> None:
        if not records:
            return
        shard = self._shard(key)
        shard.append_cost_records(key, records)
        if self.auto_compact is None:
            return
        with self._lock:
            state = self._counters.get(key)
            if state is None:
                # Seed the trigger from the log as it stands (one read,
                # already including the append above); O(batch) afterwards.
                lines, plans = 0, set()
                for entry in shard._read_log(shard._log_for(key)):
                    plan = entry.get("p")
                    if isinstance(plan, str):
                        lines += 1
                        plans.add(plan)
            else:
                lines, plans = state
                lines += len(records)
                plans.update(str(plan) for plan in records)
            self._counters[key] = (lines, plans)
            due = (
                lines > self.auto_compact * max(len(plans), 1)
                and key not in self._compacting
                and not self._closed
            )
            if due:
                self._compacting.add(key)
        if due:
            self._submit_compaction(key)

    def compact_cost_records(self, key: CostLogKey) -> None:
        """Synchronously compact ``key``'s shard (one merged line per plan)."""
        self._shard(key).compact_cost_records(key)
        with self._lock:
            state = self._counters.get(key)
            if state is not None:
                self._counters[key] = (len(state[1]), state[1])

    # -- background compaction ---------------------------------------------------

    def _submit_compaction(self, key: CostLogKey) -> None:
        if not self.background_compaction:
            self._run_compaction(key)
            return
        with self._lock:
            if self._compactor is None or not self._compactor.is_alive():
                self._compactor = threading.Thread(
                    target=self._compaction_loop,
                    name="shard-compactor",
                    daemon=True,
                )
                self._compactor.start()
        self._compaction_queue.put(key)

    def _compaction_loop(self) -> None:
        while True:
            key = self._compaction_queue.get()
            try:
                if key is None:
                    return
                self._run_compaction(key)
            except Exception:  # pragma: no cover - compaction is best-effort
                pass  # an uncompacted log is merely larger, never wrong
            finally:
                self._compaction_queue.task_done()

    def _run_compaction(self, key: CostLogKey) -> None:
        try:
            self._shard(key).compact_cost_records(key)
        finally:
            with self._lock:
                self._compacting.discard(key)
                state = self._counters.get(key)
                if state is not None:
                    # The log now holds ~one line per plan; appends racing the
                    # compaction at worst re-trigger a little early or late.
                    self._counters[key] = (len(state[1]), state[1])

    def drain_compactions(self) -> None:
        """Block until every scheduled background compaction has finished."""
        self._compaction_queue.join()

    def close(self) -> None:
        """Finish scheduled compactions and stop the compactor (idempotent).

        The store remains readable and writable afterwards; only *automatic*
        compaction scheduling stops.
        """
        with self._lock:
            self._closed = True
            compactor = self._compactor
            self._compactor = None
        if compactor is not None and compactor.is_alive():
            self._compaction_queue.put(None)
            compactor.join()

    def __enter__(self) -> "ShardedRecordStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- maintenance and introspection -------------------------------------------

    def clear(self) -> None:
        """Drop every stored table, shard and counter."""
        self.close()
        with self._lock:
            self._shards.clear()
            self._counters.clear()
            self._compacting.clear()
            self._closed = False
        self._root.clear()
        for shard_dir in list(self.shards_path.iterdir()):
            if not shard_dir.is_dir():
                continue
            for file in list(shard_dir.iterdir()):
                try:
                    file.unlink()
                except OSError:
                    pass
            try:
                shard_dir.rmdir()
            except OSError:
                pass

    def shard_paths(self) -> Iterator[Path]:
        """Paths of every on-disk shard log (for inspection and tests)."""
        return iter(sorted(self.shards_path.glob("*/costlog-*.jsonl")))

    def shard_stats(self) -> list[ShardStats]:
        """Per-shard occupancy, read straight off the on-disk logs."""
        stats = []
        for log in self.shard_paths():
            machine_hash, seed = "", 0
            lines, plans = 0, set()
            try:
                size = log.stat().st_size
                with open(log, "r", encoding="utf-8") as handle:
                    for raw in handle:
                        raw = raw.strip()
                        if not raw:
                            continue
                        try:
                            entry = json.loads(raw)
                        except json.JSONDecodeError:
                            continue
                        if not isinstance(entry, dict):
                            continue
                        if "version" in entry:
                            header_key = entry.get("key", {})
                            machine_hash = str(header_key.get("machine_hash", ""))
                            seed = int(header_key.get("seed", 0))
                            continue
                        plan = entry.get("p")
                        if isinstance(plan, str):
                            lines += 1
                            plans.add(plan)
            except OSError:
                continue
            stats.append(
                ShardStats(
                    machine_hash=machine_hash,
                    seed=seed,
                    path=str(log.parent.relative_to(self.path)),
                    size_bytes=size,
                    record_lines=lines,
                    distinct_plans=len(plans),
                )
            )
        return stats

    def __repr__(self) -> str:
        return (
            f"ShardedRecordStore({str(self.path)!r}, "
            f"{len(list(self.shard_paths()))} shards)"
        )
