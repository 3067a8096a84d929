"""The service's record store: a :class:`~repro.runtime.store.DiskStore`
that compacts by default.

A multi-tenant campaign service measures for many machines and many seeds at
once.  :class:`~repro.runtime.store.DiskStore` already keeps one append log
and one ``flock`` sidecar per ``(machine_hash, seed)`` key in its flat
directory, so writers of different keys never contend, readers never lock,
and compaction runs inline under the key's writer lock.  A
:class:`ShardedRecordStore` *is* that store; it only turns automatic
compaction on (``auto_compact=8.0``), because a long-lived service's logs
grow without a session's natural end.  A session and a service opening one
directory read each other's records.  Logs written in an older
``<root>/shards/<hash12>-s<seed>/`` layout are not read.
"""

from __future__ import annotations

import os

from repro.runtime.store import DiskStore

__all__ = ["ShardedRecordStore"]


class ShardedRecordStore(DiskStore):
    """A :class:`DiskStore` whose ``auto_compact`` defaults to 8x."""

    def __init__(self, path: "str | os.PathLike[str]", auto_compact: float | None = 8.0):
        super().__init__(path, auto_compact)

    # The benchmark tracer wraps each store class's *own* ``__dict__`` entries
    # (so a subclass call is timed once, by the subclass's wrapper); these
    # aliases give it the four store-boundary methods to wrap here.
    get = DiskStore.get
    put = DiskStore.put
    get_cost_records = DiskStore.get_cost_records
    append_cost_records = DiskStore.append_cost_records
