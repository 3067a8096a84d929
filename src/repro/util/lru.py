"""A minimal bounded least-recently-used mapping.

Shared by the caching layers of the batched evaluation engine (the machine's
prepared-plan cache, the trace builder's sub-plan template memo) so the
recency/eviction mechanics live in one place.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterator, TypeVar

from repro.util.validation import check_positive_int

__all__ = ["LRUCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """Bounded mapping evicting the least recently used entry.

    ``get`` refreshes recency; ``put`` inserts (or refreshes) and evicts the
    oldest entries while the entries' total weight, ``weigh(value)`` each,
    exceeds ``capacity``.  By default every entry weighs 1, so ``capacity``
    bounds the entry count.  Not thread-safe, like the rest of the
    simulator.
    """

    def __init__(self, capacity: int, weigh: Callable[[V], int] | None = None):
        check_positive_int(capacity, "capacity")
        self.capacity = int(capacity)
        self._weigh = weigh
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        #: Total weight of the entries.
        self.weight = 0

    def get(self, key: K) -> V | None:
        """The value for ``key`` (refreshing its recency), or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def _weight_of(self, value: V) -> int:
        return 1 if self._weigh is None else self._weigh(value)

    def put(self, key: K, value: V) -> None:
        """Insert ``value`` under ``key``, evicting the oldest beyond capacity."""
        old = self._entries.pop(key, None)
        if old is not None:
            self.weight -= self._weight_of(old)
        self._entries[key] = value
        self.weight += self._weight_of(value)
        while self.weight > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            self.weight -= self._weight_of(evicted)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self.weight = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        """The keys, least recently used first (recency is not refreshed)."""
        return iter(self._entries)
