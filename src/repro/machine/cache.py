"""Cache simulators.

Three simulators are provided.  ``simulate`` takes a trace of int32 *line
numbers* (``config.line_of`` of the byte addresses), the form the streaming
pipeline produces them in:

* :class:`SetAssociativeLRUCache` — the reference simulator: any associativity,
  true LRU replacement, one Python-level update per access (and a per-access
  ``access`` taking one byte address).  Kept as the oracle the vectorised
  simulators are validated against (and selectable via ``vectorized=False``
  for cross-checks and ablations).
* :class:`TwoWayLRUCache` — associativity 2 (the Opteron's L1 geometry),
  fully vectorised: within one set, after collapsing consecutive duplicate
  lines, an LRU pair contains exactly the two most recently used distinct
  lines, so an access hits iff it equals the previous or the
  previous-previous distinct line of its set.
* :class:`NWayLRUCache` — any other associativity ``A`` (the 16-way L2, the
  associativity ablation and direct-mapped levels), vectorised as a
  reuse-gap classifier: within one set, an access hits iff fewer than ``A``
  distinct lines occurred since its previous occurrence.  One stable sort
  of the set-grouped trace by tag gives every access's previous
  occurrence; a gap of at most ``A`` is a certain hit, a sliding window
  maximum proves most longer gaps to be misses, and the few left are
  counted exactly (see DESIGN.md §5).  No per-access Python loop.

All simulators implement the same small interface (``simulate``, ``reset``,
``stats``) so the memory hierarchy can mix them freely, and all
``simulate`` paths support warm continuation: state carries exactly across
successive calls, which is what lets the hierarchy stream a trace in bounded
chunks while producing bit-identical miss counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.util.validation import check_power_of_two

__all__ = [
    "CacheConfig",
    "CacheStatistics",
    "CacheSimulator",
    "SetAssociativeLRUCache",
    "TwoWayLRUCache",
    "NWayLRUCache",
    "make_cache",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``size_bytes`` and ``line_size`` must be powers of two and the
    associativity must divide the number of lines (also a power of two), so
    that set indexing is a simple bit-field extraction, as on real hardware.
    """

    size_bytes: int
    line_size: int = 64
    associativity: int = 1
    name: str = "cache"

    def __post_init__(self) -> None:
        check_power_of_two(self.size_bytes, "size_bytes")
        check_power_of_two(self.line_size, "line_size")
        check_power_of_two(self.associativity, "associativity")
        if self.line_size > self.size_bytes:
            raise ValueError("line_size cannot exceed size_bytes")
        if self.associativity > self.num_lines:
            raise ValueError(
                f"associativity {self.associativity} exceeds the number of lines "
                f"{self.num_lines}"
            )

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return self.num_lines // self.associativity

    @property
    def offset_bits(self) -> int:
        """Number of byte-offset bits within a line."""
        return int(self.line_size).bit_length() - 1

    @property
    def index_bits(self) -> int:
        """Number of set-index bits."""
        return int(self.num_sets).bit_length() - 1

    def line_of(self, address: int | np.ndarray) -> int | np.ndarray:
        """Line number(s) of byte address(es)."""
        return address >> self.offset_bits

    def set_of(self, address: int | np.ndarray) -> int | np.ndarray:
        """Set index(es) of byte address(es)."""
        return (address >> self.offset_bits) & (self.num_sets - 1)

    def tag_of(self, address: int | np.ndarray) -> int | np.ndarray:
        """Tag(s) of byte address(es)."""
        return (address >> self.offset_bits) >> self.index_bits

    def describe(self) -> str:
        """Human readable geometry summary."""
        return (
            f"{self.name}: {self.size_bytes} B, {self.line_size} B lines, "
            f"{self.associativity}-way, {self.num_sets} sets"
        )


@dataclass
class CacheStatistics:
    """Hit/miss accounting for one cache level."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        """Number of accesses that hit."""
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses divided by accesses (0.0 for an untouched cache)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def record(self, accesses: int, misses: int) -> None:
        """Accumulate a batch of accesses."""
        if misses > accesses:
            raise ValueError(f"misses ({misses}) cannot exceed accesses ({accesses})")
        self.accesses += int(accesses)
        self.misses += int(misses)


class CacheSimulator(Protocol):
    """Common interface of all cache simulators."""

    config: CacheConfig
    stats: CacheStatistics

    def simulate(self, lines: np.ndarray, check: bool = True) -> np.ndarray:
        """Process a trace of line numbers (``config.line_of(addresses)``,
        never byte addresses); return a boolean miss mask.

        ``check=False`` skips the range scan for callers that have already
        validated the int32 lines at the pipeline boundary.
        """

    def reset(self) -> None:
        """Invalidate all contents and zero the statistics."""


#: Line numbers are int32 from trace expansion to the classifiers, so every
#: line space (a plan's, a spliced batch's, in either level's lines) stays
#: below this bound (DESIGN.md §5).
LINE_LIMIT = 1 << 31


def _as_lines(lines: np.ndarray, check: bool = True) -> np.ndarray:
    """``lines`` as a 1-D int32 array; ``check`` rejects values outside
    ``[0, LINE_LIMIT)`` (negative values would collide with the invalid-slot
    sentinels, larger ones with int32)."""
    arr = np.asarray(lines)
    if arr.ndim != 1:
        raise ValueError(f"lines must form a 1-D array, got shape {arr.shape}")
    if check and arr.size and (
        arr.min() < 0 or (arr.dtype != np.int32 and arr.max() >= LINE_LIMIT)
    ):
        raise ValueError(f"line numbers must lie in [0, {LINE_LIMIT})")
    return arr.astype(np.int32, copy=False)


def _group_order(key: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of ``key`` (all in ``[0, bound)``).

    Sorts one packed word per element, ``key << pos_bits | position``,
    uint32 when key and position fit 32 bits and int64 otherwise.  The
    words are distinct, so any sort orders them as a stable argsort orders
    the keys, and NumPy's unstable sort of 32-bit words is vectorised: about
    twice as fast as a stable radix argsort of a uint8 key.
    """
    pos_bits = max(key.shape[0] - 1, 0).bit_length()
    wide = (bound - 1).bit_length() + pos_bits > 32
    words = key.astype(np.int64 if wide else np.uint32)
    words <<= pos_bits
    words |= np.arange(key.shape[0], dtype=words.dtype)
    words.sort()
    words &= (1 << pos_bits) - 1
    return words.astype(np.intp, copy=False)


#: Fewest lines a vectorised simulator classifies per pass (DESIGN.md §5).
PIECE_LINES = 1 << 15


class _VectorisedSimulator:
    """``simulate`` of the vectorised simulators: validate once, classify
    the trace in pieces, record the statistics.

    Warm continuation makes the pieces exact.  A piece of ``PIECE_LINES``
    lines, or 16 times the cache's lines when that is more (so the
    warm-state replay stays small beside it), keeps every working array
    cache-sized: a 2^18-line pass runs about half as fast per line.

    Both classifiers group the trace by set with a stable sort and keep
    whole *line numbers*, not split (set, tag) pairs, in their state: within
    one set group, line equality is tag equality, so the tag extraction
    pass and one large gather disappear.
    """

    config: CacheConfig
    stats: CacheStatistics

    def simulate(self, lines: np.ndarray, check: bool = True) -> np.ndarray:
        lines = _as_lines(lines, check=check)
        piece = max(PIECE_LINES, 16 * self.config.num_lines)
        misses = np.empty(lines.shape[0], dtype=bool)
        for start in range(0, lines.shape[0], piece):
            misses[start : start + piece] = self._classify(lines[start : start + piece])
        self.stats.record(lines.shape[0], np.count_nonzero(misses))
        return misses


class SetAssociativeLRUCache:
    """Reference simulator: arbitrary associativity, true LRU replacement."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStatistics()
        # Per-set list of tags, most recently used first.
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]

    def reset(self) -> None:
        self.stats = CacheStatistics()
        self._sets = [[] for _ in range(self.config.num_sets)]

    def access(self, address: int) -> bool:
        config = self.config
        line = int(address) >> config.offset_bits
        index = line & (config.num_sets - 1)
        tag = line >> config.index_bits
        ways = self._sets[index]
        miss = tag not in ways
        if miss:
            ways.insert(0, tag)
            if len(ways) > config.associativity:
                ways.pop()
        else:
            ways.remove(tag)
            ways.insert(0, tag)
        self.stats.record(1, int(miss))
        return miss

    def simulate(self, lines: np.ndarray, check: bool = True) -> np.ndarray:
        arr = _as_lines(lines, check=check)
        config = self.config
        index_mask = config.num_sets - 1
        index_bits = config.index_bits
        associativity = config.associativity
        sets = self._sets
        out = np.empty(arr.shape[0], dtype=bool)
        for i, line in enumerate(arr.tolist()):
            index = line & index_mask
            tag = line >> index_bits
            ways = sets[index]
            miss = tag not in ways
            if miss:
                ways.insert(0, tag)
                if len(ways) > associativity:
                    ways.pop()
            else:
                ways.remove(tag)
                ways.insert(0, tag)
            out[i] = miss
        self.stats.record(arr.shape[0], np.count_nonzero(out))
        return out


class TwoWayLRUCache(_VectorisedSimulator):
    """2-way set-associative LRU cache with a vectorised trace simulation.

    Within one set, an LRU pair always holds the two most recently used
    *distinct* lines.  After collapsing runs of consecutive identical lines
    (all but the first of a run are trivially hits), an access therefore hits
    iff its line equals either of the two previous distinct lines of the same
    set.  Both conditions are expressible with shifted comparisons on the
    set-grouped trace.
    """

    def __init__(self, config: CacheConfig):
        if config.associativity != 2:
            raise ValueError(
                f"TwoWayLRUCache requires associativity 2, got {config.associativity}"
            )
        self.config = config
        self.stats = CacheStatistics()
        # Most recently used and second most recently used line per set
        # (-1/-2 invalid).
        self._mru = np.full(config.num_sets, -1, dtype=np.int32)
        self._lru = np.full(config.num_sets, -2, dtype=np.int32)

    def reset(self) -> None:
        self.stats = CacheStatistics()
        self._mru.fill(-1)
        self._lru.fill(-2)

    def _classify(self, lines: np.ndarray) -> np.ndarray:
        num_sets = self.config.num_sets

        # Prepend two virtual accesses per set currently holding valid state so
        # that warm-start behaviour matches the per-access simulator: first the
        # LRU way, then the MRU way (so the MRU ends up most recent).  A cold
        # simulator skips the concatenation entirely and sorts views.
        valid = self._mru >= 0
        if np.any(valid):
            valid_sets = np.flatnonzero(valid)
            lru_lines = self._lru[valid_sets]
            mru_lines = self._mru[valid_sets]
            has_lru = lru_lines >= 0
            virtual_lines = np.concatenate([lru_lines[has_lru], mru_lines])
            n_virtual = virtual_lines.shape[0]
            all_lines = np.concatenate([virtual_lines, lines])
        else:
            n_virtual = 0
            all_lines = lines
        order = _group_order(all_lines & (num_sets - 1), num_sets)
        g_lines = all_lines[order]
        total = g_lines.shape[0]

        # Collapse consecutive duplicates (equal lines share a set, hence a
        # group): they are hits and do not change LRU state.
        distinct = np.empty(total, dtype=bool)
        distinct[0] = True
        np.not_equal(g_lines[1:], g_lines[:-1], out=distinct[1:])
        distinct_idx = np.flatnonzero(distinct)
        d_lines = g_lines[distinct_idx]
        m = distinct_idx.shape[0]

        # A distinct entry hits iff it equals the distinct line two back.
        # Equal lines share a set, so that entry and the one between lie in
        # the entry's own group; the first two entries of a group have no
        # such predecessor (their state is covered by the virtual accesses).
        d_hits = np.zeros(m, dtype=bool)
        np.equal(d_lines[2:], d_lines[:-2], out=d_hits[2:])

        # Scatter distinct-position misses back in one pass; duplicates are
        # hits.
        misses_all = np.zeros(total, dtype=bool)
        misses_all[order[distinct_idx]] = ~d_hits
        misses = misses_all[n_virtual:]

        # Update per-set state: the last two distinct lines of each group.
        d_keys = d_lines & (num_sets - 1)
        last_idx = np.flatnonzero(np.append(d_keys[1:] != d_keys[:-1], True))
        self._mru[d_keys[last_idx]] = d_lines[last_idx]
        usable = last_idx[last_idx > 0]
        usable = usable[d_keys[usable - 1] == d_keys[usable]]
        self._lru[d_keys[usable]] = d_lines[usable - 1]
        return misses


class NWayLRUCache(_VectorisedSimulator):
    """Arbitrary-associativity LRU cache with a vectorised trace simulation.

    ``simulate`` is an exact reuse-gap classifier on the set-grouped trace
    with runs of consecutive identical lines removed (those are hits).  In
    that sequence an access at ``t`` whose line last occurred at ``p`` hits
    iff fewer than ``A`` distinct lines occurred strictly between them (the
    stack-distance criterion), and a line ``q`` in ``(p, t)`` is new to the
    window iff its own previous occurrence ``prev[q]`` precedes ``p``:

    * a first occurrence misses; a gap ``t - p <= A`` hits;
    * a longer gap misses when every slot of ``(p, p + A]`` is new to the
      window, which one sliding maximum of ``prev`` decides for all accesses;
    * the rest (a few percent on WHT traces) count new slots ``A`` at a time
      until ``A`` are found or ``t`` is reached.

    Warm continuation across ``simulate`` calls is exact: the per-set LRU
    stack state is replayed as virtual leading accesses (LRU way first), and
    the new state is each set's ``A`` most recent last occurrences.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStatistics()
        # Per-set LRU stack of lines, most recently used first, -1 invalid.
        self._stack = np.full(
            (config.num_sets, config.associativity), -1, dtype=np.int32
        )

    def reset(self) -> None:
        self.stats = CacheStatistics()
        self._stack.fill(-1)

    def _classify(self, lines: np.ndarray) -> np.ndarray:
        config = self.config
        num_sets = config.num_sets
        associativity = config.associativity

        # Replay warm state as virtual leading accesses: LRU way first, so
        # the MRU way ends up most recent.  A set the piece does not touch
        # gets its stack back unchanged, and a full piece holds 16 times the
        # cache's lines or more, so replaying every set costs little.
        reversed_stacks = self._stack[:, ::-1]
        virtual_lines = reversed_stacks[reversed_stacks >= 0]
        n_virtual = virtual_lines.shape[0]
        all_lines = np.concatenate([virtual_lines, lines]) if n_virtual else lines
        order = _group_order(all_lines & (num_sets - 1), num_sets)
        g_lines = all_lines[order]

        # Run repeats (consecutive duplicates, necessarily of one set) are
        # hits that leave the LRU stack unchanged; classify the rest.
        repeat = g_lines[1:] == g_lines[:-1]
        if repeat.any():
            distinct = np.flatnonzero(np.concatenate([[True], ~repeat]))
            d_lines = g_lines[distinct]
            order = order[distinct]
        else:
            d_lines = g_lines
        m = d_lines.shape[0]
        # Positions, gaps and walk cursors all stay below m + 2A.
        index = np.int32 if m + 2 * associativity < (1 << 31) else np.int64

        # prev[t]: the previous occurrence of t's line (-1 for none).  One
        # stable sort lists every line's occurrences in order; it keys on
        # the tag, because the sequence is set-grouped: a stable sort by tag
        # orders it by (tag, set, time), which is (line, time).
        tags = d_lines >> config.index_bits
        low = int(tags.min())
        by_line = _group_order(tags - low, int(tags.max()) - low + 1)
        sorted_lines = d_lines[by_line]
        same = sorted_lines[1:] == sorted_lines[:-1]
        prev = np.empty(m, dtype=index)
        prev[by_line[0]] = -1
        prev[by_line[1:]] = np.where(same, by_line[:-1].astype(index), -1)

        # Stack distance: t hits iff fewer than A distinct lines occurred
        # since p = prev[t].  A first occurrence misses; a gap t - p <= A
        # holds at most A - 1 other lines and hits.
        miss = prev < 0
        far = np.flatnonzero((np.arange(m, dtype=index) - prev > associativity) & ~miss)
        far_prev = prev[far]
        # A far access is a certain miss when none of the A slots after p
        # repeats a line seen since p (prev[q] < p for all of them): those
        # are A distinct lines.  window[i] = max(prev[i + 1 : i + 1 + A]).
        window = prev[1:]
        width = 1
        while width < associativity:
            window = np.maximum(window[:-width], window[width:])
            width *= 2
        repeated = np.take(window, far_prev) > far_prev
        miss[far[~repeated]] = True
        # The residue: count the distinct lines exactly, A slots at a time,
        # until A are found (a miss) or the access is reached (a hit).
        # Slots past t read prev[t] = p, which never counts.  One 1-D gather
        # per slot keeps the temporaries cache-sized.
        todo = far[repeated]
        todo_prev = far_prev[repeated]
        count = np.zeros(todo.shape[0], dtype=np.int32)
        start = todo_prev.astype(np.intp) + 1
        while todo.shape[0]:
            for slot in range(associativity):
                count += prev[np.minimum(start + slot, todo)] < todo_prev
            start += associativity
            full = count >= associativity
            miss[todo[full]] = True
            live = ~full & (start < todo)
            todo, todo_prev = todo[live], todo_prev[live]
            count, start = count[live], start[live]

        misses_all = np.zeros(all_lines.shape[0], dtype=bool)
        misses_all[order] = miss
        misses = misses_all[n_virtual:]

        # Warm state: each set's A most recent last occurrences, MRU first.
        # A line's last occurrence ends its run in the line sort; its rank
        # is the number of later last occurrences in the same set.
        is_last = np.zeros(m, dtype=bool)
        is_last[by_line[np.append(~same, True)]] = True
        last_lines = d_lines[is_last]
        last_sets = last_lines & (num_sets - 1)
        ends = np.flatnonzero(np.append(last_sets[1:] != last_sets[:-1], True))
        rank = np.repeat(ends, np.diff(ends, prepend=-1)) - np.arange(last_lines.shape[0])
        keep = rank < associativity
        self._stack.fill(-1)
        self._stack[last_sets[keep], rank[keep]] = last_lines[keep]
        return misses


def make_cache(config: CacheConfig, vectorized: bool = True) -> CacheSimulator:
    """Build the fastest exact simulator available for ``config``:
    :class:`TwoWayLRUCache` at associativity 2, :class:`NWayLRUCache` at
    any other (its reuse-gap rule is exact for direct-mapped levels too).

    With ``vectorized=False`` the reference LRU simulator is always returned
    (useful for cross-checking and the associativity ablation).
    """
    if not vectorized:
        return SetAssociativeLRUCache(config)
    if config.associativity == 2:
        return TwoWayLRUCache(config)
    return NWayLRUCache(config)

