"""Random plan generation: the recursive split uniform (RSU) distribution.

The paper's samples (Figures 4–11) are drawn from the *recursive split
uniform* distribution of Hitczenko–Johnson–Huang: starting from the root
exponent ``n``, every admissible composition ``n = n_1 + ... + n_t`` is chosen
with equal probability (including the trivial one-part composition when a
codelet of that size exists, which terminates the recursion), and the process
recurses independently into each part.

Two refinements used by the WHT package are supported:

* ``max_leaf`` — exponents above this cannot terminate (no unrolled codelet),
* ``max_children`` — optional bound on the number of parts per split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.compositions import compositions
from repro.util.rng import RandomState, as_generator
from repro.util.validation import check_positive_int
from repro.wht.plan import MAX_UNROLLED, Plan, Small, Split

__all__ = ["RSUSampler", "random_plan", "random_plans"]


@dataclass
class RSUSampler:
    """Sampler for the recursive split uniform distribution over plans.

    Parameters
    ----------
    max_leaf:
        Largest exponent allowed for a leaf (default: the package's largest
        unrolled codelet).
    max_children:
        Optional bound on the number of children per split node; ``None``
        reproduces the paper's unrestricted distribution.
    allow_trivial_leaf:
        When true (default), an exponent ``m <= max_leaf`` may terminate as a
        leaf with the same probability as any proper composition of ``m`` —
        this matches the distribution of [5], where the one-part composition
        is one of the equally likely choices.
    """

    max_leaf: int = MAX_UNROLLED
    max_children: int | None = None
    allow_trivial_leaf: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.max_leaf, "max_leaf")
        if self.max_leaf > MAX_UNROLLED:
            raise ValueError(
                f"max_leaf must be at most {MAX_UNROLLED}, got {self.max_leaf}"
            )
        if self.max_children is not None:
            check_positive_int(self.max_children, "max_children")
            if self.max_children < 2:
                raise ValueError("max_children must be at least 2")
        # Cache of enumerated choice lists per exponent (only needed on the
        # slow path, i.e. when max_children restricts the compositions).
        self._choice_cache: dict[int, list[tuple[int, ...]]] = {}

    # -- choice enumeration ----------------------------------------------------

    def choices(self, m: int) -> list[tuple[int, ...]]:
        """All equally likely composition choices for exponent ``m``.

        A one-part composition ``(m,)`` denotes "stop and emit a leaf"; it is
        present only when a codelet of that size exists and
        ``allow_trivial_leaf`` is set (or when no proper composition exists).
        """
        check_positive_int(m, "m")
        cached = self._choice_cache.get(m)
        if cached is not None:
            return cached
        options: list[tuple[int, ...]] = []
        for comp in compositions(m, min_parts=2):
            if self.max_children is not None and len(comp) > self.max_children:
                continue
            options.append(comp)
        can_leaf = m <= self.max_leaf
        if can_leaf and (self.allow_trivial_leaf or not options):
            options.insert(0, (m,))
        if not options:
            raise ValueError(
                f"exponent {m} admits neither a leaf (max_leaf={self.max_leaf}) "
                f"nor a split under max_children={self.max_children}"
            )
        self._choice_cache[m] = options
        return options

    # -- sampling ---------------------------------------------------------------

    def sample(self, n: int, rng: RandomState = None) -> Plan:
        """Draw one plan of size ``2^n`` from the RSU distribution."""
        check_positive_int(n, "n")
        generator = as_generator(rng)
        return self._sample_exponent(n, generator)

    def sample_many(self, n: int, count: int, rng: RandomState = None) -> list[Plan]:
        """Draw ``count`` independent plans of size ``2^n``.

        Only the unrestricted distribution (``max_children=None``) is
        buffered: it pulls the gap bits of *every* draw from the generator in
        large chunks and runs the recursive parse over the buffered bit
        stream, which removes the per-node ``Generator.random`` call that
        dominates one-at-a-time sampling (10,000 samples at ``n=18`` drop from
        ~0.6 s to well under 0.1 s).  The stream is consumed in exactly the
        scalar order, so the returned plans are **bit-identical** to
        ``[self.sample(n, rng) for _ in range(count)]`` for the same seed;
        only the generator's final position may differ (the buffer may
        over-draw), so interleave ``sample_many`` with other uses of a shared
        generator only if you do not rely on that position.  A restricted
        draw (``max_children=...``) runs that scalar loop.
        """
        check_positive_int(count, "count")
        check_positive_int(n, "n")
        generator = as_generator(rng)
        if self.max_children is not None:
            return [self._sample_exponent(n, generator) for _ in range(count)]
        return self._sample_many_buffered(n, count, generator)

    def _sample_many_buffered(
        self, n: int, count: int, generator: np.random.Generator
    ) -> list[Plan]:
        """Batched unrestricted sampling over a buffered gap-bit stream.

        ``Generator.random(k)`` consumes exactly ``k`` doubles off the bit
        stream, so drawing one large chunk and slicing it is the same double
        sequence as the scalar path's many ``random(m - 1)`` calls; each node
        reads the same ``m - 1`` gap bits it would have drawn itself.  The
        parse mirrors :meth:`_draw_composition` exactly, including the
        redraw loop for exponents that may not terminate as a leaf.
        """
        from repro.wht.plan import _split_unchecked

        max_leaf = self.max_leaf
        trivial = self.allow_trivial_leaf
        smalls = {m: Small(m) for m in range(1, max_leaf + 1)}
        small_1 = smalls[1]
        small_2 = smalls.get(2)
        leaf_2_ok = trivial and small_2 is not None
        # Plans are immutable value objects compared structurally, so the
        # ubiquitous 2-point split may be shared across samples.
        split_11 = _split_unchecked((small_1, small_1), 2)
        # The buffered stream keeps the gap bits as a uint8 array plus the
        # sorted positions of the *set* bits; the parse walks those
        # positions with a monotone pointer, so extracting a composition is
        # O(parts) rather than O(bits).
        chunk = max(4096, count * max(n, 2))  # ~2x the expected total demand
        buf = np.empty(0, dtype=np.uint8)
        pos = 0
        end = 0
        gaps: list[int] = []
        glen = 0
        gi = 0

        def refill(need: int) -> None:
            nonlocal buf, pos, end, gaps, glen, gi
            drawn = (generator.random(max(chunk, need)) < 0.5).view(np.uint8)
            buf = np.concatenate([buf[pos:end], drawn])
            pos = 0
            end = buf.shape[0]
            gaps = np.flatnonzero(buf).tolist()
            glen = len(gaps)
            gi = 0

        def parse_2() -> Plan:
            # One gap bit: split into (1, 1) or terminate as a leaf
            # (redrawing while the leaf is not admissible).
            nonlocal pos, gi
            while True:
                if end == pos:
                    refill(1)
                here = pos
                pos = here + 1
                if gi < glen and gaps[gi] == here:
                    gi += 1
                    return split_11
                if leaf_2_ok:
                    return small_2

        def parse(m: int) -> Plan:
            # Exponents 1 and 2 are handled inline by the caller; ``m >= 3``.
            nonlocal pos, gi
            leaf_ok = trivial and m <= max_leaf
            k = m - 1
            while True:
                if end - pos < k:
                    refill(k)
                # Gap positions inside the window -> composition parts
                # (run lengths between gaps).
                prev = pos
                stop = pos + k
                pos = stop
                if gi >= glen or gaps[gi] >= stop:
                    if leaf_ok:
                        return smalls[m]
                    continue  # no leaf admissible: redraw, like the scalar loop
                here = gaps[gi]
                gi += 1
                parts = [here - prev + 1]
                append = parts.append
                prev = here + 1
                while gi < glen:
                    here = gaps[gi]
                    if here >= stop:
                        break
                    gi += 1
                    append(here - prev + 1)
                    prev = here + 1
                append(stop - prev + 1)
                # Children in part order; 1- and 2-exponent children (the
                # bulk of every RSU composition) are built without the
                # recursive call.
                children = []
                add = children.append
                for part in parts:
                    if part == 1:
                        add(small_1)
                    elif part == 2:
                        add(parse_2())
                    else:
                        add(parse(part))
                return _split_unchecked(tuple(children), m)

        if n == 1:
            return [small_1] * count
        if n == 2:
            return [parse_2() for _ in range(count)]
        return [parse(n) for _ in range(count)]

    def _sample_exponent(self, m: int, rng: np.random.Generator) -> Plan:
        chosen = self._draw_composition(m, rng)
        if len(chosen) == 1:
            return Small(m)
        return Split(tuple(self._sample_exponent(part, rng) for part in chosen))

    def _draw_composition(self, m: int, rng: np.random.Generator) -> tuple[int, ...]:
        """Draw one of the equally likely composition choices for exponent ``m``.

        Without a ``max_children`` restriction the draw uses the bijection
        between compositions of ``m`` and subsets of the ``m - 1`` gaps, which
        is O(m) per draw; the one-part composition (= the empty gap subset) is
        redrawn when it is not an admissible choice.  With ``max_children``
        the explicit (cached) enumeration of admissible choices is used.
        """
        if self.max_children is not None:
            options = self.choices(m)
            return options[int(rng.integers(0, len(options)))]
        leaf_allowed = m <= self.max_leaf and self.allow_trivial_leaf
        if m == 1:
            return (1,)
        while True:
            gaps = rng.random(m - 1) < 0.5
            parts: list[int] = []
            run = 1
            for gap in gaps:
                if gap:
                    parts.append(run)
                    run = 1
                else:
                    run += 1
            parts.append(run)
            if len(parts) == 1 and not leaf_allowed:
                continue
            return tuple(parts)


def random_plan(
    n: int,
    rng: RandomState = None,
    max_leaf: int = MAX_UNROLLED,
    max_children: int | None = None,
) -> Plan:
    """Convenience wrapper: one RSU sample of size ``2^n``."""
    return RSUSampler(max_leaf=max_leaf, max_children=max_children).sample(n, rng)


def random_plans(
    n: int,
    count: int,
    rng: RandomState = None,
    max_leaf: int = MAX_UNROLLED,
    max_children: int | None = None,
) -> list[Plan]:
    """Convenience wrapper: ``count`` RSU samples of size ``2^n``."""
    sampler = RSUSampler(max_leaf=max_leaf, max_children=max_children)
    return sampler.sample_many(n, count, rng)
