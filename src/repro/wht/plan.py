"""Split-tree representation of WHT algorithms.

Every algorithm in the family studied by the paper is a *plan*: a rooted tree
whose nodes are labelled with size exponents.  A leaf (``Small``) of exponent
``k`` denotes an unrolled straight-line codelet computing ``WHT_{2^k}``.  An
internal node (``Split``) of exponent ``n`` with children of exponents
``n_1, ..., n_t`` (``t >= 2``, ``sum n_i = n``) denotes one application of the
factorisation

    WHT_{2^n} = prod_{i=1}^{t} ( I_{2^{n_1+...+n_{i-1}}}
                                 (x) WHT_{2^{n_i}}
                                 (x) I_{2^{n_{i+1}+...+n_t}} )

evaluated with the paper's triple-loop schedule (Section 2).

Plans are immutable, hashable value objects so they can be used as dictionary
keys by the dynamic-programming search and deduplicated in samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.util.validation import check_positive_int

__all__ = [
    "MAX_UNROLLED",
    "Plan",
    "Small",
    "Split",
    "plan_from_compositions",
    "validate_plan",
]

#: Largest exponent for which an unrolled base-case codelet exists.  The WHT
#: package ships unrolled code for sizes 2^1 .. 2^8; we generate the same set.
MAX_UNROLLED = 8


class Plan:
    """Abstract base class for WHT plans (split trees).

    Concrete subclasses are :class:`Small` (leaf / unrolled codelet) and
    :class:`Split` (internal node).  The class provides the structural
    queries shared by both and used throughout the models and the machine
    simulator.
    """

    #: Size exponent ``n`` (the plan computes ``WHT_{2^n}``).
    n: int

    # -- basic structure ---------------------------------------------------

    @property
    def size(self) -> int:
        """Transform length ``N = 2^n``."""
        return 1 << self.n

    @property
    def is_leaf(self) -> bool:
        """True for :class:`Small` nodes."""
        return isinstance(self, Small)

    @property
    def children(self) -> tuple["Plan", ...]:
        """Child plans (empty for leaves)."""
        return ()

    @property
    def composition(self) -> tuple[int, ...]:
        """The exponent composition applied at this node.

        For a leaf the composition is the one-part composition ``(n,)``; for a
        split node it is the tuple of child exponents.
        """
        if self.is_leaf:
            return (self.n,)
        return tuple(child.n for child in self.children)

    # -- tree metrics --------------------------------------------------------

    def leaves(self) -> list["Small"]:
        """All leaves in left-to-right order."""
        out: list[Small] = []
        self._collect_leaves(out)
        return out

    def _collect_leaves(self, out: list["Small"]) -> None:
        raise NotImplementedError

    def leaf_exponents(self) -> list[int]:
        """Exponents of all leaves, left to right."""
        return [leaf.n for leaf in self.leaves()]

    def num_leaves(self) -> int:
        """Number of leaves (base-case codelets) in the plan."""
        return len(self.leaves())

    def num_nodes(self) -> int:
        """Total node count (leaves plus internal nodes)."""
        return 1 + sum(child.num_nodes() for child in self.children)

    def depth(self) -> int:
        """Height of the tree; a leaf has depth 0."""
        if self.is_leaf:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def walk(self) -> Iterator["Plan"]:
        """Pre-order traversal of every node."""
        yield self
        for child in self.children:
            yield from child.walk()

    def splits(self) -> Iterator["Split"]:
        """Pre-order traversal of the internal (split) nodes only."""
        for node in self.walk():
            if isinstance(node, Split):
                yield node

    # -- transformation ------------------------------------------------------

    def map_leaves(self, fn: Callable[["Small"], "Plan"]) -> "Plan":
        """Return a new plan with every leaf replaced by ``fn(leaf)``.

        The replacement must preserve the leaf's exponent; this is validated.
        """
        if isinstance(self, Small):
            replacement = fn(self)
            if replacement.n != self.n:
                raise ValueError(
                    f"leaf replacement changed exponent {self.n} -> {replacement.n}"
                )
            return replacement
        assert isinstance(self, Split)
        return Split(tuple(child.map_leaves(fn) for child in self.children))

    def mirrored(self) -> "Plan":
        """The plan with every split's children reversed (left/right mirror)."""
        if isinstance(self, Small):
            return self
        assert isinstance(self, Split)
        return Split(tuple(child.mirrored() for child in reversed(self.children)))

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serialisable structural description."""
        raise NotImplementedError

    @staticmethod
    def from_dict(data: dict) -> "Plan":
        """Inverse of :meth:`to_dict`."""
        kind = data.get("kind")
        if kind == "small":
            return Small(int(data["n"]))
        if kind == "split":
            children = tuple(Plan.from_dict(c) for c in data["children"])
            return Split(children)
        raise ValueError(f"unknown plan node kind: {kind!r}")

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - delegated
        from repro.wht.grammar import plan_to_string

        return plan_to_string(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self!s})"


@dataclass(frozen=True, repr=False)
class Small(Plan):
    """A leaf: an unrolled straight-line codelet computing ``WHT_{2^n}``.

    The WHT package only unrolls codelets up to ``2^MAX_UNROLLED``; creating a
    larger leaf raises ``ValueError`` because such an algorithm does not exist
    in the family studied by the paper.
    """

    n: int

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        if self.n > MAX_UNROLLED:
            raise ValueError(
                f"unrolled codelets exist only up to 2^{MAX_UNROLLED}; got 2^{self.n}"
            )

    def _collect_leaves(self, out: list["Small"]) -> None:
        out.append(self)

    def to_dict(self) -> dict:
        return {"kind": "small", "n": self.n}


@dataclass(frozen=True, init=False, repr=False)
class Split(Plan):
    """An internal node: one application of the WHT factorisation.

    ``children`` is the ordered tuple of sub-plans; the node's exponent is the
    sum of its children's exponents.  A split must have at least two children
    (a single child would be the identity factorisation, which the WHT package
    does not generate).
    """

    n: int
    _children: tuple[Plan, ...]

    def __init__(self, children: Sequence[Plan]):
        children_t = tuple(children)
        if len(children_t) < 2:
            raise ValueError(
                f"a split node needs at least two children, got {len(children_t)}"
            )
        for child in children_t:
            if not isinstance(child, Plan):
                raise TypeError(f"child {child!r} is not a Plan")
        object.__setattr__(self, "_children", children_t)
        object.__setattr__(self, "n", sum(child.n for child in children_t))

    @property
    def children(self) -> tuple[Plan, ...]:
        return self._children

    def __hash__(self) -> int:
        # The generated hash of the same fields, computed once per node:
        # plan-keyed caches hash the same trees many times, and the
        # generated one walks the whole subtree on every call.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.n, self._children))
            object.__setattr__(self, "_hash", cached)
        return cached

    def _collect_leaves(self, out: list[Small]) -> None:
        for child in self._children:
            child._collect_leaves(out)

    def to_dict(self) -> dict:
        return {
            "kind": "split",
            "n": self.n,
            "children": [child.to_dict() for child in self._children],
        }


def _split_unchecked(children: tuple[Plan, ...], n: int) -> Split:
    """Internal trusted :class:`Split` constructor (no validation).

    Callers guarantee ``children`` is a tuple of at least two plans whose
    exponents sum to ``n``.  Exists for hot loops (the batched RSU sampler
    builds tens of thousands of nodes per call) where the public
    constructor's per-child validation dominates.
    """
    node = Split.__new__(Split)
    object.__setattr__(node, "_children", children)
    object.__setattr__(node, "n", n)
    return node


def plan_from_compositions(
    n: int,
    chooser: Callable[[int], Sequence[int] | None],
) -> Plan:
    """Build a plan top-down by repeatedly asking ``chooser`` for a composition.

    ``chooser(m)`` must return either ``None`` (meaning: make a leaf of
    exponent ``m``; only legal for ``m <= MAX_UNROLLED``) or a composition of
    ``m`` with at least two parts.  This is the common skeleton behind the
    canonical plan constructors and the RSU sampler.
    """
    check_positive_int(n, "n")
    choice = chooser(n)
    if choice is None:
        return Small(n)
    parts = tuple(int(p) for p in choice)
    if sum(parts) != n:
        raise ValueError(f"composition {parts} does not sum to {n}")
    if len(parts) < 2:
        raise ValueError(f"composition of a split must have >= 2 parts, got {parts}")
    return Split(tuple(plan_from_compositions(p, chooser) for p in parts))


def validate_plan(plan: Plan) -> None:
    """Raise ``ValueError`` if ``plan`` violates any structural invariant.

    Checks performed:

    * every split exponent equals the sum of its children's exponents,
    * every leaf exponent is within the unrolled-codelet range,
    * every split has at least two children.

    Plans built through the public constructors always satisfy these; the
    function exists for plans deserialised from external descriptions.
    """
    for node in plan.walk():
        if isinstance(node, Small):
            if not 1 <= node.n <= MAX_UNROLLED:
                raise ValueError(f"leaf exponent {node.n} outside [1, {MAX_UNROLLED}]")
        elif isinstance(node, Split):
            if len(node.children) < 2:
                raise ValueError("split node with fewer than two children")
            if node.n != sum(child.n for child in node.children):
                raise ValueError(
                    f"split exponent {node.n} != sum of child exponents "
                    f"{[c.n for c in node.children]}"
                )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown node type {type(node).__name__}")
