"""Set systems on small ground sets and their minor / duality algebra.

A set system is a finite ground set together with a family of feasible
subsets.  Subsets are stored as bitmasks over the ground-set order, the
family as a sorted tuple of masks, so equality and hashing are cheap and
every operation is a pure function returning a new value.

Scans over three-operation minors work on the family's indicator, the
2^n-bit integer v with bit F set iff F is feasible.  With M_i the
indicator of the subsets that avoid element i, removing i is one of
three GF(2)-linear maps:

    delete    v & M_i
    contract  (v >> 2^i) & M_i
    penrose   (v & M_i) ^ ((v >> 2^i) & M_i)

so a minor keeps the original positions of its surviving elements, a
zero indicator marks an unrealizable minor (and every minor below it),
and SetSystem.iter_three_minors walks all role assignments as one tree
whose subtrees share their common prefix.  three_minor is the closed form
the walk agrees with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence, Union

MAX_GROUND = 24
MAX_CANON = 7  # labelings reads n! image tables of 2^n entries each

SubsetLike = Union[int, Iterable[str]]


class UnrealizableMinorError(ValueError):
    """Raised when a requested minor has no witnessing feasible set."""


class ElementClass(Enum):
    LOOP = "Loop"
    COLOOP = "Coloop"
    PSEUDO_LOOP = "PseudoLoop"
    ORDINARY = "Ordinary"


class Op(Enum):
    """Single-element operations usable in apply_sequence."""

    DELETE = "del"
    CONTRACT = "con"
    PENROSE = "pen"
    TWIST = "*"
    LOOP_COMPLEMENT = "+"


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bits of mask as single-bit integers, low to high."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def indicator(masks: Iterable[int]) -> int:
    """The family as one integer: bit F is set iff F is among the masks."""
    v = 0
    for m in masks:
        v |= 1 << m
    return v


@lru_cache(maxsize=None)
def _walk_plan(n: int, sizes: frozenset[int] | None):
    """Per-element avoid masks M_i, and which (decided, removed) counts can
    still end at an allowed minor size (all sizes when None)."""
    avoid = tuple(indicator(f for f in range(1 << n) if not f >> i & 1) for i in range(n))
    removals = range(n + 1) if sizes is None else [n - s for s in sizes if 0 <= s <= n]
    viable = tuple(
        tuple(any(r <= t <= r + n - i for t in removals) for r in range(i + 1))
        for i in range(n + 1)
    )
    return avoid, viable, max(removals, default=-1)


@dataclass(frozen=True)
class LabeledBits:
    """Ordered, distinct labels; the label at position i is bit i.

    The base of SetSystem, SymmetricBinaryMatrix and LoopedSimpleGraph: it
    resolves labels to positions and bits, checks symmetric bitmask rows,
    and gathers the bits that survive a removal.  Each subclass checks
    that its labels are distinct when it is built, and names a label and
    the whole in messages through _noun and _where.
    """

    labels: tuple[str, ...]

    _noun = "label"
    _where = "labels"

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def _position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"{self._noun} {label!r} not in {self._where}") from None

    def element_bit(self, e: str) -> int:
        return 1 << self._position(e)

    def mask(self, subset: SubsetLike) -> int:
        """Normalize a subset argument (mask or label iterable) to a mask."""
        if isinstance(subset, int):
            if subset & ~self.full_mask:
                raise ValueError(f"mask has bits outside the {self._where}")
            return subset
        m = 0
        for lab in subset:
            m |= 1 << self._position(lab)
        return m

    def subset_labels(self, mask: int) -> tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def _check_symmetric(self, rows: Sequence[int]) -> int:
        """Distinct labels, and rows are the bitmask rows of a symmetric
        0/1 matrix on them; returns the mask of the diagonal ones."""
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError(f"{self._where} labels must be distinct")
        if len(rows) != n:
            raise ValueError(f"row count must match {self._noun} count")
        full = (1 << n) - 1
        diagonal = 0
        for i, r in enumerate(rows):
            if r & ~full:
                raise ValueError(f"row has bits outside the {self._where}")
            for j in range(i):
                if (r >> j & 1) != (rows[j] >> i & 1):
                    raise ValueError(f"{self._where} is not symmetric")
            diagonal |= r & 1 << i
        return diagonal

    def _gather(self, removed: int, masks: Iterable[int]) -> tuple[tuple[str, ...], list[int]]:
        """The labels outside removed, and each mask with the bits of
        removed cut out: the bits above a removed position shift down."""
        labels = []
        lows = []  # (1 << i) - 1 for each removed position i, high to low
        for i, lab in enumerate(self.labels):
            if removed >> i & 1:
                lows.insert(0, (1 << i) - 1)
            else:
                labels.append(lab)
        out = []
        for m in masks:
            for low in lows:
                m = m & low | m >> 1 & ~low
            out.append(m)
        return tuple(labels), out


@dataclass(frozen=True)
class SetSystem(LabeledBits):
    """Ground set plus feasible family.

    labels: the element names; feasible: strictly increasing tuple of
    subset masks.
    """

    feasible: tuple[int, ...]

    _noun = "element"
    _where = "ground set"

    def __post_init__(self):
        n = len(self.labels)
        if n > MAX_GROUND:
            raise ValueError(f"ground set larger than {MAX_GROUND} elements")
        if len(set(self.labels)) != n:
            raise ValueError("ground-set labels must be distinct")
        full = (1 << n) - 1
        prev = -1
        for m in self.feasible:
            if m <= prev:
                raise ValueError("feasible masks must be sorted and distinct")
            if m & ~full:
                raise ValueError("feasible mask outside the ground set")
            prev = m

    # ------------------------------------------------------------------
    # construction and basic accessors

    @classmethod
    def from_sets(cls, labels: Iterable[str], feasible: Iterable[Iterable[str]]) -> SetSystem:
        ground = cls(tuple(labels), ())
        return cls(ground.labels, tuple(sorted({ground.mask(fs) for fs in feasible})))

    @property
    def is_proper(self) -> bool:
        return bool(self.feasible)

    def feasible_sets(self) -> list[tuple[str, ...]]:
        return [self.subset_labels(m) for m in self.feasible]

    def __str__(self) -> str:
        fam = " ".join("{" + ",".join(fs) + "}" for fs in self.feasible_sets())
        return "({" + ",".join(self.labels) + "}; " + (fam or "<empty>") + ")"

    # ------------------------------------------------------------------
    # twisted duality

    def twist(self, subset: SubsetLike) -> SetSystem:
        """Symmetric-difference every feasible set with the given subset."""
        a = self.mask(subset)
        return SetSystem(self.labels, tuple(sorted(m ^ a for m in self.feasible)))

    def dual(self) -> SetSystem:
        return self.twist(self.full_mask)

    def loop_complement(self, subset: SubsetLike) -> SetSystem:
        """Loop complementation, folded one element at a time.

        Per element e, the family is replaced by its symmetric difference
        with {F + e : e not in F, F feasible}.  The element order does not
        matter: the result is the parity form, where F is feasible in S+A
        iff the number of feasible F' with F-A <= F' <= F is odd.
        """
        a = self.mask(subset)
        fam = set(self.feasible)
        for bit in iter_bits(a):
            fam ^= {m | bit for m in fam if not m & bit}
        return SetSystem(self.labels, tuple(sorted(fam)))

    # ------------------------------------------------------------------
    # element classification

    def classify_element(self, e: str) -> ElementClass:
        if not self.is_proper:
            raise ValueError("classification requires a proper system")
        bit = self.element_bit(e)
        if not any(m & bit for m in self.feasible):
            return ElementClass.LOOP
        if all(m & bit for m in self.feasible):
            return ElementClass.COLOOP
        # cheapest pseudo-loop test: the twist at e fixes the system
        if self.twist(bit) == self:
            return ElementClass.PSEUDO_LOOP
        return ElementClass.ORDINARY

    # ------------------------------------------------------------------
    # minor operations

    def _without(self, removed: int, masks: Iterable[int]) -> SetSystem:
        labels, kept = self._gather(removed, masks)
        return SetSystem(labels, tuple(sorted(set(kept))))

    def _remove(self, e: str, through: bool) -> SetSystem:
        """Remove e, keeping the feasible sets on the requested side of it
        (through e, or avoiding it); if none is, keep them all."""
        if not self.is_proper:
            raise ValueError("minor operations require a proper system")
        bit = self.element_bit(e)
        side = bit if through else 0
        kept = [m for m in self.feasible if m & bit == side]
        return self._without(bit, kept or self.feasible)

    def delete(self, e: str) -> SetSystem:
        """Remove e, keeping the feasible sets that avoid it, or all of
        them if none does: deleting a coloop contracts it."""
        return self._remove(e, through=False)

    def contract(self, e: str) -> SetSystem:
        """Remove e, keeping the feasible sets through it (e stripped), or
        all of them if none is: contracting a loop deletes it."""
        return self._remove(e, through=True)

    def penrose_contract(self, e: str) -> SetSystem:
        """Loop-complement at e, then contract e."""
        return self.loop_complement(self.element_bit(e)).contract(e)

    def three_minor(
        self,
        delete_subset: SubsetLike,
        contract_subset: SubsetLike,
        penrose_subset: SubsetLike,
    ) -> SetSystem:
        """Closed form of delete X / contract Y / penrose-contract Z.

        F survives iff F avoids X|Y|Z and the number of feasible sets in
        the interval [F+Y, F+Y+Z] is odd.  Requires such an F to exist;
        then any interleaving of the single-element operations agrees.
        """
        x = self.mask(delete_subset)
        y = self.mask(contract_subset)
        z = self.mask(penrose_subset)
        if x & y or x & z or y & z:
            raise ValueError("the three subsets must be pairwise disjoint")
        parity: dict[int, int] = {}
        yz = y | z
        for m in self.feasible:
            if not m & x and m & y == y:
                f = m & ~yz
                parity[f] = parity.get(f, 0) ^ 1
        kept = [f for f, p in parity.items() if p]
        if not kept:
            raise UnrealizableMinorError(
                "no feasible witness for the parity condition: order-dependent"
            )
        return self._without(x | y | z, kept)

    def apply_sequence(self, ops: Sequence[tuple[str, Op]]) -> SetSystem:
        """Left fold of single-element operations, each read from _APPLY."""
        s = self
        for e, op in ops:
            if not isinstance(op, Op):
                raise ValueError(f"unknown operation {op!r}")
            s = _APPLY[op](s, e)
            if not s.is_proper:
                raise ValueError("sequence left an improper system")
        return s

    def iter_three_minors(
        self, sizes: frozenset[int] | None = None
    ) -> Iterator[tuple[int, int, int, int]]:
        """Every realizable three-operation minor as (X, Y, Z, leaf).

        X, Y, Z are the delete / contract / penrose masks and leaf is the
        indicator of three_minor(X, Y, Z) on the original positions of the
        kept elements.  Elements are decided in index order, each kept,
        deleted, contracted, then penrose-contracted, so the assignments
        come in itertools.product(range(4), repeat=n) order.  A zero
        indicator prunes its subtree; with sizes given, subtrees that
        cannot end at one of those ground sizes are skipped.
        """
        n = self.size
        avoid, viable, last = _walk_plan(n, sizes)
        root = indicator(self.feasible)
        if not root or not viable[0][0]:
            return
        stack = [(0, 0, root, 0, 0, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            i, r, v, x, y, z = pop()
            if i == n or r == last:  # the remaining elements are all kept
                yield x, y, z, v
                continue
            j = i + 1
            # children are pushed in reverse so they pop keep-first
            if viable[j][r + 1]:
                bit = 1 << i
                m = avoid[i]
                d = v & m
                c = (v >> bit) & m
                p = d ^ c
                if p:
                    push((j, r + 1, p, x, y, z | bit))
                if c:
                    push((j, r + 1, c, x, y | bit, z))
                if d:
                    push((j, r + 1, d, x | bit, y, z))
            if viable[j][r]:
                push((j, r, v, x, y, z))

    def enumerate_three_minors(self, include_self: bool = True) -> list[SetSystem]:
        """All realizable three-operation minors, one per isomorphism class.

        Walks every assignment of elements to keep / delete / contract /
        penrose (see iter_three_minors) and collects the closed-form
        results in first-occurrence order, deduplicated by canonical form.
        The empty assignment (the system itself) is included iff
        include_self.
        """
        if not self.is_proper:
            raise ValueError("requires a proper system")
        seen_leaves: set[tuple[int, int]] = set()
        seen_keys: set[tuple] = set()
        out: list[SetSystem] = []
        for x, y, z, leaf in self.iter_three_minors():
            removed = x | y | z
            if not (include_self or removed) or (removed, leaf) in seen_leaves:
                continue
            seen_leaves.add((removed, leaf))
            m = self.three_minor(x, y, z)
            key = canonical_key(m)
            if key not in seen_keys:
                seen_keys.add(key)
                out.append(m)
        return out

    # ------------------------------------------------------------------
    # isomorphism

    def canonical_form(self) -> SetSystem:
        """Lexicographically least relabeling, with positional labels."""
        n, feas = canonical_key(self)
        return SetSystem(tuple(str(i) for i in range(n)), feas)

    def is_isomorphic(self, other: SetSystem) -> bool:
        if self.size != other.size or len(self.feasible) != len(other.feasible):
            return False
        if sorted(map(int.bit_count, self.feasible)) != sorted(map(int.bit_count, other.feasible)):
            return False
        return canonical_key(self) == canonical_key(other)


# apply_sequence's operation table; each entry looks its method up on the
# system, so it applies an operation exactly as that method does
_APPLY: dict[Op, Callable[[SetSystem, str], SetSystem]] = {
    Op.DELETE: lambda s, e: s.delete(e),
    Op.CONTRACT: lambda s, e: s.contract(e),
    Op.PENROSE: lambda s, e: s.penrose_contract(e),
    Op.TWIST: lambda s, e: s.twist(s.element_bit(e)),
    Op.LOOP_COMPLEMENT: lambda s, e: s.loop_complement(s.element_bit(e)),
}

_canon_cache: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}


def subset_images(positions: Sequence[int]) -> list[int]:
    """The image of every mask under j -> positions[j], indexed by the mask."""
    images = [0]
    for p in positions:
        images += [m | 1 << p for m in images]
    return images


@lru_cache(maxsize=None)
def _perm_images(n: int) -> tuple[list[int], ...]:
    return tuple(subset_images(p) for p in itertools.permutations(range(n)))


def labelings(masks: Sequence[int], n: int) -> Iterator[tuple[int, ...]]:
    """The family relabeled by each permutation of range(n), in turn.

    Each permutation's image table is built once per n and kept, so a
    labeling is one lookup per mask; over MAX_CANON elements this raises
    before it yields.
    """
    if n > MAX_CANON:
        raise ValueError(f"canonicalization limited to {MAX_CANON} elements")
    return (tuple(sorted(map(t.__getitem__, masks))) for t in _perm_images(n))


def canonical_key(system: SetSystem) -> tuple[int, tuple[int, ...]]:
    """(n, minimal feasible tuple over all ground permutations).

    Exhaustive over labelings, so refused over MAX_CANON elements.
    """
    n = system.size
    key = (n, system.feasible)
    hit = _canon_cache.get(key)
    if hit is not None:
        return (n, hit)
    best = min(labelings(system.feasible, n))
    _canon_cache[key] = best
    return (n, best)
