"""Twisted-duality closures, vf-safety, and obstruction membership."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Sequence

from . import catalog
from .exchange import is_delta_matroid_cached
from .setsystem import (
    MAX_CANON,
    SetSystem,
    SubsetLike,
    _walk_plan,
    canonical_key,
    indicator,
    labelings,
    subset_images,
)

ORBIT_GUARD = 8  # closure size is bounded by 6^n labeled systems


def twisted_duals_wrt(system: SetSystem, subset: SubsetLike) -> list[SetSystem]:
    """The at-most-six twisted duals of the system with respect to one set.

    Candidates, in order: S, S*A, S+A, (S+A)*A, (S*A)+A, ((S*A)+A)*A.
    Duplicates are dropped, keeping first occurrences.
    """
    a = system.mask(subset)
    sa = system.twist(a)
    pa = system.loop_complement(a)
    sap = sa.loop_complement(a)
    words = [system, sa, pa, pa.twist(a), sap, sap.twist(a)]
    return list({w.feasible: w for w in words}.values())


def dual_pivot(system: SetSystem, subset: SubsetLike) -> SetSystem:
    """Loop-complement, twist, loop-complement, all on the same subset."""
    a = system.mask(subset)
    return system.loop_complement(a).twist(a).loop_complement(a)


@dataclass(frozen=True)
class Orbit:
    """Closure of a set system under single-element twists and loop
    complementations.

    members are sorted; canonical forms when built up to isomorphism.
    """

    members: tuple[SetSystem, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def _refuse_over_guard(system: SetSystem) -> None:
    if system.size > ORBIT_GUARD:
        raise ValueError(f"orbit guard: ground sets over {ORBIT_GUARD} elements")


def _folded_states(system: SetSystem) -> list[SetSystem]:
    """The fold of S, S + i and (S * i) + i over each element i: the six
    words of twisted_duals_wrt at i are {w, w * i} for those three, and
    operations at different elements commute, so the twists of these at
    most 3^n states are the labeled closure behind orbit and is_vf_safe,
    which both refuse a ground set over ORBIT_GUARD first."""
    states = [system]
    for bit in (1 << i for i in range(system.size)):
        words = (w for s in states for w in (s, s.loop_complement(bit), s.twist(bit).loop_complement(bit)))
        states = list({w.feasible: w for w in words}.values())
    return states


def orbit(system: SetSystem, up_to_iso: bool = False) -> Orbit:
    """Twisted-duality closure of a proper set system.  Up to isomorphism,
    any member left in the labeled closure names a class: the least of
    its labelings is the class's canonical form (as canonical_key takes
    it), and every labeling leaves the closure."""
    if not system.is_proper:
        raise ValueError("orbit requires a proper system")
    _refuse_over_guard(system)
    if up_to_iso and system.size > MAX_CANON:
        raise ValueError(f"orbit guard: ground sets over {MAX_CANON} elements up to isomorphism")
    n = system.size
    states = {}
    for s in _folded_states(system):
        if s.feasible not in states:  # else its whole twist class is in
            states.update((t.feasible, t) for t in map(s.twist, range(1 << n)) if t.feasible not in states)
    if up_to_iso:
        positional = tuple(str(i) for i in range(n))
        classes = {}
        while states:
            labs = set(labelings(next(iter(states)), n))
            c = min(labs)
            classes[c] = SetSystem(positional, c)
            for feas in labs:
                states.pop(feas, None)
        states = classes
    return Orbit(tuple(states[feas] for feas in sorted(states)))


# vf-safety is constant on a twisted-duality class, so one closure
# answers for every member at once.  The key is the family's indicator
# alone, not n: each twisted dual of S + loop is a twisted dual of S plus
# a loop, coloop or free element; a direct sum has exchange iff both parts do.
_vf_cache: dict[int, bool] = {}


def is_vf_safe(system: SetSystem) -> bool:
    """Every twisted dual (the system included) satisfies symmetric exchange."""
    if not system.is_proper:
        raise ValueError("vf-safety requires a proper system")
    _refuse_over_guard(system)  # before the key: an indicator has 2^n bits
    key = indicator(system.feasible)
    if key not in _vf_cache:
        states = _folded_states(system)  # twisting keeps exchange, so the states decide
        members = {indicator(s.feasible) for s in states}
        for i, m in enumerate(_walk_plan(system.size, None)[0]):  # the twist at i swaps two halves
            members |= {(v & m) << (1 << i) | (v >> (1 << i)) & m for v in members}
        _vf_cache.update(zip(members, repeat(all(map(is_delta_matroid_cached, states)))))
    return _vf_cache[key]


# ----------------------------------------------------------------------
# catalog membership over three-operation minors


@dataclass(frozen=True)
class MinorMatch:
    """Witness that a specific minor hits a catalog entry."""

    delete_mask: int
    contract_mask: int
    penrose_mask: int
    catalog_index: int


class CatalogIndex:
    """Catalog entries prepared once for matching three-operation minors.

    keys maps each canonical key to the first entry index carrying it.
    table(kept) maps the indicator of every labeling of every entry with
    |kept| elements, placed on the kept positions (whatever the ground
    size), to the first entry index of its class, so a minor's indicator
    from SetSystem.iter_three_minors is matched without canonicalizing
    it. Each value starts as None and is filled from keys on the
    indicator's first hit in find_catalog_3_minor.
    """

    def __init__(self, entries: Sequence[SetSystem]) -> None:
        self.keys: dict[tuple, int] = {}
        self.labelings: dict[int, set[tuple[int, ...]]] = {}
        for i, e in enumerate(entries):
            self.keys.setdefault(canonical_key(e), i)
            self.labelings.setdefault(e.size, set()).update(labelings(e.feasible, e.size))
        self.sizes = frozenset(self.labelings)
        self._tables: dict[int, dict[int, int | None]] = {}

    def table(self, kept: int) -> dict[int, int | None]:
        hit = self._tables.get(kept)
        if hit is not None:
            return hit
        positions = [i for i in range(kept.bit_length()) if kept >> i & 1]
        spread = subset_images(positions)
        table = dict.fromkeys(
            indicator(spread[m] for m in feasible)
            for feasible in self.labelings.get(len(positions), ())
        )
        self._tables[kept] = table
        return table


def find_catalog_3_minor(system: SetSystem, index: CatalogIndex) -> MinorMatch | None:
    """First three-operation minor isomorphic to an entry of the index, if any.

    Assignments of elements to keep / delete / contract / penrose are
    scanned in itertools.product(range(4), repeat=n) order (see
    SetSystem.iter_three_minors), so the witness is deterministic.
    Minors whose ground size matches no entry are never formed, and a
    hit forms its minor only the first time the index sees its leaf
    indicator on those kept positions: the indicator fixes the minor's
    feasible family, and so its entry.
    """
    if not system.is_proper:
        raise ValueError("requires a proper system")
    full = system.full_mask
    for x, y, z, leaf in system.iter_three_minors(index.sizes):
        table = index.table(full & ~(x | y | z))
        if leaf in table:
            idx = table[leaf]
            if idx is None:
                idx = table[leaf] = index.keys[canonical_key(system.three_minor(x, y, z))]
            return MinorMatch(x, y, z, idx)
    return None


@lru_cache(maxsize=1)
def _s3_dual_index() -> CatalogIndex:
    """The index of the twisted duals of S3."""
    return CatalogIndex(catalog.s3_twisted_duals())


def is_vf_safe_via_obstruction(system: SetSystem) -> bool:
    """Obstruction form of vf-safety: no three-operation minor is a
    twisted dual of S3."""
    return find_catalog_3_minor(system, _s3_dual_index()) is None
