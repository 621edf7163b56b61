"""Twisted-duality closures, vf-safety, and obstruction membership."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import catalog
from .exchange import is_delta_matroid_cached
from .setsystem import (
    SetSystem,
    SubsetLike,
    _apply_perm,
    canonical_key,
    indicator,
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
    words = [system, sa, pa, pa.twist(a), sa.loop_complement(a),
             sa.loop_complement(a).twist(a)]
    out: list[SetSystem] = []
    for w in words:
        if w not in out:
            out.append(w)
    return out


def dual_pivot(system: SetSystem, subset: SubsetLike) -> SetSystem:
    """Loop-complement, twist, loop-complement, all on the same subset."""
    a = system.mask(subset)
    return system.loop_complement(a).twist(a).loop_complement(a)


@dataclass(frozen=True)
class Orbit:
    """Closure of a set system under single-element twists and loop
    complementations.

    members are sorted; canonical forms when built up to isomorphism.
    generator_log maps each labeled member's feasible tuple to its BFS
    parent and the generating operation ("*x" or "+x"), None for the seed.
    """

    members: tuple[SetSystem, ...]
    generator_log: dict[tuple[int, ...], tuple[tuple[int, ...], str] | None]

    @property
    def size(self) -> int:
        return len(self.members)


def _labeled_closure(system: SetSystem):
    """BFS over feasible tuples under {*e, +e}; returns (states, log)."""
    if system.size > ORBIT_GUARD:
        raise ValueError(f"orbit guard: ground sets over {ORBIT_GUARD} elements")
    labels = system.labels
    bits = [(1 << i, labels[i]) for i in range(system.size)]
    seed = system.feasible
    log: dict[tuple[int, ...], tuple[tuple[int, ...], str] | None] = {seed: None}
    frontier = [system]
    while frontier:
        nxt = []
        for s in frontier:
            for bit, lab in bits:
                for child, op in ((s.twist(bit), f"*{lab}"),
                                  (s.loop_complement(bit), f"+{lab}")):
                    if child.feasible not in log:
                        log[child.feasible] = (s.feasible, op)
                        nxt.append(child)
        frontier = nxt
    return log


def orbit(system: SetSystem, up_to_iso: bool = False) -> Orbit:
    """Breadth-first twisted-duality closure of a proper set system."""
    if not system.is_proper:
        raise ValueError("orbit requires a proper system")
    log = _labeled_closure(system)
    labels = system.labels
    if up_to_iso:
        reps: dict[tuple, SetSystem] = {}
        for feas in log:
            s = SetSystem(labels, feas)
            key = canonical_key(s)
            if key not in reps:
                reps[key] = s.canonical_form()
        members = tuple(sorted(reps.values(), key=lambda s: s.feasible))
    else:
        members = tuple(SetSystem(labels, feas) for feas in sorted(log))
    return Orbit(members, log)


# vf-safety is constant on a twisted-duality class, so one closure
# answers the question for every member at once.
_vf_cache: dict[tuple[int, tuple[int, ...]], bool] = {}


def is_vf_safe(system: SetSystem) -> bool:
    """Every twisted dual (the system included) satisfies symmetric exchange."""
    if not system.is_proper:
        raise ValueError("vf-safety requires a proper system")
    key = (system.size, system.feasible)
    hit = _vf_cache.get(key)
    if hit is not None:
        return hit
    states = _labeled_closure(system)
    labels = system.labels
    safe = all(is_delta_matroid_cached(SetSystem(labels, feas)) for feas in states)
    n = system.size
    for feas in states:
        _vf_cache[(n, feas)] = safe
    return safe


# ----------------------------------------------------------------------
# catalog membership over three-operation minors


@dataclass(frozen=True)
class MinorMatch:
    """Witness that a specific minor hits a catalog entry."""

    delete_mask: int
    contract_mask: int
    penrose_mask: int
    catalog_index: int


class _CatalogIndex:
    """Catalog entries prepared for matching three-operation minors.

    keys maps each canonical key to the first entry index carrying it.
    table(n, kept) is the set of indicators of every labeling of every
    entry with |kept| elements, placed on the kept positions of an
    n-element ground set, so a minor's indicator from
    SetSystem.iter_three_minors is matched without canonicalizing it.
    """

    def __init__(self, entries: Sequence[SetSystem]) -> None:
        self.keys: dict[tuple, int] = {}
        self.labelings: dict[int, set[tuple[int, ...]]] = {}
        for i, e in enumerate(entries):
            self.keys.setdefault(canonical_key(e), i)
            self.labelings.setdefault(e.size, set()).update(
                _apply_perm(e.feasible, p) for p in itertools.permutations(range(e.size))
            )
        self.sizes = frozenset(self.labelings)
        self._tables: dict[tuple[int, int], frozenset[int]] = {}

    def table(self, n: int, kept: int) -> frozenset[int]:
        hit = self._tables.get((n, kept))
        if hit is not None:
            return hit
        positions = [i for i in range(n) if kept >> i & 1]
        spread = [
            sum(1 << p for j, p in enumerate(positions) if m >> j & 1)
            for m in range(1 << len(positions))
        ]
        table = frozenset(
            indicator(spread[m] for m in feasible)
            for feasible in self.labelings.get(len(positions), ())
        )
        self._tables[(n, kept)] = table
        return table


_catalog_key_cache: dict[tuple, _CatalogIndex] = {}


def _catalog_index(entries: Sequence[SetSystem]) -> _CatalogIndex:
    """The index of the entries, cached by content."""
    cache_key = tuple((e.size, e.feasible) for e in entries)
    index = _catalog_key_cache.get(cache_key)
    if index is None:
        index = _catalog_key_cache[cache_key] = _CatalogIndex(entries)
    return index


def find_catalog_3_minor(
    system: SetSystem, entries: Sequence[SetSystem] | _CatalogIndex
) -> MinorMatch | None:
    """First three-operation minor isomorphic to a catalog entry, if any.

    Assignments of elements to keep / delete / contract / penrose are
    scanned in itertools.product(range(4), repeat=n) order (see
    SetSystem.iter_three_minors), so the witness is deterministic.
    Minors whose ground size matches no entry are never formed.  The
    entries may also come as an index the caller prepared once.
    """
    if not system.is_proper:
        raise ValueError("requires a proper system")
    index = entries if isinstance(entries, _CatalogIndex) else _catalog_index(entries)
    n = system.size
    full = system.full_mask
    for x, y, z, leaf in system.iter_three_minors(index.sizes):
        if leaf in index.table(n, full & ~(x | y | z)):
            idx = index.keys[canonical_key(system.three_minor(x, y, z))]
            return MinorMatch(x, y, z, idx)
    return None


@lru_cache(maxsize=1)
def _s3_dual_index() -> _CatalogIndex:
    """The index of the twisted duals of S3."""
    return _CatalogIndex(catalog.s3_twisted_duals())


def is_vf_safe_via_obstruction(system: SetSystem) -> bool:
    """Obstruction form of vf-safety: no three-operation minor is a
    twisted dual of S3."""
    return find_catalog_3_minor(system, _s3_dual_index()) is None
