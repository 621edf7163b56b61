"""Symmetric exchange axiom checking, with reproducible failure witnesses.

The axiom: for feasible X, Y and every u in X ^ Y there is a v in X ^ Y
(v = u allowed) with X ^ {u, v} feasible.  A u with X ^ {u} feasible never
fails.  For any other u, let m be the set of w with X ^ {u} ^ {w} feasible;
it holds u itself, as X is feasible.  Then (X, Y, u) fails exactly when
m & (X ^ Y) == {u}, that is when Y & m == (X ^ {u}) & m: whether it fails
depends on Y only through its projection onto m.  So one table per distinct
m, mapping each projection Y & m to the least feasible Y with it, answers
each (X, u) with one lookup instead of a scan over every Y.  With D
distinct m, a call costs O(|F| n^2 + D |F|) instead of O(|F|^2 n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .setsystem import SetSystem, indicator


@dataclass(frozen=True)
class ExchangeWitness:
    """A triple (X, Y, u) violating symmetric exchange.

    X and Y are feasible masks, u is an element of X ^ Y, and no v in
    X ^ Y (v = u allowed) makes X ^ {u, v} feasible.
    """

    x: int
    y: int
    u: str

    def describe(self, system: SetSystem) -> str:
        xs = ",".join(system.subset_labels(self.x))
        ys = ",".join(system.subset_labels(self.y))
        return f"X={{{xs}}} Y={{{ys}}} u={self.u}"


def check_symmetric_exchange(system: SetSystem) -> ExchangeWitness | None:
    """Return None when the axiom holds, else the lexicographically first
    witness (X ascending, then Y, then u by bit position).

    For each X in that order and each u with X ^ {u} infeasible, m costs n
    set lookups and the least failing Y is proj[m][(X ^ u) & m]; proj[m]
    is built from the feasible sets once per distinct m and lives for one
    call.  The witness for X is the least such Y over every u, with the
    least u failing at that Y, as a scan over Y and then u would find it.
    """
    if not system.is_proper:
        raise ValueError("symmetric exchange is only defined for proper systems")
    feas = system.feasible
    fset = set(feas)
    bits = [1 << i for i in range(system.size)]
    proj: dict[int, dict[int, int]] = {}
    for x in feas:
        best = None
        for i, u in enumerate(bits):
            base = x ^ u
            if base in fset:
                continue
            m = 0
            for w in bits:
                if base ^ w in fset:
                    m |= w
            table = proj.get(m)
            if table is None:  # reversed, so the least Y of each projection is kept
                table = proj[m] = {y & m: y for y in reversed(feas)}
            y = table.get(base & m)
            if y is not None and (best is None or y < best[0]):
                best = (y, i)
        if best is not None:
            return ExchangeWitness(x, best[0], system.labels[best[1]])
    return None


def is_delta_matroid(system: SetSystem) -> bool:
    return check_symmetric_exchange(system) is None


# Family-keyed cache: the axiom depends only on the feasible masks, so
# the key is the family's indicator, one int, whatever the ground set.
# Its caller, is_vf_safe, stays under ORBIT_GUARD, where the int is small.
_se_cache: dict[int, bool] = {}


def is_delta_matroid_cached(system: SetSystem) -> bool:
    key = indicator(system.feasible)
    hit = _se_cache.get(key)
    if hit is None:
        hit = check_symmetric_exchange(system) is None
        _se_cache[key] = hit
    return hit


def is_normal(system: SetSystem) -> bool:
    """The empty set is feasible."""
    if not system.is_proper:
        raise ValueError("requires a proper system")
    return system.feasible[0] == 0


def is_even(system: SetSystem) -> bool:
    """All feasible sets have sizes of the same parity."""
    if not system.is_proper:
        raise ValueError("requires a proper system")
    parity = system.feasible[0].bit_count() & 1
    return all(m.bit_count() & 1 == parity for m in system.feasible)
