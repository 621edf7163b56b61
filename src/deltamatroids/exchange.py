"""Symmetric exchange axiom checking, with reproducible failure witnesses.

The axiom: for feasible X, Y and every u in X ^ Y there is a v in X ^ Y
(v = u allowed) with X ^ {u, v} feasible.  Whether a move (u, v) keeps X
feasible does not depend on Y, so the check computes, once per feasible
X, a move mask per element u: the v for which X ^ {u, v} is feasible.
A pair (X, Y) then needs one AND per u in X ^ Y instead of a rescan of
X ^ Y, and the scan keeps the order that fixes the first witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .setsystem import SetSystem, iter_bits, popcount


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

    For each X in that order, moves[i] is the mask of the v such that
    X ^ {u, v} is feasible, with u = 1 << i and v = u meaning X ^ {u}:
    n^2 set lookups per X, made only for the X the scan reaches.  A pair
    (X, Y) fails at the lowest u in X ^ Y with moves[i] & (X ^ Y) == 0.
    """
    if not system.is_proper:
        raise ValueError("symmetric exchange is only defined for proper systems")
    feas = system.feasible
    fset = set(feas)
    bits = [1 << i for i in range(system.size)]
    for x in feas:
        moves = []
        for u in bits:
            base = x ^ u
            m = u if base in fset else 0
            for v in bits:
                if v != u and base ^ v in fset:
                    m |= v
            moves.append(m)
        for y in feas:
            d = x ^ y
            for u in iter_bits(d):
                i = u.bit_length() - 1
                if not moves[i] & d:
                    return ExchangeWitness(x, y, system.labels[i])
    return None


def is_delta_matroid(system: SetSystem) -> bool:
    return check_symmetric_exchange(system) is None


# Family-keyed cache: the axiom depends only on the feasible masks.
_se_cache: dict[tuple[int, ...], bool] = {}


def is_delta_matroid_cached(system: SetSystem) -> bool:
    key = system.feasible
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
    parity = popcount(system.feasible[0]) & 1
    return all(popcount(m) & 1 == parity for m in system.feasible)
