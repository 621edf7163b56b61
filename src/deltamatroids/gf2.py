"""Symmetric matrices over GF(2), principal pivoting, and binary recognition.

Rows are stored as bitmasks over the column positions.  The empty matrix
counts as nonsingular, so the empty set is always feasible below.

A principal pivot works on the tableau [I | A], whose row i is the integer
1 << i | A_i << n: e_i in the low n bits and A e_i in the high n bits.  Its
rows span the graph {(x, Ax)}, and A*X is the matrix whose graph is that one
with the coordinates x_X and y_X exchanged (Tsatsomeros, "Principal pivot
transforms: properties and applications", 2000).  So ppt swaps bits i and
n + i for every i in X and reduces the low half back to I by Gauss-Jordan
elimination; row i then reads e_i | (A*X) e_i << n.  After the swap the low
half holds column i of A for i in X and e_i elsewhere, so its determinant is
det A[X]: the elimination runs out of pivots exactly when the pivot block
is singular.

All 2^n principal determinants are found at once by a Schur-complement
recursion (Griffin & Tsatsomeros, "Principal minors, Part I", 2006) that
peels off the last index i.  Subsets without i are the principal minors of
the leading block.  Subsets Y + i are those of the Schur complement at i,
whose row j is row_j + A_ji * row_i.  Over GF(2) a zero pivot A_ii needs no
2x2 block pivot: det is linear in one diagonal entry, so
det A[Y+i] = det A'[Y+i] + det A[Y] with A' equal to A except A'_ii = 1.
The recursion stops at the leading 3x3 block, whose 8 determinants are
read in closed form: over GF(2) the determinant of a symmetric matrix is
the sum over its involutions, so with diagonal a, b, c and A_10 = d,
A_20 = e, A_21 = f the bits are 1, a, b, ab+d, c, ac+e, bc+f and
abc+af+be+cd.  A matrix with n >= 3 then costs 2^(n-2) - 1 calls.
The recursion only eliminates; it does not pivot with ``ppt``, because the
ppt suite checks the pivoting identity D(A*X) = D(A) * X against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .setsystem import MAX_GROUND, LabeledBits, SetSystem, SubsetLike


def _principal_minors(rows: Sequence[int], k: int) -> int:
    """All principal determinants of the leading k x k block of a matrix
    given as row bitmasks, as one 2^k-bit integer whose bit s is det A[s].

    Only rows and columns below k are read, so neither the leading block
    nor the Schur complement needs its higher bits masked off.
    """
    if k == 3:
        r0, r1, r2 = rows[0], rows[1], rows[2]
        a, b, c = r0 & 1, r1 >> 1 & 1, r2 >> 2 & 1
        d, e, f = r1 & 1, r2 & 1, r2 >> 1 & 1
        return (1 | a << 1 | b << 2 | (a & b ^ d) << 3 | c << 4 | (a & c ^ e) << 5
                | (b & c ^ f) << 6 | (a & b & c ^ a & f ^ b & e ^ c & d) << 7)
    if k == 0:
        return 1
    i = k - 1
    bit = 1 << i
    pivot = rows[i]
    low = _principal_minors(rows, i)
    high = _principal_minors([row ^ pivot if row & bit else row for row in rows[:i]], i)
    if not pivot & bit:
        high ^= low
    # Subsets containing i are the upper 2^i bits; 2^i is also `bit`.
    return low | high << bit


# At 2^20 sets the family tuple peaks at about 63 MB; each further
# element doubles it.
MAX_FAMILY = 1 << 20


@dataclass(frozen=True)
class SymmetricBinaryMatrix(LabeledBits):
    """Symmetric GF(2) matrix with labeled rows/columns."""

    rows: tuple[int, ...]

    _where = "matrix"

    def __post_init__(self):
        self._check_symmetric(self.rows)

    @classmethod
    def from_entries(cls, labels: Iterable[str], entries: Sequence[Sequence[int]]) -> SymmetricBinaryMatrix:
        labels = tuple(labels)
        rows = []
        for row in entries:
            if len(row) != len(labels):
                raise ValueError("row length must match label count")
            for v in row:
                if type(v) is not int or v not in (0, 1):  # True and 1.0 both equal 1
                    raise ValueError(f"matrix entries must be the integers 0 or 1, not {v!r}")
            rows.append(sum(1 << j for j, v in enumerate(row) if v))
        return cls(labels, tuple(rows))

    def feasible_masks(self) -> tuple[int, ...]:
        """Masks of all nonsingular principal submatrices (the empty one
        included), in increasing order.  More than MAX_FAMILY of them are
        refused once counted, before the tuple is built."""
        dets = _principal_minors(self.rows, self.size)
        count = dets.bit_count()
        if count > MAX_FAMILY:
            raise ValueError(f"family guard: {count} feasible sets, over {MAX_FAMILY}")
        bits = bin(dets)[:1:-1]  # character x is det A[x]
        return tuple(x for x, b in enumerate(bits) if b == "1")

    def delta_matroid(self) -> SetSystem:
        """Feasible sets are the index sets of nonsingular principal
        submatrices; always normal.  A ground set over MAX_GROUND is
        refused before the 2^n determinants, a family over MAX_FAMILY
        sets after them."""
        if self.size > MAX_GROUND:
            raise ValueError(f"ground set larger than {MAX_GROUND} elements")
        return SetSystem(self.labels, self.feasible_masks())

    def ppt(self, subset: SubsetLike) -> SymmetricBinaryMatrix:
        """Principal pivot transform on a nonsingular principal submatrix.

        One Gauss-Jordan pass on the [I | A] tableau with bits i and n + i
        swapped for every i in the subset (see the module docstring); it
        raises ValueError when the pivot block is singular.  Involutive in
        the subset.
        """
        x = self.mask(subset)
        n = self.size
        tab = []
        for i, row in enumerate(self.rows):
            t = 1 << i | row << n
            d = (t ^ t >> n) & x
            tab.append(t ^ (d | d << n))
        for col in range(n):
            bit = 1 << col
            pivot = -1
            for r in range(col, n):
                if tab[r] & bit:
                    pivot = r
                    break
            if pivot < 0:
                raise ValueError("pivot block is singular")
            tab[col], tab[pivot] = tab[pivot], tab[col]
            prow = tab[col]
            for r in range(n):
                if r != col and tab[r] & bit:
                    tab[r] ^= prow
        return SymmetricBinaryMatrix(self.labels, tuple(t >> n for t in tab))

    def __str__(self) -> str:
        body = " / ".join(
            "".join(str(r >> j & 1) for j in range(self.size)) for r in self.rows
        )
        return f"[{','.join(self.labels)}: {body}]"


def basic_rows(feasible: Callable[[int], object], positions: Sequence[int], least: int = 0) -> tuple[int, ...]:
    """Rows over the given positions of the matrix B with S * least =
    D(B), for the system S whose feasible sets F are those with
    feasible(F) true (Bouchet, "Representability of Delta-matroids",
    1988).  B_ii is whether least ^ {i} is feasible, and B_ij whatever
    makes det B[{i, j}] = B_ii B_jj + B_ij say whether least ^ {i, j} is.
    """
    near = [least ^ 1 << p for p in positions]
    diag = [bool(feasible(f)) for f in near]
    rows = [d << k for k, d in enumerate(diag)]
    for k, f in enumerate(near):
        for j in range(k):
            if bool(feasible(f ^ 1 << positions[j])) != (diag[k] and diag[j]):
                rows[k] |= 1 << j
                rows[j] |= 1 << k
    return tuple(rows)


def reconstruct_basic_matrix(system: SetSystem) -> SymmetricBinaryMatrix:
    """Rebuild the representing matrix of a normal system from its
    feasible sets of size at most two (basic_rows at least = 0)."""
    if not system.is_proper or system.feasible[0] != 0:
        raise ValueError("reconstruction requires a normal system")
    return SymmetricBinaryMatrix(system.labels, basic_rows(set(system.feasible).__contains__, range(system.size)))


@lru_cache(maxsize=1)
def is_basic_binary(system: SetSystem) -> bool:
    """Normal, and reproduced exactly by its reconstructed matrix.

    The last answer is kept: is_binary of a normal system, and
    is_ribbon_graphic through it, ask again about an equal system."""
    if not system.is_proper:
        raise ValueError("requires a proper system")
    if system.feasible[0] != 0:
        return False
    return reconstruct_basic_matrix(system).delta_matroid() == system


def is_binary(system: SetSystem) -> bool:
    """Is the system a twist of a basic binary delta-matroid?

    One twist at the least feasible set decides: a binary delta-matroid
    twisted onto any feasible set is basic binary.  No separate exchange
    check is needed: D(A) of a symmetric matrix is always a delta-matroid
    (Bouchet, "Representability of Delta-matroids", 1988) and a twist of a
    delta-matroid is one, so a system failing the exchange axiom has no
    basic binary twist and comes out False here.
    """
    if not system.is_proper:
        raise ValueError("requires a proper system")
    return is_basic_binary(system.twist(system.feasible[0]))
