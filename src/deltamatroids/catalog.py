"""Named small set systems and the machine-checkable identity suite.

Every family here is hard-coded label-for-label, the 28 twisted duals of
S3 included; `verify tables` checks that table against the computed
closure of S3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .setsystem import SetSystem


def _sys(labels: str | tuple[str, ...], *sets: str) -> SetSystem:
    """Compact constructor: _sys("abc", "", "ab", "abc")."""
    labels = tuple(labels)
    return SetSystem.from_sets(labels, [tuple(s) for s in sets])


def _s_chain(i: int) -> SetSystem:
    labels = tuple(f"e{k}" for k in range(1, i + 1))
    return SetSystem.from_sets(labels, [(), labels])


_ENTRIES: dict[str, SetSystem] = {
    # delta-matroid whose full loop complementation is not one
    "D3": _sys("abc", "", "a", "b", "c", "ab", "ac", "bc"),
    # S2: two-element twist pair; S3 .. S8: excluded-minor chain for
    # delta-matroids
    **{f"S{i}": _s_chain(i) for i in range(2, 9)},
    # excluded minors for delta-matroids
    "T1": _sys("abc", "", "ab", "abc"),
    "T2": _sys("abc", "", "ab", "ac", "abc"),
    "T3": _sys("abc", "", "a", "ab", "abc"),
    "T4": _sys("abc", "", "a", "ab", "ac", "abc"),
    "T5": _sys("abcd", "", "ab", "abcd"),
    "T6": _sys("abcd", "", "ab", "ac", "abcd"),
    "T7": _sys("abcd", "", "ab", "ac", "ad", "abcd"),
    "T8": _sys("abcd", "", "a", "ab", "ac", "ad", "abcd"),
    # excluded minors for binary delta-matroids
    "B1": _sys("abc", "", "ab", "ac", "bc", "abc"),
    "B2": _sys("abc", "", "a", "b", "c", "ab", "ac", "bc"),  # equals D3
    "B3": _sys("abc", "", "b", "c", "ab", "ac", "abc"),
    "B4": _sys("abcd", "", "ab", "ac", "ad", "bc", "bd", "cd"),
    "B5": _sys("abcd", "", "ab", "ad", "bc", "cd", "abcd"),
}


def names() -> list[str]:
    return sorted(_ENTRIES)


def get(name: str) -> SetSystem:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise KeyError(f"unknown catalog name {name!r}") from None


# ----------------------------------------------------------------------
# The 28 twist/loop-complement closures of S3, up to isomorphism,
# transcribed table by table.  Within each block: the seed family first,
# then its listed twists.

_S3_TABLES: tuple[tuple[str, ...], ...] = (
    # twists of S3
    ("", "abc"),                    # S3
    ("a", "bc"),                    # S3 * a
    # twists of S3 + a
    ("", "a", "abc"),               # S3 + a
    ("", "bc", "abc"),              # (S3 + a)^*
    ("", "a", "bc"),                # (S3 + a) * a
    ("a", "bc", "abc"),             # (S3 + a) * bc
    ("b", "ab", "ac"),              # (S3 + a) * b
    ("b", "c", "ac"),               # (S3 + a) * ac
    # twists of S3 + ab
    ("", "a", "b", "ab", "abc"),    # S3 + ab
    ("", "c", "ac", "bc", "abc"),   # (S3 + ab)^*
    ("", "a", "b", "ab", "bc"),     # (S3 + ab) * a
    ("a", "c", "ac", "bc", "abc"),  # (S3 + ab) * bc
    ("c", "ab", "ac", "bc", "abc"), # (S3 + ab) * c
    ("", "a", "b", "c", "ab"),      # (S3 + ab) * ab
    # twists of S3 + abc
    ("", "a", "b", "c", "ab", "ac", "bc"),    # S3 + abc
    ("a", "b", "c", "ab", "ac", "bc", "abc"), # (S3 + abc)^*
    ("", "a", "b", "c", "ab", "ac", "abc"),   # (S3 + abc) * a
    ("", "b", "c", "ab", "ac", "bc", "abc"),  # (S3 + abc) * bc
    # twists of (S3 * a) + ab
    ("a", "ab", "bc", "abc"),       # (S3 * a) + ab
    ("", "a", "c", "bc"),           # ((S3 * a) + ab)^*
    ("", "b", "bc", "abc"),         # ((S3 * a) + ab) * a
    ("a", "c", "ab", "ac"),         # ((S3 * a) + ab) * b
    # twists of (S3 * a) + abc
    ("a", "ab", "ac", "bc"),        # (S3 * a) + abc
    ("a", "b", "c", "bc"),          # ((S3 * a) + abc)^*
    ("", "b", "c", "abc"),          # ((S3 * a) + abc) * a
    ("", "ab", "ac", "abc"),        # ((S3 * a) + abc) * bc
    ("a", "c", "ab", "abc"),        # ((S3 * a) + abc) * b
    ("", "c", "ab", "bc"),          # ((S3 * a) + abc) * ac
)


@lru_cache(maxsize=1)
def s3_twisted_duals() -> tuple[SetSystem, ...]:
    """The 28 twisted duals of S3 as transcribed, canonicalized and sorted
    by family size, then by feasible tuple."""
    duals = {_sys("abc", *fams).canonical_form() for fams in _S3_TABLES}
    return tuple(sorted(duals, key=lambda s: (len(s.feasible), s.feasible)))


# ----------------------------------------------------------------------
# Identity suite


@dataclass(frozen=True)
class IdentityCheck:
    """A named identity whose sides are built only when it is checked, so
    a crash while building one is that identity's failure."""

    name: str
    lhs: Callable[[], SetSystem]
    rhs: Callable[[], SetSystem]
    relation: str  # "equal" or "isomorphic"

    @property
    def holds(self) -> bool:
        if self.relation == "equal":
            return self.lhs() == self.rhs()
        return self.lhs().is_isomorphic(self.rhs())

    def __str__(self) -> str:
        return self.name


def identity_suite() -> list[IdentityCheck]:
    """Small named identities relating the catalog systems."""
    g = get
    s3_abc = _sys("abc", "", "abc")  # the S3 family on labels a, b, c
    checks = [
        IdentityCheck("T1^* + c = S3", lambda: g("T1").dual().loop_complement(["c"]), lambda: s3_abc, "equal"),
        IdentityCheck("T2^* + bc ~ T1", lambda: g("T2").dual().loop_complement(["b", "c"]), lambda: g("T1"),
                      "isomorphic"),
        IdentityCheck("T3 + a = T1", lambda: g("T3").loop_complement(["a"]), lambda: g("T1"), "equal"),
        IdentityCheck("T4 + a = T2", lambda: g("T4").loop_complement(["a"]), lambda: g("T2"), "equal"),
        IdentityCheck("T5 pen d = T1", lambda: g("T5").penrose_contract("d"), lambda: g("T1"), "equal"),
        IdentityCheck("T6 pen d = T2", lambda: g("T6").penrose_contract("d"), lambda: g("T2"), "equal"),
        IdentityCheck("T7 pen d = T4", lambda: g("T7").penrose_contract("d"), lambda: g("T4"), "equal"),
        IdentityCheck("T8 pen d = T2", lambda: g("T8").penrose_contract("d"), lambda: g("T2"), "equal"),
        IdentityCheck("D3 + abc = S3", lambda: g("D3").loop_complement(["a", "b", "c"]), lambda: s3_abc, "equal"),
        IdentityCheck("B2 = S3 + abc", lambda: s3_abc.loop_complement(["a", "b", "c"]), lambda: g("B2"), "equal"),
        IdentityCheck("B4 pen d = B2", lambda: g("B4").penrose_contract("d"), lambda: g("B2"), "equal"),
        IdentityCheck("(B3 + a)^* = B1", lambda: g("B3").loop_complement(["a"]).dual(), lambda: g("B1"), "equal"),
        IdentityCheck("B5 pen d ~ B3", lambda: g("B5").penrose_contract("d"), lambda: g("B3"), "isomorphic"),
    ]
    for n in range(4, 9):
        checks.append(IdentityCheck(
            f"S{n} pen e{n} = S{n - 1}",
            lambda n=n: g(f"S{n}").penrose_contract(f"e{n}"),
            lambda n=n: g(f"S{n - 1}"),
            "equal",
        ))
    return checks
