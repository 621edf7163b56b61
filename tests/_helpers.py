"""Set-system builders shared by the tests."""

from __future__ import annotations

from deltamatroids.setsystem import SetSystem


def sysf(labels, *sets):
    """The system on labels whose feasible sets are the given label strings."""
    return SetSystem.from_sets(tuple(labels), [tuple(s) for s in sets])


def all_proper(n, labels="abc"):
    """Every proper set system on the first n labels."""
    labs = tuple(labels[:n])
    for bits in range(1, 1 << (1 << n)):
        yield SetSystem(labs, tuple(i for i in range(1 << n) if bits >> i & 1))
