import random

import pytest

from deltamatroids import catalog
from deltamatroids.exchange import (
    check_symmetric_exchange,
    is_delta_matroid,
    is_even,
    is_normal,
)
from deltamatroids.gf2 import SymmetricBinaryMatrix
from deltamatroids.setsystem import SetSystem

from _helpers import all_proper, sysf
from _reference import family_of, first_exchange_witness_ref, symmetric_exchange_ref


def random_delta_matroids(count, max_n, seed):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randint(1, max_n)
        bits = rng.randrange(1, 1 << (1 << n))
        s = SetSystem(tuple("abcdef"[:n]), tuple(i for i in range(1 << n) if bits >> i & 1))
        if is_delta_matroid(s):
            found.append(s)
    return found


def test_examples():
    assert check_symmetric_exchange(catalog.get("D3")) is None
    w = check_symmetric_exchange(catalog.get("S3"))
    assert w is not None
    assert (w.x, w.y, w.u) == (0, 7, "e1")
    # bases of the rank-1 uniform matroid on two elements
    assert check_symmetric_exchange(sysf("ab", "a", "b")) is None


def test_improper_rejected():
    with pytest.raises(ValueError):
        check_symmetric_exchange(SetSystem(("a",), ()))


def test_matches_reference_exhaustive_n3():
    for s in all_proper(3):
        assert (check_symmetric_exchange(s) is None) == symmetric_exchange_ref(family_of(s))


def test_witness_is_genuine_exhaustive_n3():
    for s in all_proper(3):
        w = check_symmetric_exchange(s)
        if w is None:
            continue
        feas = set(s.feasible)
        assert w.x in feas and w.y in feas
        d = w.x ^ w.y
        ub = s.element_bit(w.u)
        assert d & ub
        for v in range(s.size):
            vb = 1 << v
            if d & vb:
                assert (w.x ^ ub if vb == ub else w.x ^ ub ^ vb) not in feas


def _seeded_matrix_delta_matroids(sizes, seed):
    """D(A) of random symmetric matrices, that is of random looped graphs,
    one per size, each twisted by one of its feasible sets."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 1)
        d = SymmetricBinaryMatrix.from_entries([f"v{i}" for i in range(n)], rows).delta_matroid()
        out.append(d.twist(rng.choice(d.feasible)))
    return out


def _failing_elements(s, w):
    """The elements u for which the witness's (X, Y, u) violates the axiom."""
    d = w.x ^ w.y
    feas = set(s.feasible)
    return [i for i in range(s.size)
            if d >> i & 1 and not any(w.x ^ (1 << i) ^ (1 << j if j != i else 0) in feas
                                      for j in range(s.size) if d >> j & 1)]


def test_first_witness_matches_reference():
    """The witness, not just the verdict, is the first in the documented
    order: X by mask, then Y, then u by bit.  Inputs: every proper system
    on at most 3 elements, seeded ones on 4 and 5, twisted delta-matroids
    of random looped graphs on 4-10 vertices, and one-set toggles of those.
    A toggle fails often deep in the scan, and some witnesses have several
    failing u at their Y, which pins the least-u tie-break."""
    rng = random.Random(16)
    systems = [s for n in range(4) for s in all_proper(n)]
    for n, count in ((4, 2000), (5, 600)):
        for _ in range(count):
            bits = rng.randrange(1, 1 << (1 << n))
            systems.append(SetSystem(tuple("abcde"[:n]), tuple(i for i in range(1 << n) if bits >> i & 1)))
    dms = _seeded_matrix_delta_matroids([4, 5, 6, 7] * 10 + [8, 9, 10], seed=16)
    toggled = []
    for d in dms:  # one set toggled: a failure, often deep in the scan
        fam = set(d.feasible) ^ {rng.randrange(d.full_mask + 1)}
        if fam:
            toggled.append(SetSystem(d.labels, tuple(sorted(fam))))
    ties = 0
    for s in systems + dms + toggled:
        w = check_symmetric_exchange(s)
        got = None if w is None else (frozenset(s.subset_labels(w.x)), frozenset(s.subset_labels(w.y)), w.u)
        assert got == first_exchange_witness_ref(s.labels, family_of(s)), s
        ties += w is not None and len(_failing_elements(s, w)) > 1
    assert all(is_delta_matroid(d) for d in dms)
    assert sum(check_symmetric_exchange(t) is not None for t in toggled) > len(toggled) // 2
    assert ties > 0


def test_even_normal_examples():
    s3 = catalog.get("S3")
    assert is_normal(s3) and not is_even(s3)
    dp3 = sysf("abc", "", "ab", "bc")
    assert is_even(dp3) and is_normal(dp3)
    assert not is_normal(sysf("a", "a"))


def test_twists_of_delta_matroids_are_delta_matroids():
    rng = random.Random(3)
    for d in random_delta_matroids(120, 4, seed=9):
        a = rng.randrange(d.full_mask + 1)
        assert is_delta_matroid(d.twist(a))


def test_minors_of_delta_matroids_all_orders_agree():
    rng = random.Random(4)
    for d in random_delta_matroids(80, 4, seed=10):
        if d.size < 2:
            continue
        e, f = rng.sample(d.labels, 2)
        results = set()
        for first, second in (("d", "d"), ("d", "c"), ("c", "d"), ("c", "c")):
            s = d.delete(e) if first == "d" else d.contract(e)
            results.add(s)
            assert is_delta_matroid(s)
        # deletion/contraction of disjoint singletons commutes either way
        lhs = d.delete(e).contract(f)
        rhs = d.contract(f).delete(e)
        assert lhs == rhs
        assert is_delta_matroid(lhs)


def test_twist_at_feasible_set_is_normal():
    for d in random_delta_matroids(60, 4, seed=11):
        for f in d.feasible[:4]:
            assert is_normal(d.twist(f))


def test_evenness_is_twist_invariant():
    rng = random.Random(6)
    for d in random_delta_matroids(60, 4, seed=12):
        a = rng.randrange(d.full_mask + 1)
        assert is_even(d) == is_even(d.twist(a))
