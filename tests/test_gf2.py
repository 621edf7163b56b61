import random

import pytest

from deltamatroids import catalog, gf2
from deltamatroids.exchange import check_symmetric_exchange, is_delta_matroid, is_even, is_normal
from deltamatroids.gf2 import (
    SymmetricBinaryMatrix,
    is_basic_binary,
    is_binary,
    reconstruct_basic_matrix,
)
from deltamatroids.setsystem import SetSystem

from _reference import det_elimination_ref, det_permanent_ref, ppt_ref


def matrix(labels, *rows):
    return SymmetricBinaryMatrix.from_entries(tuple(labels), [[int(c) for c in r] for r in rows])


def all_symmetric(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1)]
    for bits in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                rows[i] |= 1 << j
                if i != j:
                    rows[j] |= 1 << i
        yield SymmetricBinaryMatrix(tuple(str(i + 1) for i in range(n)), tuple(rows))


def random_symmetric(rng, n):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                if i != j:
                    rows[j] |= 1 << i
    return SymmetricBinaryMatrix(tuple(str(i + 1) for i in range(n)), tuple(rows))


def test_symmetry_enforced():
    with pytest.raises(ValueError):
        SymmetricBinaryMatrix(("1", "2"), (0b10, 0b00))


def test_det_matches_permutation_expansion():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(0, 4)
        entries = [[rng.getrandbits(1) for _ in range(n)] for _ in range(n)]
        assert det_elimination_ref(entries) == det_permanent_ref(entries)


def test_principal_nonsingular_examples():
    swap = matrix("12", "01", "10")
    assert swap.feasible_masks() == (0, swap.mask(["1", "2"]))  # not {1} or {2}
    with pytest.raises(ValueError):
        swap.mask(1 << 5)


def test_zero_diagonal_odd_subsets_singular():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = random_symmetric(rng, n)
        zero_diag = SymmetricBinaryMatrix(
            m.labels, tuple(row & ~(1 << i) for i, row in enumerate(m.rows))
        )
        assert all(x.bit_count() % 2 == 0 for x in zero_diag.feasible_masks())


def test_ppt_examples():
    ident = matrix("12", "10", "01")
    assert ident.ppt(["1"]) == ident
    assert matrix("12", "11", "10").ppt(["1"]) == matrix("12", "11", "11")
    swap = matrix("12", "01", "10")
    assert swap.ppt(["1", "2"]) == swap
    with pytest.raises(ValueError):
        swap.ppt(["1"])  # singular pivot block


def _assert_ppt_matches_definition(m, x):
    n = m.size
    entries = [[m.rows[i] >> j & 1 for j in range(n)] for i in range(n)]
    pairs = ppt_ref(entries, {i for i in range(n) if x >> i & 1})
    if pairs is None:
        with pytest.raises(ValueError, match="pivot block is singular"):
            m.ppt(x)
        return False
    pivoted = m.ppt(x)
    for x2, y2 in pairs:
        assert tuple(sum((pivoted.rows[i] >> j & 1) * x2[j] for j in range(n)) % 2 for i in range(n)) == y2
    return True


def test_ppt_matches_definition_exhaustive_small():
    for n in range(0, 5):
        for m in all_symmetric(n):
            for x in range(1 << n):
                _assert_ppt_matches_definition(m, x)


def test_ppt_matches_definition_random():
    rng = random.Random(12)
    outcomes = set()
    for n in range(5, 9):
        for _ in range(8):
            m = random_symmetric(rng, n)
            for _ in range(6):
                outcomes.add(_assert_ppt_matches_definition(m, rng.getrandbits(n)))
    assert outcomes == {False, True}


def _feasible_by_elimination(m):
    out = []
    for x in range(1 << m.size):
        positions = [i for i in range(m.size) if x >> i & 1]
        if det_elimination_ref([[m.rows[i] >> j & 1 for j in positions] for i in positions]):
            out.append(x)
    return tuple(out)


def test_feasible_masks_match_elimination_exhaustive_small():
    for n in range(0, 5):
        for m in all_symmetric(n):
            assert m.feasible_masks() == _feasible_by_elimination(m)


def test_feasible_masks_match_elimination_random():
    rng = random.Random(9)
    for n in range(5, 11):
        for _ in range(40):
            m = random_symmetric(rng, n)
            assert m.feasible_masks() == _feasible_by_elimination(m)


def test_feasible_masks_match_shift_extraction():
    """The determinant bits read as a string are those read by one shift
    per subset."""
    rng = random.Random(21)
    cases = [random_symmetric(rng, n) for n in range(13) for _ in range(4)]
    for m in cases + [random_symmetric(rng, 16)]:
        dets = gf2._principal_minors(m.rows, m.size)
        assert m.feasible_masks() == tuple(x for x in range(1 << m.size) if dets >> x & 1), m


def test_principal_minors_read_only_the_leading_block():
    """Bits at or above column k and rows past k change nothing: the
    recursion hands its bases rows that carry such bits."""
    rng = random.Random(28)
    for k in range(7):
        for _ in range(60):
            rows = random_symmetric(rng, k).rows
            dets = gf2._principal_minors(rows, k)
            junk = [row | rng.getrandbits(8) << k for row in rows]
            junk += [rng.getrandbits(k + 8) for _ in range(rng.randint(1, 3))]
            assert gf2._principal_minors(junk, k) == dets, (k, rows, junk)


def test_feasible_sets_never_pivot(monkeypatch):
    """The ppt suite checks the pivoting identity against these
    determinants, so computing them must not pivot."""
    def no_pivot(self, subset):
        raise AssertionError("ppt called")

    monkeypatch.setattr(SymmetricBinaryMatrix, "ppt", no_pivot)
    rng = random.Random(29)
    cases = [m for n in range(5) for m in all_symmetric(n)]
    cases += [random_symmetric(rng, n) for n in range(5, 11) for _ in range(20)]
    for m in cases:
        assert m.delta_matroid().feasible == m.feasible_masks()


def test_delta_matroid_of_matrix_examples():
    assert matrix("1", "1").delta_matroid() == SetSystem(("1",), (0, 1))
    assert matrix("12", "01", "10").delta_matroid() == SetSystem(("1", "2"), (0, 3))
    assert matrix("12", "11", "11").delta_matroid() == SetSystem(("1", "2"), (0, 1, 2))


def test_delta_matroid_over_max_ground_is_refused_before_the_determinants(monkeypatch):
    """25 labels would cost 2^25 principal determinants before the set
    system refused them."""
    def no_minors(rows, k):
        raise AssertionError("principal minors computed")

    monkeypatch.setattr(gf2, "_principal_minors", no_minors)
    identity = SymmetricBinaryMatrix(tuple(f"x{i}" for i in range(25)), tuple(1 << i for i in range(25)))
    with pytest.raises(ValueError, match="ground set larger than 24 elements"):
        identity.delta_matroid()


def test_matrix_delta_matroids_satisfy_exchange_and_are_normal():
    rng = random.Random(3)
    for _ in range(60):
        d = random_symmetric(rng, rng.randint(0, 5)).delta_matroid()
        assert is_normal(d)
        assert is_delta_matroid(d)


def test_pivot_nonsingularity_shift_exhaustive_n3():
    for m in all_symmetric(3):
        ind = set(m.feasible_masks())
        for x in ind:
            pivoted = m.ppt(x)
            ind2 = set(pivoted.feasible_masks())
            for y in range(8):
                assert (y in ind2) == ((x ^ y) in ind)
            assert pivoted.ppt(x) == m


def test_twist_representation_correspondence():
    rng = random.Random(4)
    for _ in range(40):
        m = random_symmetric(rng, rng.randint(1, 6))
        d = m.delta_matroid()
        x = rng.choice(d.feasible)
        assert m.ppt(x).delta_matroid() == d.twist(x)


def test_reconstruction_examples():
    assert reconstruct_basic_matrix(catalog.get("D3")) == matrix("abc", "100", "010", "001")
    assert reconstruct_basic_matrix(SetSystem(("a",), (0,))) == matrix("a", "0")
    with pytest.raises(ValueError):
        reconstruct_basic_matrix(SetSystem(("a",), (1,)))  # not normal


def test_reconstruction_round_trip_exhaustive_small():
    for n in range(0, 4):
        for m in all_symmetric(n):
            assert reconstruct_basic_matrix(m.delta_matroid()) == m


def test_reconstruction_round_trip_random_n5():
    rng = random.Random(5)
    for _ in range(100):
        m = random_symmetric(rng, 5)
        assert reconstruct_basic_matrix(m.delta_matroid()) == m


def test_basic_binary_and_binary_examples():
    assert not is_binary(catalog.get("B1"))
    assert not is_binary(catalog.get("D3"))
    assert not is_basic_binary(catalog.get("D3"))
    rng = random.Random(6)
    for _ in range(30):
        m = random_symmetric(rng, rng.randint(1, 5))
        d = m.delta_matroid()
        assert is_basic_binary(d)
        a = rng.randrange(d.full_mask + 1)
        assert is_binary(d.twist(a))


def test_basic_binary_even_iff_no_singletons():
    rng = random.Random(7)
    for _ in range(40):
        d = random_symmetric(rng, rng.randint(1, 5)).delta_matroid()
        no_singletons = not any(f.bit_count() == 1 for f in d.feasible)
        assert is_even(d) == no_singletons


def test_binary_closed_under_twisted_duals_and_minors():
    rng = random.Random(8)
    for _ in range(20):
        m = random_symmetric(rng, rng.randint(2, 4))
        d = m.delta_matroid()
        e = rng.choice(d.labels)
        b = d.element_bit(e)
        for t in (d.twist(b), d.loop_complement(b), d.delete(e), d.contract(e),
                  d.penrose_contract(e)):
            if t.is_proper:
                assert is_binary(t)


def test_non_delta_matroid_is_not_binary():
    assert not is_binary(catalog.get("S3"))


def test_matrix_delta_matroids_satisfy_exchange_exhaustive_small():
    for n in range(5):
        for m in all_symmetric(n):
            assert check_symmetric_exchange(m.delta_matroid()) is None, m


def test_is_binary_needs_no_separate_exchange_check():
    def old_form(s):
        return is_delta_matroid(s) and is_basic_binary(s.twist(s.feasible[0]))

    systems = [
        SetSystem(tuple("abc"[:n]), tuple(f for f in range(1 << n) if bits >> f & 1))
        for n in range(4)
        for bits in range(1, 1 << (1 << n))
    ]
    rng = random.Random(12)
    for n in range(4, 7):
        labels = tuple(str(i + 1) for i in range(n))
        for _ in range(40):
            d = random_symmetric(rng, n).delta_matroid()
            systems.append(d.twist(rng.randrange(d.full_mask + 1)))
            bits = rng.randrange(1, 1 << (1 << n))
            systems.append(SetSystem(labels, tuple(f for f in range(1 << n) if bits >> f & 1)))
        for name in catalog.names():
            s = catalog.get(name)
            if s.size == n:
                systems.append(s.twist(rng.randrange(s.full_mask + 1)))
    verdicts = set()
    for s in systems:
        expected = old_form(s)
        assert is_binary(s) == expected, s
        verdicts.add((is_delta_matroid(s), expected))
    assert verdicts == {(False, False), (True, False), (True, True)}
