import itertools

import pytest

from deltamatroids import catalog
from deltamatroids.setsystem import (
    ElementClass,
    Op,
    SetSystem,
    UnrealizableMinorError,
    canonical_key,
)

from _reference import (
    family_of,
    loop_complement_ref,
    minor_ref,
    to_sets,
    twist_ref,
)


def sysf(labels, *sets):
    return SetSystem.from_sets(tuple(labels), [tuple(s) for s in sets])


S3 = sysf("abc", "", "abc")
D3 = catalog.get("D3")


def all_proper(n, labels="abc"):
    labs = tuple(labels[:n])
    for bits in range(1, 1 << (1 << n)):
        yield SetSystem(labs, tuple(i for i in range(1 << n) if bits >> i & 1))


# ----------------------------------------------------------------------
# construction


def test_construction_validates():
    with pytest.raises(ValueError):
        SetSystem(("a", "a"), (0,))
    with pytest.raises(ValueError):
        SetSystem(("a",), (0, 2))  # mask outside ground
    with pytest.raises(ValueError):
        SetSystem(("a", "b"), (2, 1))  # unsorted
    with pytest.raises(ValueError):
        SetSystem(tuple(f"x{i}" for i in range(25)), (0,))


def test_mask_round_trip():
    s = sysf("abc", "ab")
    assert s.mask(["a", "c"]) == 0b101
    assert s.subset_labels(0b101) == ("a", "c")
    with pytest.raises(ValueError):
        s.mask(["z"])
    with pytest.raises(ValueError):
        s.mask(1 << 5)


# ----------------------------------------------------------------------
# twist and dual


def test_twist_s3_single():
    assert S3.twist(["a"]) == sysf("abc", "a", "bc")


def test_twist_identity_and_involution():
    assert S3.twist(0) == S3
    for s in (S3, D3, catalog.get("T5")):
        a = s.mask(s.labels[:2])
        assert s.twist(a).twist(a) == s


def test_twist_d3_full():
    expected = sysf("abc", "a", "b", "c", "ab", "ac", "bc", "abc")
    assert D3.twist(["a", "b", "c"]) == expected


def test_twist_matches_reference_exhaustive_n3():
    for s in all_proper(3):
        ground, family = to_sets(s)
        for a_bits in range(8):
            a = frozenset(l for i, l in enumerate(ground) if a_bits >> i & 1)
            assert family_of(s.twist(a_bits)) == twist_ref(family, a)


def test_dual_examples():
    assert S3.dual() == S3
    # computed with the complement reference below
    t1 = catalog.get("T1")
    ground, family = to_sets(t1)
    assert family_of(t1.dual()) == twist_ref(family, frozenset(ground))
    assert t1.dual() == sysf("abc", "", "c", "abc")
    # complementing each feasible set of B1 gives the singleton family,
    # not B1 back; B1^* happens to equal B3 + a
    b1 = catalog.get("B1")
    ground, family = to_sets(b1)
    assert family_of(b1.dual()) == twist_ref(family, frozenset(ground))
    assert b1.dual() == sysf("abc", "", "a", "b", "c", "abc")
    assert b1.dual() == catalog.get("B3").loop_complement(["a"])


# ----------------------------------------------------------------------
# loop complementation


def test_loop_complement_examples():
    assert D3.loop_complement(["a", "b", "c"]) == sysf("abc", "", "abc")
    assert S3.loop_complement(["a"]) == sysf("abc", "", "a", "abc")


def test_loop_complement_involution():
    for s in (S3, D3, catalog.get("T7")):
        for e in s.labels:
            b = s.element_bit(e)
            assert s.loop_complement(b).loop_complement(b) == s


def test_loop_complement_fold_matches_parity_definition_exhaustive_n3():
    for s in all_proper(3):
        ground, family = to_sets(s)
        for a_bits in range(8):
            a = frozenset(l for i, l in enumerate(ground) if a_bits >> i & 1)
            expected = loop_complement_ref(ground, family, a)
            assert family_of(s.loop_complement(a_bits)) == expected
            assert s.loop_complement(a_bits) == s.loop_complement_by_parity(a_bits)


def test_loop_complement_element_order_irrelevant():
    for s in (D3, catalog.get("T8")):
        full = s.full_mask
        via_fold = s.loop_complement(full)
        for perm in itertools.permutations(s.labels):
            t = s
            for e in perm:
                t = t.loop_complement(t.element_bit(e))
            assert t == via_fold


# ----------------------------------------------------------------------
# element classification


def test_classify_examples():
    assert sysf("e", "", "e").classify_element("e") is ElementClass.PSEUDO_LOOP
    assert S3.classify_element("a") is ElementClass.ORDINARY
    assert sysf("ef", "", "f").classify_element("e") is ElementClass.LOOP
    assert sysf("ef", "e", "ef").classify_element("e") is ElementClass.COLOOP
    with pytest.raises(ValueError):
        S3.classify_element("z")


def test_classify_collapse_iff_minors_agree():
    # loop, coloop, pseudo-loop are exactly the elements where all three
    # removal operations coincide
    for s in all_proper(3):
        for e in s.labels:
            cls = s.classify_element(e)
            collapse = s.delete(e) == s.contract(e) == s.penrose_contract(e)
            assert collapse == (cls is not ElementClass.ORDINARY)


# ----------------------------------------------------------------------
# deletion / contraction / penrose contraction


def test_delete_examples():
    assert S3.delete("a") == sysf("bc", "")
    assert sysf("ef", "e", "ef").delete("e") == sysf("f", "", "f")  # coloop
    assert catalog.get("B1").delete("a") == sysf("bc", "", "bc")


def test_contract_examples():
    assert S3.contract("a") == sysf("bc", "bc")
    assert sysf("ef", "", "f").contract("e") == sysf("f", "", "f")  # loop
    assert catalog.get("T1").contract("c") == sysf("ab", "ab")


def test_penrose_examples():
    assert catalog.get("S4").penrose_contract("e4") == catalog.get("S3")
    assert catalog.get("T5").penrose_contract("d") == catalog.get("T1")
    assert catalog.get("B4").penrose_contract("d") == catalog.get("B2")


def test_minor_closed_form():
    b1 = catalog.get("B1")
    assert b1.three_minor(b1.mask(["a"]), b1.mask(["b"]), 0) == sysf("c", "c")
    assert S3.three_minor(0, 0, 0) == S3
    assert S3.three_minor(0, S3.full_mask, 0) == SetSystem((), (0,))


def test_minor_matches_reference_exhaustive_n3():
    for s in all_proper(3):
        ground, family = to_sets(s)
        for x_bits in range(8):
            for y_bits in range(8):
                if x_bits & y_bits:
                    continue
                x = frozenset(l for i, l in enumerate(ground) if x_bits >> i & 1)
                y = frozenset(l for i, l in enumerate(ground) if y_bits >> i & 1)
                expected = minor_ref(ground, family, x, y)
                if expected is None:
                    with pytest.raises(UnrealizableMinorError):
                        s.three_minor(x_bits, y_bits, 0)
                else:
                    got = s.three_minor(x_bits, y_bits, 0)
                    assert (got.labels, family_of(got)) == expected


def test_minor_errors():
    with pytest.raises(ValueError):
        S3.three_minor(1, 1, 0)
    with pytest.raises(UnrealizableMinorError):
        # no feasible set avoids a and contains b
        sysf("ab", "ab").three_minor(sysf("ab", "").mask(["a"]), 2, 0)


def test_three_minor_examples():
    t7 = catalog.get("T7")
    assert t7.three_minor(0, 0, t7.mask(["d"])) == catalog.get("T4")
    assert S3.three_minor(0, 0, 0) == S3
    b5 = catalog.get("B5")
    got = b5.three_minor(0, 0, b5.mask(["d"]))
    assert got.is_isomorphic(catalog.get("B3"))
    assert got != catalog.get("B3")  # isomorphic via a <-> b, not equal


def test_three_minor_requires_witness_and_disjointness():
    s = sysf("ab", "ab")
    with pytest.raises(ValueError):
        s.three_minor(1, 1, 0)
    # deleting a: no feasible set avoids a
    with pytest.raises(UnrealizableMinorError):
        s.three_minor(s.mask(["a"]), 0, 0)


def test_three_minor_equals_any_operation_order_exhaustive_n2():
    for s in all_proper(2, "ab"):
        for assign in itertools.product(range(4), repeat=2):
            x = y = z = 0
            steps = []
            for i, role in enumerate(assign):
                token = (s.labels[i], (None, Op.DELETE, Op.CONTRACT, Op.PENROSE)[role])
                if role == 1:
                    x |= 1 << i
                elif role == 2:
                    y |= 1 << i
                elif role == 3:
                    z |= 1 << i
                if role:
                    steps.append(token)
            try:
                closed = s.three_minor(x, y, z)
            except UnrealizableMinorError:
                continue
            for order in itertools.permutations(steps):
                assert s.apply_sequence(order) == closed


# ----------------------------------------------------------------------
# apply_sequence


def test_apply_sequence_examples():
    assert S3.apply_sequence([("a", Op.TWIST)]) == S3.twist(["a"])
    assert S3.apply_sequence([]) == S3
    t5 = catalog.get("T5")
    assert t5.apply_sequence([("d", Op.LOOP_COMPLEMENT), ("d", Op.CONTRACT)]) == catalog.get("T1")


def test_apply_sequence_missing_element():
    with pytest.raises(ValueError):
        S3.apply_sequence([("z", Op.TWIST)])


# ----------------------------------------------------------------------
# enumeration of three-operation minors


def test_enumerate_three_minors_tiny():
    s = sysf("a", "", "a")
    got = {canonical_key(m) for m in s.enumerate_three_minors(include_self=True)}
    assert got == {canonical_key(s), canonical_key(SetSystem((), (0,)))}
    assert len(s.enumerate_three_minors(include_self=False)) == 1


def test_enumerate_three_minors_s3_contains_s2():
    keys = {canonical_key(m) for m in S3.enumerate_three_minors()}
    assert canonical_key(catalog.get("S2")) in keys
    assert len(keys) >= 1


def test_enumerate_matches_sequence_closure_exhaustive_n2():
    # every reachable system via arbitrary single-element sequences shows
    # up in the closed-form enumeration, and vice versa
    for s in all_proper(2, "ab"):
        via_closed = {canonical_key(m) for m in s.enumerate_three_minors(True)}
        reached = {canonical_key(s)}
        frontier = [s]
        seen = {(s.labels, s.feasible)}
        while frontier:
            nxt = []
            for t in frontier:
                for e in t.labels:
                    for op in (Op.DELETE, Op.CONTRACT, Op.PENROSE):
                        u = t.apply_sequence([(e, op)])
                        k = (u.labels, u.feasible)
                        if k not in seen:
                            seen.add(k)
                            nxt.append(u)
                            reached.add(canonical_key(u))
            frontier = nxt
        assert via_closed == reached


# ----------------------------------------------------------------------
# canonicalization


def test_canonical_form_examples():
    t3_plus_a = catalog.get("T3").loop_complement(["a"])
    assert t3_plus_a.is_isomorphic(catalog.get("T1"))
    assert not S3.is_isomorphic(S3.twist(["a"]))


def test_canonical_invariant_under_relabeling():
    s = catalog.get("T4")
    fams = s.feasible_sets()
    for perm in itertools.permutations(s.labels):
        mapping = dict(zip(s.labels, perm))
        relabeled = SetSystem.from_sets(s.labels, [[mapping[x] for x in fs] for fs in fams])
        assert canonical_key(relabeled) == canonical_key(s)


def test_canonical_guard():
    big = SetSystem(tuple(f"x{i}" for i in range(11)), (0,))
    with pytest.raises(ValueError):
        canonical_key(big)
