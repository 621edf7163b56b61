"""Exhaustive small-ground verification of the interaction identities.

The random interactions suite samples these at scale; here every proper
system on up to three elements is checked at every element.
"""

import itertools

from deltamatroids.exchange import is_delta_matroid
from deltamatroids.setsystem import Op, SetSystem, UnrealizableMinorError

from _helpers import all_proper


def test_interaction_table_exhaustive_n3():
    # six twisted duals with respect to e, three removal operations each;
    # every cell lands on one of contract/delete/penrose of the original,
    # for every element, degenerate ones included
    for n in range(1, 4):
        for s in all_proper(n):
            for e in s.labels:
                b = s.element_bit(e)
                con, de, pen = s.contract(e), s.delete(e), s.penrose_contract(e)
                rows = (
                    (s, (con, de, pen)),
                    (s.twist(b), (de, con, pen)),
                    (s.loop_complement(b), (pen, de, con)),
                    (s.loop_complement(b).twist(b), (de, pen, con)),
                    (s.twist(b).loop_complement(b), (pen, con, de)),
                    (s.twist(b).loop_complement(b).twist(b), (con, pen, de)),
                )
                for base, (want_con, want_del, want_pen) in rows:
                    assert base.contract(e) == want_con
                    assert base.delete(e) == want_del
                    assert base.penrose_contract(e) == want_pen


def test_reordering_identities_exhaustive_n3():
    for n in range(2, 4):
        for s in all_proper(n):
            for a in s.labels:
                ab = s.element_bit(a)
                assert s.loop_complement(ab).delete(a) == s.delete(a)
                for b in s.labels:
                    if a == b:
                        continue
                    after_del = s.delete(b)
                    assert s.loop_complement(ab).delete(b) == \
                        after_del.loop_complement(after_del.element_bit(a))
                    after_con = s.contract(b)
                    assert s.loop_complement(ab).contract(b) == \
                        after_con.loop_complement(after_con.element_bit(a))


def test_contraction_via_twist_then_delete_exhaustive_n3():
    # S/e agrees with (S*e)\e whenever e is not a loop; with the loop
    # convention both collapse to plain deletion anyway
    for n in range(1, 4):
        for s in all_proper(n):
            for e in s.labels:
                t = s.twist(s.element_bit(e))
                assert s.contract(e) == t.delete(e)


def test_order_independence_with_witness_sampled_n3():
    # full permutation check over a deterministic slice of the 3-element
    # systems (the 2-element case is exhaustive in test_setsystem)
    ops = (None, Op.DELETE, Op.CONTRACT, Op.PENROSE)
    for bits in range(1, 256, 7):
        s = SetSystem(("a", "b", "c"), tuple(i for i in range(8) if bits >> i & 1))
        for assign in itertools.product(range(4), repeat=3):
            x = y = z = 0
            steps = []
            for i, role in enumerate(assign):
                if role == 1:
                    x |= 1 << i
                elif role == 2:
                    y |= 1 << i
                elif role == 3:
                    z |= 1 << i
                if role:
                    steps.append((s.labels[i], ops[role]))
            try:
                closed = s.three_minor(x, y, z)
            except UnrealizableMinorError:
                continue
            for order in itertools.permutations(steps):
                assert s.apply_sequence(order) == closed


def test_delta_matroid_closures_exhaustive_n3():
    # twists preserve the exchange axiom; one-element minors do too, and
    # deletion/contraction at distinct elements commute
    for s in all_proper(3):
        if not is_delta_matroid(s):
            continue
        for a in range(8):
            assert is_delta_matroid(s.twist(a))
        for e in s.labels:
            assert is_delta_matroid(s.delete(e))
            assert is_delta_matroid(s.contract(e))
        for e, f in itertools.permutations(s.labels, 2):
            assert s.delete(e).contract(f) == s.contract(f).delete(e)
