"""Hypothesis property tests for the operation algebra."""

import hypothesis.strategies as st
from hypothesis import given, settings

from deltamatroids.exchange import is_delta_matroid, is_even, is_normal
from deltamatroids.setsystem import ElementClass, SetSystem

from _reference import family_of, loop_complement_ref, to_sets


@st.composite
def proper_systems(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bits = draw(st.integers(min_value=1, max_value=(1 << (1 << n)) - 1))
    labels = tuple("abcdef"[:n])
    return SetSystem(labels, tuple(i for i in range(1 << n) if bits >> i & 1))


@st.composite
def systems_with_subset(draw, max_n=5):
    s = draw(proper_systems(max_n))
    a = draw(st.integers(min_value=0, max_value=s.full_mask))
    return s, a


@given(systems_with_subset())
def test_twist_involution(case):
    s, a = case
    assert s.twist(a).twist(a) == s


@given(systems_with_subset())
def test_loop_complement_involution(case):
    s, a = case
    assert s.loop_complement(a).loop_complement(a) == s


@given(systems_with_subset(), st.integers(min_value=0))
def test_twist_composes_by_symmetric_difference(case, b_seed):
    s, a = case
    b = b_seed % (s.full_mask + 1)
    assert s.twist(a).twist(b) == s.twist(a ^ b)


@given(systems_with_subset(), st.integers(min_value=0))
def test_disjoint_commutation(case, b_seed):
    s, a = case
    b = (b_seed % (s.full_mask + 1)) & ~a
    assert s.loop_complement(a).twist(b) == s.twist(b).loop_complement(a)


@given(systems_with_subset())
def test_triple_alternation(case):
    s, a = case
    assert s.loop_complement(a).twist(a).loop_complement(a) == \
        s.twist(a).loop_complement(a).twist(a)


@given(proper_systems(max_n=4))
@settings(max_examples=60)
def test_loop_complement_fold_matches_parity_oracle(s):
    ground, family = to_sets(s)
    full = s.full_mask
    for a in (full, full >> 1, 1):
        expected = loop_complement_ref(ground, family, frozenset(s.subset_labels(a)))
        assert family_of(s.loop_complement(a)) == expected


@given(systems_with_subset())
def test_operations_preserve_properness_and_ground(case):
    s, a = case
    for t in (s.twist(a), s.loop_complement(a), s.dual()):
        assert t.is_proper
        assert t.labels == s.labels
        assert len(t.feasible) == len(s.feasible) or t is not s  # twists keep size
    assert len(s.twist(a).feasible) == len(s.feasible)


@given(proper_systems())
def test_minor_collapse_classification(s):
    for e in s.labels:
        collapse = s.delete(e) == s.contract(e) == s.penrose_contract(e)
        assert collapse == (s.classify_element(e) is not ElementClass.ORDINARY)


@given(proper_systems(max_n=4), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_delta_matroid_twists_stay_delta_matroids(s, rng):
    if not is_delta_matroid(s):
        return
    a = rng.randrange(s.full_mask + 1)
    t = s.twist(a)
    assert is_delta_matroid(t)
    assert is_even(t) == is_even(s)
    f = rng.choice(s.feasible)
    assert is_normal(s.twist(f))


@given(proper_systems(max_n=4), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_delta_matroid_minors_stay_delta_matroids(s, rng):
    if not is_delta_matroid(s) or s.size < 2:
        return
    e, f = rng.sample(s.labels, 2)
    assert is_delta_matroid(s.delete(e))
    assert is_delta_matroid(s.contract(e))
    assert s.delete(e).contract(f) == s.contract(f).delete(e)


@given(proper_systems(max_n=4))
@settings(max_examples=60)
def test_dual_of_dual(s):
    assert s.dual().dual() == s
