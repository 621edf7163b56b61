import pytest

from deltamatroids import catalog
from deltamatroids.duality import is_vf_safe
from deltamatroids.exchange import is_delta_matroid
from deltamatroids.setsystem import SetSystem, UnrealizableMinorError, canonical_key


def sysf(labels, *sets):
    return SetSystem.from_sets(tuple(labels), [tuple(s) for s in sets])


def test_exact_families():
    assert catalog.get("D3") == sysf("abc", "", "a", "b", "c", "ab", "ac", "bc")
    assert catalog.get("S3") == sysf(("e1", "e2", "e3"), "", ("e1", "e2", "e3"))
    assert catalog.get("T2") == sysf("abc", "", "ab", "ac", "abc")
    assert catalog.get("T8") == sysf("abcd", "", "a", "ab", "ac", "ad", "abcd")
    assert catalog.get("B1") == sysf("abc", "", "ab", "ac", "bc", "abc")
    assert catalog.get("B5") == sysf("abcd", "", "ab", "ad", "bc", "cd", "abcd")
    assert catalog.get("B2") == catalog.get("D3")


def test_unknown_name():
    with pytest.raises(KeyError):
        catalog.get("Q7")


def test_names_cover_catalog():
    expected = {"D3"} | {f"S{i}" for i in range(2, 9)} | {f"T{i}" for i in range(1, 9)} \
        | {f"B{i}" for i in range(1, 6)}
    assert set(catalog.names()) == expected


def test_s3_twisted_duals():
    duals = catalog.s3_twisted_duals()
    assert len(duals) == 28
    keys = {canonical_key(s) for s in duals}
    assert len(keys) == 28
    s3 = sysf("abc", "", "abc")
    assert canonical_key(s3.loop_complement(["a"])) in keys
    assert canonical_key(s3.twist(["a"])) in keys


def test_identity_suite_all_hold():
    checks = catalog.identity_suite()
    assert len(checks) == 18
    for c in checks:
        assert c.holds, c.name


def all_proper_minors(s):
    """Every minor of s other than s itself (over all disjoint pairs)."""
    n = s.size
    for x_bits in range(1 << n):
        for y_bits in range(1 << n):
            if x_bits & y_bits or not (x_bits | y_bits):
                continue
            try:
                yield s.three_minor(x_bits, y_bits, 0)
            except UnrealizableMinorError:
                continue


def test_excluded_minor_minimality():
    # each catalog obstruction fails the exchange axiom while every proper
    # minor of it satisfies the axiom
    names = [f"S{i}" for i in range(3, 9)] + [f"T{i}" for i in range(1, 9)]
    for name in names:
        s = catalog.get(name)
        assert not is_delta_matroid(s), name
        for m in all_proper_minors(s):
            assert is_delta_matroid(m), (name, str(m))


def test_b_family_are_delta_matroids():
    for i in range(1, 6):
        assert is_delta_matroid(catalog.get(f"B{i}")), i


def test_b2_not_vf_safe():
    assert not is_vf_safe(catalog.get("B2"))
