import random

import pytest

from deltamatroids import catalog
from deltamatroids.duality import (
    dual_pivot,
    find_catalog_3_minor,
    is_vf_safe,
    is_vf_safe_via_obstruction,
    orbit,
    twisted_duals_wrt,
)
from deltamatroids.setsystem import SetSystem, canonical_key


def sysf(labels, *sets):
    return SetSystem.from_sets(tuple(labels), [tuple(s) for s in sets])


def all_proper(n, labels="abcd"):
    labs = tuple(labels[:n])
    for bits in range(1, 1 << (1 << n)):
        yield SetSystem(labs, tuple(i for i in range(1 << n) if bits >> i & 1))


def random_proper(rng, max_n):
    n = rng.randint(1, max_n)
    bits = rng.randrange(1, 1 << (1 << n))
    return SetSystem(tuple("abcdef"[:n]), tuple(i for i in range(1 << n) if bits >> i & 1))


def test_twisted_duals_wrt_examples():
    s = sysf("e", "")
    duals = twisted_duals_wrt(s, s.mask(["e"]))
    assert len(duals) == 3
    assert {d.feasible for d in duals} == {(0,), (1,), (0, 1)}
    assert twisted_duals_wrt(s, 0) == [s]
    s3 = sysf("abc", "", "abc")
    assert catalog.get("D3").feasible in {
        d.feasible for d in twisted_duals_wrt(s3, s3.full_mask)
    }
    assert all(len(twisted_duals_wrt(t, t.full_mask)) <= 6 for t in all_proper(2, "ab"))


def test_orbit_examples():
    assert orbit(catalog.get("S3"), up_to_iso=True).size == 28
    assert orbit(SetSystem((), (0,))).size == 1
    small = orbit(sysf("e", ""))
    assert small.size == 3
    assert small.generator_log[(0,)] is None  # the seed


def test_orbit_guard():
    with pytest.raises(ValueError):
        orbit(SetSystem(tuple(f"x{i}" for i in range(9)), (0,)))


def test_orbit_membership_symmetric():
    rng = random.Random(2)
    for _ in range(25):
        s = random_proper(rng, 3)
        members = orbit(s).members
        t = members[rng.randrange(len(members))]
        assert s.feasible in {m.feasible for m in orbit(t).members}


def test_generator_log_is_spanning():
    s = catalog.get("S3")
    log = orbit(s).generator_log
    # every state walks back to the seed
    for state in log:
        seen = set()
        cur = state
        while log[cur] is not None:
            assert cur not in seen
            seen.add(cur)
            cur = log[cur][0]
        assert cur == s.feasible


def test_dual_pivot_examples():
    d = catalog.get("B1")
    assert dual_pivot(d, 0) == d
    rng = random.Random(3)
    for _ in range(30):
        s = random_proper(rng, 4)
        v = rng.randrange(s.size)
        assert dual_pivot(dual_pivot(s, 1 << v), 1 << v) == s
    dp3 = sysf("abc", "", "ab", "bc")
    dk3 = sysf("abc", "", "ab", "ac", "bc")
    assert dual_pivot(dp3, ["b"]).loop_complement(["a", "c"]) == dk3


def test_vf_safe_examples():
    assert not is_vf_safe(catalog.get("D3"))
    assert is_vf_safe(catalog.get("B1"))
    assert is_vf_safe(sysf("a", ""))
    assert not is_vf_safe(catalog.get("S3"))


def test_all_28_obstructions_fail_vf_safety():
    for s in catalog.s3_twisted_duals():
        assert not is_vf_safe(s)


def test_has_catalog_3_minor_examples():
    duals = catalog.s3_twisted_duals()
    s4 = catalog.get("S4")
    match = find_catalog_3_minor(s4, duals)
    assert match is not None
    assert match.delete_mask == 0 and match.contract_mask == 0
    assert match.penrose_mask == s4.mask(["e4"])
    assert find_catalog_3_minor(catalog.get("B1"), duals) is None
    b1 = catalog.get("B1")
    assert find_catalog_3_minor(b1, [b1.canonical_form()]) is not None


def test_obstruction_equivalence_exhaustive_small():
    for n in range(1, 4):
        for s in all_proper(n):
            assert is_vf_safe(s) == is_vf_safe_via_obstruction(s)


def test_vf_safety_closed_under_three_minors():
    # random vf-safe systems stay vf-safe under every realizable minor
    rng = random.Random(5)
    checked = 0
    while checked < 12:
        s = random_proper(rng, 4)
        if not is_vf_safe(s):
            continue
        checked += 1
        for m in s.enumerate_three_minors(include_self=False):
            assert is_vf_safe(m)


def test_three_minors_of_twisted_duals_are_twisted_duals_of_three_minors():
    rng = random.Random(6)
    for _ in range(10):
        s = random_proper(rng, 3)
        minor_keys = set()
        for m in s.enumerate_three_minors(True):
            for t in orbit(m, up_to_iso=True).members:
                minor_keys.add(canonical_key(t))
        for t in orbit(s).members:
            for m2 in t.enumerate_three_minors(True):
                assert canonical_key(m2) in minor_keys


def _three_block_forms(s, require_x_in_z):
    out = set()
    n = s.size
    for z in range(1 << n):
        for x in range(1 << n):
            if require_x_in_z and x & ~z:
                continue
            sx = s.twist(x)
            for y in range(1 << n):
                out.add(sx.loop_complement(y).twist(z).feasible)
    return out


def test_every_twisted_dual_has_three_block_form():
    # each orbit member is ((S*X)+Y)*Z for unrestricted X, Y, Z
    rng = random.Random(7)
    for _ in range(8):
        s = random_proper(rng, 3)
        members = {m.feasible for m in orbit(s).members}
        assert _three_block_forms(s, require_x_in_z=False) == members


def test_x_in_z_restricted_form_misses_some_orbits():
    # restricting the three-block form to X <= Z provably loses one of the
    # six per-element words ((S*e)+e), and some orbits notice: this
    # 54-member orbit is covered except for a single system
    s = sysf("abc", "a", "b", "c")
    members = {m.feasible for m in orbit(s).members}
    restricted = _three_block_forms(s, require_x_in_z=True)
    assert restricted < members
    assert len(members) == 54 and len(restricted) == 53
