import random

import pytest

from deltamatroids import catalog, duality, exchange, setsystem
from deltamatroids.duality import (
    CatalogIndex,
    dual_pivot,
    find_catalog_3_minor,
    is_vf_safe,
    is_vf_safe_via_obstruction,
    orbit,
    twisted_duals_wrt,
)
from deltamatroids.setsystem import SetSystem, canonical_key, indicator
from deltamatroids.verify import verify_main_theorem

from _helpers import all_proper, sysf
from _reference import (
    family_of,
    labeled_closure_ref,
    loop_complement_ref,
    orbit_up_to_iso_ref,
    symmetric_exchange_ref,
    to_sets,
    twist_ref,
)


def random_proper(rng, max_n, min_n=1):
    n = rng.randint(min_n, max_n)
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


def test_orbit_guard(monkeypatch):
    """Both modes refuse a ground set over ORBIT_GUARD before any twist
    or canonical form."""
    def no_work(*args):
        raise AssertionError("work before the guard")

    monkeypatch.setattr(SetSystem, "twist", no_work)
    monkeypatch.setattr(SetSystem, "canonical_form", no_work)
    for up_to_iso in (False, True):
        with pytest.raises(ValueError, match="orbit guard: ground sets over 8 elements"):
            orbit(SetSystem(tuple(f"x{i}" for i in range(9)), (0,)), up_to_iso)


def test_orbit_up_to_iso_guard(monkeypatch):
    """Up to isomorphism an 8-element input is refused before the closure
    is built; the labeled closure still admits it."""
    empty8 = SetSystem(tuple(f"x{i}" for i in range(8)), (0,))
    assert orbit(empty8).size == 3 ** 8

    def no_work(*args):
        raise AssertionError("work before the guard")

    monkeypatch.setattr(SetSystem, "twist", no_work)
    with pytest.raises(ValueError, match="orbit guard: ground sets over 7 elements"):
        orbit(empty8, up_to_iso=True)


def test_orbit_up_to_iso_is_the_canonical_labeled_closure():
    """The class sweep gives the canonical forms of the labeled members,
    on every proper system with at most 3 elements, every catalog entry
    with at most 5 and seeded random systems on 4 and 5 elements."""
    systems = [s for n in range(4) for s in all_proper(n, "abc")]
    systems += [catalog.get(name) for name in catalog.names() if catalog.get(name).size <= 5]
    rng = random.Random(25)
    systems += [random_proper(rng, 4, min_n=4) for _ in range(28)]
    systems += [random_proper(rng, 5, min_n=5) for _ in range(2)]
    for s in systems:
        assert orbit(s, up_to_iso=True).members == orbit_up_to_iso_ref(s), str(s)


def test_orbit_membership_symmetric():
    rng = random.Random(2)
    for _ in range(25):
        s = random_proper(rng, 3)
        members = orbit(s).members
        t = members[rng.randrange(len(members))]
        assert s.feasible in {m.feasible for m in orbit(t).members}


def _closure_ref(system):
    """Feasible families reached from the system by single-element
    twists and loop complementations, by definition on frozensets."""
    ground, family = to_sets(system)
    seen = {family}
    frontier = [family]
    while frontier:
        nxt = []
        for fam in frontier:
            for e in ground:
                a = frozenset([e])
                for child in (twist_ref(fam, a), loop_complement_ref(ground, fam, a)):
                    if child not in seen:
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
    return seen


def test_orbit_members_are_the_definitional_closure():
    rng = random.Random(12)
    systems = [s for n in range(4) for s in all_proper(n, "abcd")]
    systems += [SetSystem(tuple("abcd"), tuple(i for i in range(16) if bits >> i & 1))
                for bits in rng.sample(range(1, 1 << 16), 10)]
    for s in systems:
        got = {family_of(m) for m in orbit(s).members}
        assert got == _closure_ref(s), str(s)


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


@pytest.fixture
def empty_vf_caches(monkeypatch):
    """Empty vf-safety and symmetric-exchange caches for one test."""
    monkeypatch.setattr(duality, "_vf_cache", {})
    monkeypatch.setattr(exchange, "_se_cache", {})


def _vf_safe_ref(s, verdicts):
    """Symmetric exchange on every member of the definitional closure;
    verdicts maps (n, family) to its class's verdict, one closure per class."""
    key = (s.size, family_of(s))
    if key not in verdicts:
        closure = _closure_ref(s)
        safe = all(symmetric_exchange_ref(fam) for fam in closure)
        verdicts.update(((s.size, fam), safe) for fam in closure)
    return verdicts[key]


def test_vf_safe_caches_agree_with_the_definitional_closure(empty_vf_caches):
    """From empty caches, is_vf_safe is symmetric exchange on every member
    of the definitional closure, on every proper system with at most 3
    elements and on 200 seeded 4-element systems; both caches hold ints."""
    rng = random.Random(34)
    systems = [s for n in range(4) for s in all_proper(n, "abc")]
    systems += [random_proper(rng, 4, min_n=4) for _ in range(200)]
    verdicts = {}
    for s in systems:
        assert is_vf_safe(s) == _vf_safe_ref(s, verdicts), str(s)
    for cache in (duality._vf_cache, exchange._se_cache):
        assert cache and all(type(k) is int for k in cache)


def test_vf_cache_is_keyed_by_the_family_alone(empty_vf_caches):
    """main-theorem on 3 elements fills one entry per proper system, and
    the same family on 4 elements adds no entry and gets the same verdict."""
    assert verify_main_theorem(3).passed
    assert len(duality._vf_cache) == 255
    duality._vf_cache.clear()
    on3 = SetSystem(tuple("abc"), (0,))
    assert is_vf_safe(on3)
    filled = dict(duality._vf_cache)
    assert len(filled) == orbit(on3).size
    assert is_vf_safe(SetSystem(tuple("abcd"), (0,)))
    assert duality._vf_cache == filled


def test_vf_safe_with_a_loop_label_agrees_with_each_ground_set(empty_vf_caches):
    """For every proper S on at most 3 elements and S with one more label
    (the same masks), either query order from empty caches gives each
    system the verdict of its own definitional closure."""
    verdicts = {}
    for s in (s for n in range(4) for s in all_proper(n, "abc")):
        wider = SetSystem(tuple("abcd"[:s.size + 1]), s.feasible)
        for pair in ((s, wider), (wider, s)):
            duality._vf_cache.clear()
            exchange._se_cache.clear()
            for t in pair:
                assert is_vf_safe(t) == _vf_safe_ref(t, verdicts), str(t)


def test_orbit_and_vf_cache_hold_the_six_word_closure(empty_vf_caches):
    """orbit's members, in order, and the _vf_cache entries one is_vf_safe
    call adds are the six-word closure of twisted_duals_wrt, on every
    proper system with at most 3 elements and seeded 4-, 5- and 6-element
    systems."""
    rng = random.Random(36)
    systems = [s for n in range(4) for s in all_proper(n, "abc")]
    systems += [random_proper(rng, n, min_n=n) for n, count in ((4, 40), (5, 6), (6, 2)) for _ in range(count)]
    for s in systems:
        closure = labeled_closure_ref(s)
        assert orbit(s).members == tuple(closure[f] for f in sorted(closure)), str(s)
        duality._vf_cache.clear()
        is_vf_safe(s)
        assert set(duality._vf_cache) == {indicator(f) for f in closure}, str(s)


def _fold_ref(system):
    """The families of the fold of S, S + i and (S * i) + i over each
    element i, by definition on frozensets."""
    ground, family = to_sets(system)
    states = {family}
    for e in ground:
        a = frozenset([e])
        states = {w for f in states for w in
                  (f, loop_complement_ref(ground, f, a), loop_complement_ref(ground, twist_ref(f, a), a))}
    return states


def test_vf_safe_checks_exchange_on_the_folded_states(monkeypatch, empty_vf_caches):
    """From an empty vf cache, one closure checks exchange on at most 3^n
    distinct families, on every proper system with at most 3 elements and
    seeded 4-element ones; for the vf-safe B1 they are exactly the fold's
    states, and D3, S3 and B1 keep their verdicts."""
    checked = []
    cached = duality.is_delta_matroid_cached

    def recorded(system):
        checked.append(system.feasible)
        return cached(system)

    monkeypatch.setattr(duality, "is_delta_matroid_cached", recorded)
    rng = random.Random(37)
    systems = [s for n in range(4) for s in all_proper(n, "abc")]
    systems += [random_proper(rng, 4, min_n=4) for _ in range(60)]
    for s in systems:
        duality._vf_cache.clear()
        checked.clear()
        is_vf_safe(s)
        assert checked and len(set(checked)) <= 3 ** s.size, str(s)
    duality._vf_cache.clear()
    assert not is_vf_safe(catalog.get("D3")) and not is_vf_safe(catalog.get("S3"))
    checked.clear()
    b1 = catalog.get("B1")
    assert is_vf_safe(b1)
    assert len(checked) == len(set(checked))
    assert {family_of(SetSystem(b1.labels, f)) for f in checked} == _fold_ref(b1)


def test_vf_safe_guard_comes_before_the_key(monkeypatch):
    """A ground set over ORBIT_GUARD is refused before its indicator, whose
    2^n bits the cache key would need, or any twist is built."""
    def no_work(*args):
        raise AssertionError("work before the guard")

    for module in (setsystem, duality, exchange):
        monkeypatch.setattr(module, "indicator", no_work)
    monkeypatch.setattr(SetSystem, "twist", no_work)
    with pytest.raises(ValueError, match="orbit guard: ground sets over 8 elements"):
        is_vf_safe(SetSystem(tuple(f"x{i}" for i in range(9)), (0,)))


def test_all_28_obstructions_fail_vf_safety():
    for s in catalog.s3_twisted_duals():
        assert not is_vf_safe(s)


def test_has_catalog_3_minor_examples():
    duals = CatalogIndex(catalog.s3_twisted_duals())
    s4 = catalog.get("S4")
    match = find_catalog_3_minor(s4, duals)
    assert match is not None
    assert match.delete_mask == 0 and match.contract_mask == 0
    assert match.penrose_mask == s4.mask(["e4"])
    assert find_catalog_3_minor(catalog.get("B1"), duals) is None
    b1 = catalog.get("B1")
    assert find_catalog_3_minor(b1, CatalogIndex([b1.canonical_form()])) is not None


def test_obstruction_equivalence_exhaustive_small():
    for n in range(1, 4):
        for s in all_proper(n, "abcd"):
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
