"""The indicator walk behind the three-operation-minor scans agrees with
the direct scan: every role assignment in itertools.product order, each
minor formed by the closed form three_minor and matched through
canonical_key (or, for the circle-obstruction classes, the labeled
closure of _reference.ClosureTester)."""

import functools
import itertools
import random

from deltamatroids import catalog
from deltamatroids.duality import CatalogIndex, MinorMatch, find_catalog_3_minor, orbit
from deltamatroids.gf2 import SymmetricBinaryMatrix
from deltamatroids.graphs import circle_obstructions, is_ribbon_graphic
from deltamatroids.setsystem import SetSystem, UnrealizableMinorError, canonical_key, labelings

from _reference import closure_tester


def proper_systems(n):
    labels = tuple("abcdef"[:n])
    for bits in range(1, 1 << (1 << n)):
        yield SetSystem(labels, tuple(f for f in range(1 << n) if bits >> f & 1))


@functools.lru_cache(maxsize=None)
def assignments(n, sizes=None):
    """(X, Y, Z) for every role assignment in product order whose minor
    has a ground size in sizes (all when None)."""
    out = []
    for assign in itertools.product(range(4), repeat=n):
        masks = [0, 0, 0, 0]
        for i, role in enumerate(assign):
            masks[role] |= 1 << i
        _, x, y, z = masks
        if sizes is None or n - (x | y | z).bit_count() in sizes:
            out.append((x, y, z))
    return tuple(out)


def scan(system, sizes=None):
    """(X, Y, Z, minor) for every realizable assignment, in product order."""
    for x, y, z in assignments(system.size, sizes):
        try:
            yield x, y, z, system.three_minor(x, y, z)
        except UnrealizableMinorError:
            continue


def scan_find(system, entries):
    keys = {}
    for i, e in enumerate(entries):
        keys.setdefault(canonical_key(e), i)
    for x, y, z, m in scan(system, frozenset(e.size for e in entries)):
        if canonical_key(m) in keys:
            return MinorMatch(x, y, z, keys[canonical_key(m)])
    return None


def scan_enumerate(system, include_self):
    out, seen = [], set()
    for x, y, z, m in scan(system):
        if (x | y | z or include_self) and canonical_key(m) not in seen:
            seen.add(canonical_key(m))
            out.append(m)
    return out


def class_keys(*names):
    return {canonical_key(m) for name in names
            for m in orbit(catalog.get(name), up_to_iso=True).members}


def binary_corollary_entries():
    return orbit(catalog.get("B1"), up_to_iso=True).members + catalog.s3_twisted_duals()


def random_family(rng, n, density):
    fam = tuple(f for f in range(1 << n) if rng.random() < density)
    return SetSystem(tuple("abcdef"[:n]), fam or (rng.randrange(1 << n),))


def random_matrix_system(rng, n):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return SymmetricBinaryMatrix(tuple("abcdef"[:n]), tuple(rows)).delta_matroid()


def seeded_systems(seed, sizes, count):
    """Dense and sparse random families and binary delta-matroids."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        for _ in range(count):
            out.append(random_family(rng, n, 0.5))
            out.append(random_family(rng, n, 3 / (1 << n)))
            out.append(random_matrix_system(rng, n))
    return out


def test_walk_yields_the_realizable_assignments_in_scan_order():
    systems = [s for n in range(4) for s in proper_systems(n)] + seeded_systems(1, (4, 5), 15)
    for s in systems:
        walked = list(s.iter_three_minors())
        assert [w[:3] for w in walked] == [t[:3] for t in scan(s)], s
        for x, y, z, leaf in walked:
            kept = [i for i in range(s.size) if not (x | y | z) >> i & 1]
            minor = s.three_minor(x, y, z)
            spread = {sum(1 << kept[j] for j in range(len(kept)) if f >> j & 1)
                      for f in minor.feasible}
            assert leaf == sum(1 << f for f in spread)
        for sizes in (frozenset({2}), frozenset({1, 3})):
            assert ([w[:3] for w in s.iter_three_minors(sizes)]
                    == [t[:3] for t in scan(s, sizes)])


def test_find_and_ribbon_match_scan_on_every_small_system():
    """Against the S3 twisted duals and the B1 and S3 classes, which are
    all there is to ribbon-graphic recognition below six elements."""
    duals = catalog.s3_twisted_duals()
    index = CatalogIndex(duals)
    keys = {}
    for i, e in enumerate(duals):
        keys.setdefault(canonical_key(e), i)
    obstruction = class_keys("B1", "S3")
    hits = ribbon = total = 0
    for n in range(5):
        for s in proper_systems(n):
            match, rg = None, True
            for x, y, z, m in scan(s, frozenset({3})):
                k = canonical_key(m)
                rg = rg and k not in obstruction
                if k in keys:  # the S3 duals lie in the obstruction classes
                    match = MinorMatch(x, y, z, keys[k])
                    break
            assert find_catalog_3_minor(s, index) == match, s
            assert is_ribbon_graphic(s) == rg, s
            hits += match is not None
            ribbon += rg
            total += 1
    assert 0 < hits < total and 0 < ribbon < total


def test_find_catalog_3_minor_matches_scan_seeded():
    entries = binary_corollary_entries()
    index = CatalogIndex(entries)
    found = 0
    for s in seeded_systems(5, (5, 6), 8):
        expected = scan_find(s, entries)
        assert find_catalog_3_minor(s, index) == expected, s
        found += expected is not None
    assert 0 < found < 48


def test_is_ribbon_graphic_matches_scan_seeded():
    small = class_keys("B1", "S3")
    w5 = next(g.delta_matroid() for g in circle_obstructions() if g.size == 6)
    # the labeled closure of the 6-element circle-obstruction class (15 552 states)
    tester = closure_tester(w5)
    systems = seeded_systems(7, (5, 6), 6) + [
        w5, w5.twist(0b000101), w5.loop_complement(0b110000),
        w5.loop_complement(0b000011).twist(0b000010),
    ]
    verdicts = []
    for s in systems:
        expected = True
        for _, _, _, m in scan(s, frozenset({3, 6})):
            if m.size == 3 and canonical_key(m) in small or tester.matches(m):
                expected = False
                break
        assert is_ribbon_graphic(s) == expected, s
        verdicts.append(expected)
    assert verdicts[-4:] == [False] * 4
    assert True in verdicts and False in verdicts[:-4]


def test_enumerate_three_minors_matches_scan():
    systems = [s for n in range(4) for s in proper_systems(n)] + seeded_systems(3, (4, 5), 4)
    for s in systems:
        for include_self in (True, False):
            assert s.enumerate_three_minors(include_self) == scan_enumerate(s, include_self), s


def test_shared_index_answers_independent_of_visiting_order():
    """The entry indices a CatalogIndex fills on first hits depend on the
    leaf alone: one index shared forward, one shared in reverse and a
    fresh index per system give the same witnesses."""
    entries = binary_corollary_entries()
    systems = [s for n in range(4) for s in proper_systems(n)] + seeded_systems(9, (5,), 4)
    fresh = [find_catalog_3_minor(s, CatalogIndex(entries)) for s in systems]
    forward_index, reverse_index = CatalogIndex(entries), CatalogIndex(entries)
    forward = [find_catalog_3_minor(s, forward_index) for s in systems]
    reverse = [find_catalog_3_minor(s, reverse_index) for s in reversed(systems)][::-1]
    assert forward == reverse == fresh
    assert None in fresh and len({m.catalog_index for m in fresh if m}) > 1


def test_a_hit_reports_the_first_isomorphic_entry():
    duals = catalog.s3_twisted_duals()
    e = next(d for d in duals if len(set(labelings(d.feasible, d.size))) > 1)
    relabeled = SetSystem(e.labels, max(set(labelings(e.feasible, e.size)) - {e.feasible}))
    f = next(d for d in duals if canonical_key(d) != canonical_key(e))
    index = CatalogIndex([e, relabeled, f])
    for s, expected in ((relabeled, 0), (e, 0), (f, 2)):
        assert find_catalog_3_minor(s, index) == MinorMatch(0, 0, 0, expected), s


def test_each_distinct_leaf_forms_its_minor_once(monkeypatch):
    """On one shared index a hit calls three_minor only for a (kept, leaf)
    it has not seen, whatever the ground size; later hits of that leaf are
    a dict lookup."""
    index = CatalogIndex(catalog.s3_twisted_duals())
    systems = list(proper_systems(3)) + seeded_systems(13, (4,), 40)
    calls = 0
    three_minor = SetSystem.three_minor

    def counted(self, *masks):
        nonlocal calls
        calls += 1
        return three_minor(self, *masks)

    monkeypatch.setattr(SetSystem, "three_minor", counted)
    pairs, hits = set(), 0
    for s in systems:
        match = find_catalog_3_minor(s, index)
        if match is not None:
            x, y, z = match.delete_mask, match.contract_mask, match.penrose_mask
            leaf = next(w[3] for w in s.iter_three_minors() if w[:3] == (x, y, z))
            pairs.add((s.full_mask & ~(x | y | z), leaf))
            hits += 1
    assert 1 <= calls <= len(pairs) < hits


def test_one_table_per_kept_mask_serves_every_ground_size():
    """One S3-dual index shared over every proper system on at most 3
    elements and 200 seeded 4-element ones builds a table only for each
    3-element kept mask of 4 bits, and finds the witnesses that a fresh
    index per system finds."""
    entries = catalog.s3_twisted_duals()
    rng = random.Random(35)
    systems = [s for n in range(4) for s in proper_systems(n)]
    systems += [random_family(rng, 4, 0.5) for _ in range(200)]
    shared = CatalogIndex(entries)
    found = [find_catalog_3_minor(s, shared) for s in systems]
    assert found == [find_catalog_3_minor(s, CatalogIndex(entries)) for s in systems]
    assert None in found and any(found)
    assert set(shared._tables) == {0b0111, 0b1011, 0b1101, 0b1110}
