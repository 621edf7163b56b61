import collections
import functools
import hashlib
import itertools
import random

import pytest

from deltamatroids import catalog, graphs
from deltamatroids.duality import dual_pivot, orbit
from deltamatroids.exchange import is_even, is_normal
from deltamatroids.graphs import (
    ChordDiagram,
    LoopedSimpleGraph,
    circle_obstructions,
    connected_graph_keys,
    find_circle_obstructions,
    circle_word,
    graph_canonical_key,
    graph_from_key,
    is_circle_graph,
    is_ribbon_graphic,
    is_vertex_minor,
    lc_orbit_keys,
)
from deltamatroids.gf2 import SymmetricBinaryMatrix, basic_rows, is_basic_binary, is_binary, reconstruct_basic_matrix
from deltamatroids.setsystem import SetSystem, canonical_key

from _reference import (
    all_double_occurrence_words,
    canon_key_ref,
    chord_diagram_words,
    circle_obstructions_ref,
    circle_word_search_ref,
    closure_tester,
    connected_graph_keys_ref,
    interlacement_ref,
    is_ribbon_graphic_ref,
    is_vertex_minor_ref,
    lc_orbit_keys_ref,
    looped_class_keys,
    relabel_ref,
    simple_graph_key_ref,
)


def graph(vertices, edges=(), loops=()):
    return LoopedSimpleGraph.from_edges(vertices, edges, loops)


P3 = graph("abc", [("a", "b"), ("b", "c")])
K3 = graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])


def wheel(rim):
    verts = [f"r{i}" for i in range(rim)] + ["hub"]
    edges = [(f"r{i}", f"r{(i + 1) % rim}") for i in range(rim)]
    edges += [("hub", f"r{i}") for i in range(rim)]
    return graph(verts, edges)


def random_loopless(rng, n):
    adj = [0] * n
    for i in range(n):
        for j in range(i):
            if rng.getrandbits(1):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return LoopedSimpleGraph(tuple("abcdefghi"[:n]), tuple(adj), 0)


def permuted(g, perm):
    """g with vertex i moved to position perm[i], loops included; the
    labels stay in place."""
    adj = [0] * g.size
    loops = 0
    for i in range(g.size):
        loops |= (g.loops >> i & 1) << perm[i]
        for j in range(g.size):
            adj[perm[i]] |= (g.adj[i] >> j & 1) << perm[j]
    return LoopedSimpleGraph(g.labels, tuple(adj), loops)


def every_loopless(n):
    """Every labeled loopless graph on the vertices 0..n-1."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        adj = [0] * n
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        yield LoopedSimpleGraph(tuple(str(i) for i in range(n)), tuple(adj), 0)


# ----------------------------------------------------------------------
# construction and basic operations


def test_validation():
    with pytest.raises(ValueError):
        LoopedSimpleGraph(("a", "b"), (0b10, 0b00), 0)  # asymmetric
    with pytest.raises(ValueError):
        LoopedSimpleGraph(("a",), (0b1,), 0)  # diagonal bit
    with pytest.raises(ValueError):
        graph("ab", [("a", "a")])


def test_delta_matroid_examples():
    assert P3.delta_matroid() == SetSystem.from_sets("abc", [(), ("a", "b"), ("b", "c")])
    looped = graph("v", loops="v")
    assert looped.delta_matroid() == SetSystem(("v",), (0, 1))
    bare = graph("uv")
    assert bare.delta_matroid() == SetSystem(("u", "v"), (0,))


def test_loop_toggle():
    g = graph("ab", [("a", "b")])
    assert g.loop_toggle("a").loop_toggle("a") == g
    assert g.loop_toggle("a").loops == 1
    assert graph("v").loop_toggle("v") == graph("v", loops="v")


def test_loop_toggle_matches_loop_complement():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 5)
        g = random_loopless(rng, n)
        for _ in range(rng.randint(0, 2)):
            g = g.loop_toggle(rng.choice(g.labels))
        v = rng.choice(g.labels)
        assert g.loop_toggle(v).delta_matroid() == g.delta_matroid().loop_complement([v])


def test_local_complement_examples():
    assert P3.local_complement("b") == K3
    assert K3.local_complement("a") == graph("abc", [("a", "b"), ("a", "c")])
    isolated_looped = graph("v", loops="v")
    assert isolated_looped.local_complement("v") == isolated_looped


def test_local_complement_involution_both_cases():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = random_loopless(rng, n)
        if rng.getrandbits(1):
            g = g.loop_toggle(rng.choice(g.labels))
        v = rng.choice(g.labels)
        assert g.local_complement(v).local_complement(v) == g


def test_non_simple_local_complement_toggles_neighbor_loops():
    g = graph("abc", [("a", "b"), ("a", "c")], loops="a")
    got = g.local_complement("a")
    assert got.has_edge("b", "c")
    assert got.loops == g.loops | 0b110  # loops appear at b and c


def test_simple_lc_decomposes_through_looped_lc():
    # simple local complementation = add a loop at v, complement there
    # (toggling neighbour loops), then strip the loops at v and N(v)
    rng = random.Random(10)
    for _ in range(40):
        g = random_loopless(rng, rng.randint(1, 6))
        v = rng.choice(g.labels)
        i = g.labels.index(v)
        staged = g.loop_toggle(v).local_complement(v)
        cleared = LoopedSimpleGraph(
            staged.labels, staged.adj, staged.loops & ~(g.adj[i] | (1 << i))
        )
        assert staged.loops == g.adj[i] | (1 << i)
        assert cleared == g.local_complement(v)


def test_local_complement_bridge():
    lhs = P3.local_complement("b").delta_matroid()
    rhs = dual_pivot(P3.delta_matroid(), ["b"]).loop_complement(P3.neighbor_mask("b"))
    assert lhs == rhs == SetSystem.from_sets("abc", [(), ("a", "b"), ("a", "c"), ("b", "c")])


def test_edge_pivot():
    e = graph("vw", [("v", "w")])
    assert e.edge_pivot("v", "w") == e
    assert P3.edge_pivot("a", "b").delta_matroid() == P3.delta_matroid().twist(["a", "b"])
    g = graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    assert g.edge_pivot("b", "c").edge_pivot("b", "c").delta_matroid() == g.delta_matroid()
    with pytest.raises(ValueError):
        P3.edge_pivot("a", "c")  # not adjacent
    with pytest.raises(ValueError):
        graph("ab", [("a", "b")], loops="a").edge_pivot("a", "b")


def test_lc_delete_commutation():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_loopless(rng, n)
        v, w = rng.sample(g.labels, 2)
        assert g.local_complement(v).delete_vertex(w) == g.delete_vertex(w).local_complement(v)


# ----------------------------------------------------------------------
# canonical labeling and enumeration


def test_canonical_key_invariant_under_relabeling():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_loopless(rng, n)
        if rng.getrandbits(1):
            g = g.loop_toggle(rng.choice(g.labels))
        perm = list(range(n))
        rng.shuffle(perm)
        assert graph_canonical_key(g) == graph_canonical_key(permuted(g, perm))


def test_canonical_key_matches_full_refinement():
    """Stopping the refinement at a round that splits no cell, or at a
    discrete partition, keeps every key: every labeled graph on at most
    4 vertices under every loop mask, every labeled 5-vertex graph, and
    6 000 seeded graphs on 6-9 vertices, every other one with a random
    loop mask.  A refinement cut after its first round still gives
    these keys up to 5 vertices, so the seeded graphs are what catch
    it."""
    cases = [(g, loops) for n in range(5) for g in every_loopless(n) for loops in range(1 << n)]
    cases += [(g, 0) for g in every_loopless(5)]
    rng = random.Random(37)
    for k in range(6000):
        g = random_loopless(rng, rng.randint(6, 9))
        cases.append((g, rng.getrandbits(g.size) if k % 2 else 0))
    for g, loops in cases:
        assert graphs._canon_key_raw(g.size, g.adj, loops) == canon_key_ref(g.size, g.adj, loops), (g, loops)


def test_connected_graph_counts():
    # known counts of connected loopless graphs up to isomorphism (OEIS A001349)
    assert [len(connected_graph_keys(n)) for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11117]
    # and every key itself: a search that splits a different cell first
    # keeps the counts but not the keys
    keys = repr([connected_graph_keys(n) for n in range(1, 9)]).encode()
    assert hashlib.sha256(keys).hexdigest() == "3c1a16136f98749a2752d4806cf74b657bab176157a2466b7e0e529020c754a5"


def test_connected_graph_keys_match_unfiltered_enumeration():
    for n in range(8):
        assert connected_graph_keys(n) == connected_graph_keys_ref(n)


def test_graph_from_key_round_trip():
    for key in connected_graph_keys(5):
        assert graph_canonical_key(graph_from_key(key)) == key


# ----------------------------------------------------------------------
# chord diagrams and circle recognition


def test_interlacement_examples():
    assert ChordDiagram(tuple("abab")).interlacement_graph() == graph("ab", [("a", "b")])
    assert ChordDiagram(tuple("aabb")).interlacement_graph() == graph("ab")
    assert ChordDiagram(tuple("abcabc")).interlacement_graph() == graph(
        "abc", [("a", "b"), ("a", "c"), ("b", "c")]
    )
    with pytest.raises(ValueError):
        ChordDiagram(tuple("aab"))


def test_interlacement_matches_reference():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        word = [s for s in range(n) for _ in range(2)]
        rng.shuffle(word)
        word = tuple(str(s) for s in word)
        g = ChordDiagram(word).interlacement_graph()
        got = {frozenset((u, v)) for u, v in g.edges()}
        assert got == interlacement_ref(word)


def test_empty_and_tiny_graphs_are_circle():
    assert is_circle_graph(LoopedSimpleGraph((), (), 0))
    assert is_circle_graph(graph("a"))
    assert circle_word(LoopedSimpleGraph((), (), 0)) == ChordDiagram(())


def test_complete_graphs_are_circle():
    for n in range(1, 8):
        labels = tuple(str(i) for i in range(n))
        full = (1 << n) - 1
        kn = LoopedSimpleGraph(labels, tuple(full ^ (1 << i) for i in range(n)))
        assert is_circle_graph(kn)


def test_cycle_and_wheel():
    c5 = graph("abcde", [(x, y) for x, y in zip("abcde", "bcdea")])
    assert is_circle_graph(c5)
    assert not is_circle_graph(wheel(5))
    with pytest.raises(ValueError):
        is_circle_graph(graph("a", loops="a"))


def test_circle_recognition_refuses_before_searching(monkeypatch):
    def no_search(*args):
        raise AssertionError("a refused graph reached a search")

    monkeypatch.setattr(graphs, "graph_canonical_key", no_search)
    monkeypatch.setattr(graphs, "_circle_word_search", no_search)
    n = graphs.CIRCLE_GUARD + 1
    big = LoopedSimpleGraph(tuple(f"v{i}" for i in range(n)), (0,) * n)
    for recognize in (is_circle_graph, circle_word):
        with pytest.raises(ValueError, match="loopless"):
            recognize(graph("ab", loops="b"))
        with pytest.raises(ValueError, match="circle recognition guard"):
            recognize(big)


def test_circle_word_realizes_graph():
    rng = random.Random(6)
    found = 0
    while found < 25:
        g = random_loopless(rng, rng.randint(1, 6))
        w = circle_word(g)
        if w is None:
            continue
        found += 1
        assert_realizes(w, g)


def assert_realizes(diagram, g):
    """The diagram reproduces the labeled graph exactly: the same edges on
    the same labels."""
    realized = diagram.interlacement_graph()
    assert sorted(realized.labels) == sorted(g.labels)
    assert {frozenset(e) for e in realized.edges()} == {frozenset(e) for e in g.edges()}


def realizable_keys(words, n):
    """Canonical keys of the interlacement graphs of the words on n chords."""
    keys = set()
    for word in words:
        adj = [0] * n
        for a, b in map(tuple, interlacement_ref(word)):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        keys.add(graph_canonical_key(LoopedSimpleGraph(tuple(str(i) for i in range(n)), tuple(adj), 0)))
    return keys


def check_against_words(g, realizable):
    w = circle_word(g)
    assert (w is not None) == (graph_canonical_key(g) in realizable) == is_circle_graph(g)
    if w is not None:
        assert_realizes(w, g)
    return w is not None


def test_circle_oracle_matches_word_enumeration():
    # every labeled graph on up to five vertices, disconnected ones
    # included, against every double-occurrence word; all of them are
    # circle, as the least obstruction has six vertices
    for n in range(6):
        realizable = realizable_keys(all_double_occurrence_words(n), n)
        assert all(check_against_words(g, realizable) for g in every_loopless(n))


def test_circle_oracle_matches_six_chord_diagrams():
    # about 1 in 250 labeled 6-vertex graphs is not circle, so seeded
    # vertex orders of the wheel W5's LC class ride along
    realizable = realizable_keys(chord_diagram_words(6), 6)
    rng = random.Random(23)
    cases = [random_loopless(rng, 6) for _ in range(300)]
    for key in lc_orbit_keys(wheel(5)):
        base = graph_from_key(key)
        cases += [permuted(base, rng.sample(range(6), 6)) for _ in range(30)]
    verdicts = collections.Counter(check_against_words(g, realizable) for g in cases)
    assert verdicts[False] >= 60 and verdicts[True] > 250


def test_circle_word_search_matches_reference():
    # circle_word returns these words as witnesses, so the search order is pinned
    cases = [g for n in range(6) for g in every_loopless(n)]
    for n in range(1, 8):
        for key in connected_graph_keys(n):
            g = graph_from_key(key)
            cases += [g, *(g.delete_vertex(v) for v in g.labels)]
    for g in cases:
        assert graphs._circle_word_search(g.size, g.adj) == circle_word_search_ref(g.size, g.adj)


@pytest.fixture
def cold_circle_caches(monkeypatch):
    """Empty circle-verdict and canonical-key caches, so that each key's
    verdict is derived inside the test, deletions and all."""
    monkeypatch.setattr(graphs, "_circle_cache", {})
    monkeypatch.setattr(graphs, "_graph_canon_cache", {})


def search_verdict(g):
    return circle_word_search_ref(g.size, g.adj) is not None


def test_circle_recognition_matches_search_on_small_labeled_graphs(cold_circle_caches):
    for n in range(6):
        for g in every_loopless(n):
            assert is_circle_graph(g) == search_verdict(g), g


def verdicts_in_seeded_order(keys, rng):
    """is_circle_graph on each key's graph in a seeded vertex order, so
    that its key is searched for, checked against the plain search."""
    verdicts = collections.Counter()
    for key in keys:
        g = graph_from_key(key)
        verdict = is_circle_graph(permuted(g, rng.sample(range(g.size), g.size)))
        assert verdict == search_verdict(g), key
        verdicts[verdict] += 1
    return verdicts


def test_circle_recognition_matches_search_on_connected_keys(cold_circle_caches):
    keys = [key for n in range(1, 8) for key in connected_graph_keys(n)]
    verdicts = verdicts_in_seeded_order(keys, random.Random(41))
    assert verdicts[False] > 50 and verdicts[True] > 800, verdicts


def test_circle_recognition_matches_search_on_8_vertex_sample(cold_circle_caches):
    verdicts = verdicts_in_seeded_order(connected_graph_keys(8)[::40], random.Random(43))
    assert verdicts[False] > 40 and verdicts[True] > 150, verdicts


def spare_vertices(g):
    """The pendant vertices and the higher vertex of each pair of twins,
    read off neighbour sets."""
    nbrs = [set(g.subset_labels(row)) for row in g.adj]
    return [
        v for v, label in enumerate(g.labels)
        if len(nbrs[v]) == 1 or any(nbrs[u] - {label} == nbrs[v] - {g.labels[u]} for u in range(v))
    ]


def with_spare(g, rng):
    """g plus a vertex that is pendant on, a true twin of or a false twin
    of a random vertex u of g."""
    n = g.size
    u = rng.randrange(n)
    nb = rng.choice([1 << u, g.adj[u] | 1 << u, g.adj[u]])
    adj = [row | (nb >> i & 1) << n for i, row in enumerate(g.adj)] + [nb]
    return LoopedSimpleGraph(tuple("abcdefghi"[:n + 1]), tuple(adj), 0)


def test_reduction_rules_hold_for_the_plain_search():
    """By circle_word_search_ref alone: deleting a spare vertex (pendant,
    or the higher of two twins) keeps the verdict, and a non-circle
    deletion makes the graph non-circle.  Every labeled graph on at most
    5 vertices, then seeded 6- and 7-vertex graphs, some of them a
    random 5- or 6-vertex graph or a member of W5's LC class with a
    spare vertex added."""
    rng = random.Random(47)
    cases = [g for n in range(6) for g in every_loopless(n)]
    w5_class = [graph_from_key(key) for key in lc_orbit_keys(wheel(5))]
    for _ in range(150):
        cases.append(random_loopless(rng, rng.randint(6, 7)))
        cases.append(with_spare(random_loopless(rng, rng.randint(5, 6)), rng))
        cases.append(with_spare(permuted(rng.choice(w5_class), rng.sample(range(6), 6)), rng))
    counts = collections.Counter()
    for g in cases:
        verdict = search_verdict(g)
        deletions = [search_verdict(g.delete_vertex(v)) for v in g.labels]
        spares = spare_vertices(g)
        assert graphs._spare_vertex(g.adj) == (spares[0] if spares else None), g
        assert all(deletions[v] == verdict for v in spares), g
        assert all(deletions) or not verdict, g
        if spares:
            counts[verdict] += 1
        if not all(deletions):
            counts["a non-circle deletion"] += 1
    assert min(counts[True], counts[False], counts["a non-circle deletion"]) >= 20, counts


# ----------------------------------------------------------------------
# vertex minors


def test_vertex_minor_examples():
    k2 = graph("uv", [("u", "v")])
    assert is_vertex_minor(K3, k2)
    two_k1 = graph("uv")
    assert is_vertex_minor(P3, two_k1)
    assert is_vertex_minor(P3, k2)
    assert is_vertex_minor(wheel(5), graph("abcde", [(x, y) for x, y in zip("abcde", "bcdea")]))
    assert not is_vertex_minor(graph("ab"), k2)


def test_vertex_minor_guard():
    big = LoopedSimpleGraph(tuple(f"v{i}" for i in range(10)), (0,) * 10, 0)
    with pytest.raises(ValueError):
        is_vertex_minor(big, P3)


def test_vertex_minor_refuses_looped_inputs():
    """The walk sees graphs only up to loops, so a loop on either side is
    refused rather than answered."""
    looped = graph("a", loops="a")
    for g, h in ((looped, graph("a")), (graph("a"), looped), (P3.loop_toggle("b"), K3)):
        with pytest.raises(ValueError, match="loopless"):
            is_vertex_minor(g, h)


def every_graph_up_to_iso(n):
    """One loopless graph per isomorphism class on n vertices."""
    return [graph_from_key(k) for k in sorted({graph_canonical_key(g) for g in every_loopless(n)})]


def test_vertex_minor_matches_the_recursion():
    """The three-operation minor walk against the recursion over LC orbits
    and vertex deletions, both ways round: every graph on 0-5 vertices
    (disconnected ones included) against every graph on 0-4 vertices no
    larger (898 pairs), then a seeded sample of connected 6-vertex graphs
    against graphs on at most 5 vertices."""
    small = {n: every_graph_up_to_iso(n) for n in range(6)}
    pairs = [(g, h) for n in range(6) for g in small[n] for m in range(min(n, 4) + 1) for h in small[m]]
    assert len(pairs) == 898
    rng = random.Random(27)
    six = [graph_from_key(k) for k in connected_graph_keys(6)]
    pairs += [(rng.choice(six), rng.choice(small[rng.randint(0, 5)])) for _ in range(300)]
    verdicts = collections.Counter()
    for g, h in pairs:
        for a, b in ((g, h), (h, g)):
            verdict = is_vertex_minor(a, b)
            assert verdict == is_vertex_minor_ref(a, b), (a, b)
            verdicts[verdict, a.size == b.size] += 1
    assert min(verdicts.values()) > 50, verdicts


def test_circle_graphs_closed_under_vertex_minors():
    rng = random.Random(7)
    for key in connected_graph_keys(5):
        g = graph_from_key(key)
        if not is_circle_graph(g):
            continue
        for member in lc_orbit_keys(g):
            rep = graph_from_key(member)
            assert is_circle_graph(rep)
            for v in rep.labels:
                assert is_circle_graph(rep.delete_vertex(v))


def test_circle_is_constant_on_each_lc_class():
    # Bouchet 1994; find_circle_obstructions decides a whole class by one member
    for n in range(1, 8):
        circle = {key: circle_word(graph_from_key(key)) is not None for key in connected_graph_keys(n)}
        while circle:
            key, verdict = circle.popitem()
            for member in lc_orbit_keys(graph_from_key(key)) - {key}:
                assert circle.pop(member) == verdict


def test_lc_orbit_keys_match_unskipped_search():
    """Skipping the local complementations that change nothing loses no
    class member: every labeled graph on at most 4 vertices under every
    loop pattern, and every connected loopless graph on at most 6."""
    inputs = [
        LoopedSimpleGraph(g.labels, g.adj, loops)
        for n in range(5) for g in every_loopless(n) for loops in range(1 << n)
    ]
    inputs += [graph_from_key(key) for n in range(1, 7) for key in connected_graph_keys(n)]
    for g in inputs:
        assert lc_orbit_keys(g) == lc_orbit_keys_ref(g), g


# ----------------------------------------------------------------------
# obstructions and ribbon recognition


def test_find_circle_obstructions_small():
    assert find_circle_obstructions(5) == []
    found = find_circle_obstructions(6)
    assert len(found) == 1 and found[0].size == 6
    assert graph_canonical_key(wheel(5)) in lc_orbit_keys(found[0])


def test_obstruction_search_walks_only_the_classes_that_need_it(monkeypatch, cold_circle_caches):
    """find_circle_obstructions(7) walks exactly the LC classes that are
    non-circle or have no spare vertex, each from its least key; having
    a spare vertex is constant on every class."""
    walked = []

    def recording(g):
        walked.append(graph_canonical_key(g))
        return lc_orbit_keys(g)

    monkeypatch.setattr(graphs, "lc_orbit_keys", recording)
    assert [graph_canonical_key(g) for g in find_circle_obstructions(7)] == circle_obstructions_ref(7)
    needed = []
    for n in range(1, 8):
        remaining = set(connected_graph_keys(n))
        while remaining:
            least = min(remaining)
            cls = lc_orbit_keys(graph_from_key(least))
            remaining -= cls
            spare = {graphs._spare_vertex(graph_from_key(key).adj) is not None for key in cls}
            assert len(spare) == 1, least
            if spare == {False} or not search_verdict(graph_from_key(least)):
                needed.append(least)
    assert walked == needed


def test_class_walk_matches_per_graph_derivation():
    ref = circle_obstructions_ref(7)
    for n in range(1, 8):
        found = [graph_canonical_key(g) for g in find_circle_obstructions(n)]
        assert found == [key for key in ref if key[0] <= n]


def test_cached_obstructions():
    obs = circle_obstructions()
    assert [g.size for g in obs] == [6, 7, 8]
    assert graph_canonical_key(wheel(7)) in lc_orbit_keys(obs[2])
    for g in obs:
        assert not is_circle_graph(g)


def test_obstruction_guard():
    with pytest.raises(ValueError):
        find_circle_obstructions(9)


def test_ribbon_examples():
    g1 = circle_obstructions()[0]
    assert not is_ribbon_graphic(g1.delta_matroid())
    assert is_ribbon_graphic(P3.delta_matroid())
    assert is_ribbon_graphic(SetSystem((), (0,)))
    assert not is_ribbon_graphic(catalog.get("B1"))
    assert not is_ribbon_graphic(catalog.get("S3"))


def test_ribbon_testers_built_once_per_obstruction(monkeypatch):
    built = collections.Counter()
    shared = graphs._circle_class  # the process-wide build other tests use

    def counting(size):
        built[size] += 1
        return shared(size)

    monkeypatch.setattr(graphs, "_circle_class", functools.lru_cache(maxsize=None)(counting))
    for n in (6, 7, 8, 6, 8):
        assert is_ribbon_graphic(SetSystem(tuple(f"x{i}" for i in range(n)), (0,)))
    assert {6, 7, 8} <= set(built) and set(built.values()) == {1}
    assert [len(shared(k)) for k in (6, 7, 8)] == [2, 9, 22]


def test_excluded_three_minors_are_minimal():
    """No proper three-operation minor of D(G), for a circle obstruction
    G, lies in the class of a smaller obstruction, while D(G) itself lies
    in its own."""
    for g in circle_obstructions():
        d = g.delta_matroid()
        assert not graphs._has_minor_in(
            d, {h.size: graphs._circle_class(h.size) for h in circle_obstructions() if h.size < g.size})
        assert graphs._has_minor_in(d, {g.size: graphs._circle_class(g.size)})


def every_loop_pattern(keys):
    """The looped-graph keys of every loop mask on every graph of keys."""
    out = set()
    for key in keys:
        g = graph_from_key(key)
        out.update(graph_canonical_key(LoopedSimpleGraph(g.labels, g.adj, loops))
                   for loops in range(1 << g.size))
    return out


def test_circle_class_keys_are_the_closure_normal_members():
    """The 6-vertex obstruction class, as the normal members of the
    labeled closure of its delta-matroid: their simple graphs are the
    keys of _circle_class(6), and their looped graphs are every loop
    pattern over those keys."""
    g6 = next(g for g in circle_obstructions() if g.size == 6)
    oracle = closure_tester(g6.delta_matroid())
    looped, simple = set(), set()
    for feasible in oracle.families:
        if feasible[0] == 0:
            b = reconstruct_basic_matrix(SetSystem(g6.labels, feasible))
            assert b.delta_matroid().feasible == feasible
            loops = sum(row & (1 << i) for i, row in enumerate(b.rows))
            adj = tuple(row & ~(1 << i) for i, row in enumerate(b.rows))
            looped.add(graph_canonical_key(LoopedSimpleGraph(b.labels, adj, loops)))
            simple.add(graph_canonical_key(LoopedSimpleGraph(b.labels, adj, 0)))
    keys = graphs._circle_class(6)
    assert simple == keys and len(keys) == 2
    assert looped == every_loop_pattern(keys)


def test_circle_class_7_is_the_looped_graph_class():
    """At 7 vertices the class built by loop toggles and looped local
    complementations is every loop pattern over the LC orbit."""
    g7 = [g for g in circle_obstructions() if g.size == 7]
    assert looped_class_keys(g7) == every_loop_pattern(graphs._circle_class(7))


def test_ribbon_recognition_at_its_guard():
    g8 = next(g for g in circle_obstructions() if g.size == 8)
    d8 = g8.delta_matroid()
    member = d8.loop_complement(0b10010001).twist(0b00000110).loop_complement(0b00100000)
    perm = (3, 7, 0, 5, 1, 6, 2, 4)
    member = SetSystem(member.labels, relabel_ref(member.feasible, perm))
    assert member.feasible[0] != 0 and member != d8
    rim = [f"c{i}" for i in range(8)]
    c8 = graph(rim, [(rim[i], rim[(i + 1) % 8]) for i in range(8)])
    assert graphs.RIBBON_GUARD == 8
    assert not is_ribbon_graphic(d8)
    assert not is_ribbon_graphic(member)
    assert is_ribbon_graphic(c8.delta_matroid())


def test_every_circle_class_key_passes_the_degree_filter():
    """The degree filter of is_ribbon_graphic keeps every graph of the
    classes.  Each key's degree sequence is one of its class's, and D(G)
    for each key G with a seeded nonempty loop set is refused at the
    walk's first leaf, the whole system, whose looped graph is G with
    those loops, which the filter must clear."""
    rng = random.Random(26)
    for k, count in ((6, 2), (7, 9), (8, 12)):
        keys = graphs._circle_class(k)
        sequences = graphs._degree_sequences(keys)
        assert len(sequences) == count
        for key in sorted(keys):
            g = graph_from_key(key)
            assert tuple(sorted(row.bit_count() for row in g.adj)) in sequences
            looped = LoopedSimpleGraph(g.labels, g.adj, rng.randrange(1, 1 << k))
            assert not is_ribbon_graphic(looped.delta_matroid()), (key, looped.loops)


def leaf_graph_key(system, x, y, z, leaf):
    """The key of the simple graph read off a walk leaf, as
    is_ribbon_graphic reads it."""
    positions = [i for i in range(system.size) if not (x | y | z) >> i & 1]
    rows = basic_rows(lambda f: leaf >> f & 1, positions, (leaf & -leaf).bit_length() - 1)
    simple = tuple(row & ~(1 << k) for k, row in enumerate(rows))
    return graph_canonical_key(LoopedSimpleGraph(tuple(map(str, positions)), simple))


def random_binary(rng, n):
    """A random binary delta-matroid on n elements, twisted and
    loop-complemented at random sets."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    d = SymmetricBinaryMatrix(tuple("abcdefgh"[:n]), tuple(rows)).delta_matroid()
    return d.twist(rng.randrange(1 << n)).loop_complement(rng.randrange(1 << n))


def test_binary_minors_twist_to_basic_binary():
    """Reading a leaf's graph needs no basic-binary guard: every minor
    that is_ribbon_graphic walks in a binary system is binary, so its
    twist onto its least feasible set is basic binary.  The graph read
    off the leaf is the one reconstructed from that twist."""
    rng = random.Random(31)
    leaves = 0
    for n in (6, 7, 8):
        for _ in range(5):
            system = random_binary(rng, n)
            assert is_binary(system)
            for x, y, z, leaf in system.iter_three_minors(frozenset({6, 7, 8})):
                m = system.three_minor(x, y, z)
                assert is_basic_binary(m.twist(m.feasible[0])), (system, x, y, z)
                assert leaf_graph_key(system, x, y, z, leaf) == simple_graph_key_ref(m), (system, x, y, z)
                leaves += 1
    assert leaves > 1000


def test_is_ribbon_graphic_matches_three_minor_scan_at_7_and_8():
    """Seeded binary systems, and twisted duals of members of the 7- and
    8-vertex obstruction classes (an 8-vertex one from the 7-vertex
    obstruction with a pendant vertex), against the scan that builds
    every minor."""
    rng = random.Random(24)
    systems = [random_binary(rng, n) for n in (7, 8) for _ in range(6)]
    g7 = next(g for g in circle_obstructions() if g.size == 7)
    g8 = next(g for g in circle_obstructions() if g.size == 8)
    pendant = LoopedSimpleGraph(g7.labels + ("p",), tuple(row | (k == 2) << 7 for k, row in enumerate(g7.adj))
                                + (1 << 2,))
    for g in (g7, g8, pendant):
        for key in sorted(lc_orbit_keys(g))[:3]:
            member = graph_from_key(key)
            full = (1 << member.size) - 1
            d = LoopedSimpleGraph(member.labels, member.adj, rng.randrange(full + 1)).delta_matroid()
            systems.append(d.twist(rng.randrange(full + 1)).loop_complement(rng.randrange(full + 1)))
    verdicts = [is_ribbon_graphic(s) for s in systems]
    assert verdicts == [is_ribbon_graphic_ref(s) for s in systems]
    assert True in verdicts[:12] and not any(verdicts[12:])


def test_dg_even_normal_and_vf_safe():
    rng = random.Random(8)
    from deltamatroids.duality import is_vf_safe, is_vf_safe_via_obstruction

    for _ in range(25):
        g = random_loopless(rng, rng.randint(1, 5))
        d = g.delta_matroid()
        assert is_even(d) and is_normal(d)
        assert is_vf_safe(d)
        assert is_vf_safe_via_obstruction(d)


def test_vertex_minor_delta_matroid_bridge():
    # a vertex minor's delta-matroid meets the three-operation minors of
    # the host's, up to twisted duality
    rng = random.Random(9)
    for _ in range(10):
        g = random_loopless(rng, rng.randint(2, 4))
        h = g
        for _ in range(rng.randint(1, 3)):
            h = h.local_complement(rng.choice(h.labels))
            if h.size > 1 and rng.getrandbits(1):
                h = h.delete_vertex(rng.choice(h.labels))
        minor_keys = {canonical_key(m) for m in g.delta_matroid().enumerate_three_minors(True)}
        dh_orbit = {canonical_key(t) for t in orbit(h.delta_matroid(), up_to_iso=True).members}
        assert minor_keys & dh_orbit
