import collections
import functools
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
    is_graph_isomorphic,
    is_ribbon_graphic,
    is_vertex_minor,
    lc_orbit_keys,
)
from deltamatroids.gf2 import SymmetricBinaryMatrix, is_basic_binary, is_binary, reconstruct_basic_matrix
from deltamatroids.setsystem import SetSystem, _apply_perm, canonical_key

from _reference import all_double_occurrence_words, closure_tester, interlacement_ref, looped_class_keys


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
    return LoopedSimpleGraph(tuple("abcdefg"[:n]), tuple(adj), 0)


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
        i = g.vertex_index(v)
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
        adj = [0] * n
        for i in range(n):
            for j in range(n):
                if g.adj[i] >> j & 1:
                    adj[perm[i]] |= 1 << perm[j]
        loops = 0
        for i in range(n):
            if g.loops >> i & 1:
                loops |= 1 << perm[i]
        h = LoopedSimpleGraph(g.labels, tuple(adj), loops)
        assert graph_canonical_key(g) == graph_canonical_key(h)
        assert is_graph_isomorphic(g, h)


def test_connected_graph_counts():
    # known counts of connected loopless graphs up to isomorphism
    assert [len(connected_graph_keys(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


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


def test_circle_word_realizes_graph():
    rng = random.Random(6)
    found = 0
    while found < 25:
        g = random_loopless(rng, rng.randint(1, 6))
        w = circle_word(g)
        if w is None:
            continue
        found += 1
        # the realized diagram must reproduce the labeled graph exactly
        realized = w.interlacement_graph()
        mapping = {lab: i for i, lab in enumerate(realized.labels)}
        for u, v in itertools.combinations(g.labels, 2):
            assert g.has_edge(u, v) == realized.has_edge(u, v)


def test_circle_oracle_matches_word_enumeration():
    # brute-force all double-occurrence words for every connected graph on
    # up to five vertices
    for n in range(1, 6):
        realizable = set()
        for word in all_double_occurrence_words(n):
            crossings = interlacement_ref(tuple(str(s) for s in word))
            adj = [0] * n
            for pair in crossings:
                a, b = sorted(int(x) for x in pair)
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            realizable.add(graph_canonical_key(LoopedSimpleGraph(tuple(str(i) for i in range(n)), tuple(adj), 0)))
        for key in connected_graph_keys(n):
            assert is_circle_graph(graph_from_key(key)) == (key in realizable)


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


# ----------------------------------------------------------------------
# obstructions and ribbon recognition


def test_find_circle_obstructions_small():
    assert find_circle_obstructions(5) == []
    found = find_circle_obstructions(6)
    assert len(found) == 1 and found[0].size == 6
    assert graph_canonical_key(wheel(5)) in lc_orbit_keys(found[0])


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
    member = SetSystem(member.labels, _apply_perm(member.feasible, perm))
    assert member.feasible[0] != 0 and member != d8
    rim = [f"c{i}" for i in range(8)]
    c8 = graph(rim, [(rim[i], rim[(i + 1) % 8]) for i in range(8)])
    assert graphs.RIBBON_GUARD == 8
    assert not is_ribbon_graphic(d8)
    assert not is_ribbon_graphic(member)
    assert is_ribbon_graphic(c8.delta_matroid())


def test_binary_minors_twist_to_basic_binary():
    """_simple_graph_key needs no basic-binary guard: every minor that
    is_ribbon_graphic walks in a binary system is binary, so its twist
    onto its least feasible set is basic binary."""
    rng = random.Random(31)
    leaves = 0
    for n in (6, 7, 8):
        for _ in range(5):
            rows = [0] * n
            for i in range(n):
                for j in range(i + 1):
                    if rng.getrandbits(1):
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            d = SymmetricBinaryMatrix(tuple("abcdefgh"[:n]), tuple(rows)).delta_matroid()
            system = d.twist(rng.randrange(1 << n)).loop_complement(rng.randrange(1 << n))
            assert is_binary(system)
            for x, y, z, _ in system.iter_three_minors(frozenset({6, 7, 8})):
                m = system.three_minor(x, y, z)
                assert is_basic_binary(m.twist(m.feasible[0])), (system, x, y, z)
                leaves += 1
    assert leaves > 1000


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
