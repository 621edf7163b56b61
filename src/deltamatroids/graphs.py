"""Looped simple graphs, local complementation, vertex minors, and the
chord-diagram machinery.

Graphs are adjacency bitmask rows with a separate loop mask; the diagonal
of the adjacency rows stays zero.  Canonical labeling is an
individualization-refinement search minimizing the packed adjacency
bits, exact for the desk-scale sizes used here (n <= 9).

Ribbon-graphic recognition first asks is_binary: ribbon-graphic
delta-matroids are binary, and binary means no three-operation minor
among the twisted duals of B1 and S3.  That leaves the twisted-duality
class of D(G) for each circle obstruction G.  A normal binary
delta-matroid D(B) determines B, and D(A * X) = D(A) * X and D(G + v) =
D(G) + v (Bouchet, "Representability of Delta-matroids", 1988; Brijder &
Hoogeboom, "The group structure of pivot and loop complementation on
graphs and set systems", European J. Combin. 32, 2011), so every member
twisted at its least feasible set is D(B) for a looped graph B reached
from G by loop toggles and local complementations at looped vertices.
Loop toggles make the loops free, and a local complementation at a
looped vertex acts on the simple graph as a plain one, so the class is
every loop pattern over the local-complementation orbit of G.  Each
minor's B is read off the walk's leaf indicator by gf2.basic_rows.
Vertex minors take the same leaf read, as the three-operation minors of
D(G) are the delta-matroids of the vertex minors of G up to twisted
duality: H is one exactly when a minor's simple graph is in H's orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Iterable, Sequence

from .gf2 import SymmetricBinaryMatrix, basic_rows, is_binary
from .setsystem import LabeledBits, SetSystem

CIRCLE_GUARD = 9
VERTEX_MINOR_GUARD = 9
OBSTRUCTION_GUARD = 8
RIBBON_GUARD = 8


@dataclass(frozen=True)
class LoopedSimpleGraph(LabeledBits):
    """Simple graph with optional one loop per vertex.

    adj[i] is the neighbour mask of vertex i (diagonal zero); loops is the
    mask of looped vertices.
    """

    adj: tuple[int, ...]
    loops: int = 0

    _noun = "vertex"
    _where = "graph"

    def __post_init__(self):
        if self._check_symmetric(self.adj):
            raise ValueError("adjacency diagonal must be zero")
        if self.loops >> len(self.labels):
            raise ValueError("loop mask outside the vertex set")

    @classmethod
    def from_edges(
        cls,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
        loops: Iterable[str] = (),
    ) -> LoopedSimpleGraph:
        labels = tuple(vertices)
        empty = cls(labels, (0,) * len(labels))
        adj = [0] * len(labels)
        for u, v in edges:
            if u == v:
                raise ValueError("use the loops argument for loops")
            i, j = empty._position(u), empty._position(v)
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(labels, tuple(adj), empty.mask(loops))

    def neighbor_mask(self, v: str) -> int:
        return self.adj[self._position(v)]

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for i in range(self.size):
            row = self.adj[i]
            for j in range(i):
                if row >> j & 1:
                    out.append((self.labels[j], self.labels[i]))
        return out

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self.adj[self._position(u)] >> self._position(v) & 1)

    def __str__(self) -> str:
        es = " ".join(f"{u}-{v}" for u, v in self.edges())
        ls = ",".join(self.subset_labels(self.loops))
        return f"G({','.join(self.labels)}; {es or '-'}{'; loops ' + ls if ls else ''})"

    # ------------------------------------------------------------------
    # transformations

    def loop_toggle(self, v: str) -> LoopedSimpleGraph:
        return LoopedSimpleGraph(self.labels, self.adj, self.loops ^ self.element_bit(v))

    def local_complement(self, v: str) -> LoopedSimpleGraph:
        """Toggle adjacencies inside the open neighbourhood of v.

        When v carries a loop, the loop status of every neighbour is
        toggled as well.  v's own edges and loop never change.
        """
        i = self._position(v)
        nb = self.adj[i]
        adj = list(self.adj)
        for u in range(self.size):
            if nb >> u & 1:
                adj[u] ^= nb & ~(1 << u)
        loops = self.loops
        if self.loops >> i & 1:
            loops ^= nb
        return LoopedSimpleGraph(self.labels, tuple(adj), loops)

    def edge_pivot(self, v: str, w: str) -> LoopedSimpleGraph:
        """Three local complementations v, w, v along an edge of a
        loopless graph."""
        if self.loops:
            raise ValueError("edge pivot requires a loopless graph")
        if not self.has_edge(v, w):
            raise ValueError("edge pivot requires adjacent vertices")
        return self.local_complement(v).local_complement(w).local_complement(v)

    def delete_vertex(self, v: str) -> LoopedSimpleGraph:
        i = self._position(v)
        labels, (loops, *adj) = self._gather(1 << i, (self.loops, *self.adj[:i], *self.adj[i + 1:]))
        return LoopedSimpleGraph(labels, tuple(adj), loops)

    def adjacency_matrix(self) -> SymmetricBinaryMatrix:
        """Adjacency with loops on the diagonal."""
        rows = tuple(
            row | ((self.loops >> i & 1) << i) for i, row in enumerate(self.adj)
        )
        return SymmetricBinaryMatrix(self.labels, rows)

    def delta_matroid(self) -> SetSystem:
        return self.adjacency_matrix().delta_matroid()


# ----------------------------------------------------------------------
# canonical labeling


def _refine(n: int, adj: Sequence[int], colors: list) -> tuple[list[int], int]:
    """Colour refinement to the coarsest equitable partition below colors
    (any comparable values), as dense ranks of (colour, sorted neighbour
    colours), and its cell count.  A round that splits no cell reaches
    it, and so does a discrete partition, as no later round can split a
    cell."""
    cells = len(set(colors))
    while True:
        sig = []
        for v in range(n):
            nb = []
            m = adj[v]
            while m:
                low = m & -m
                nb.append(colors[low.bit_length() - 1])
                m ^= low
            nb.sort()
            sig.append((colors[v], tuple(nb)))
        remap = {s: i for i, s in enumerate(sorted(set(sig)))}
        colors = [remap[s] for s in sig]
        if len(remap) in (cells, n):
            return colors, len(remap)
        cells = len(remap)


def _homogeneous(cell: Sequence[int], adj: Sequence[int]) -> bool:
    """Is the cell empty or complete inside, with one neighbourhood outside?"""
    cellmask = sum(1 << v for v in cell)
    if len({adj[v] & ~cellmask for v in cell}) > 1:
        return False
    inner = [adj[v] & cellmask for v in cell]
    return not any(inner) or all(m == cellmask ^ 1 << v for m, v in zip(inner, cell))


GraphKey = tuple[int, int, int]  # (n, loop bits, upper-triangle adjacency bits)

_graph_canon_cache: dict[tuple, GraphKey] = {}


def graph_canonical_key(graph: LoopedSimpleGraph) -> GraphKey:
    """_canon_key_raw, memoized for lc_orbit_keys, the one-vertex
    deletions that is_circle_graph and find_circle_obstructions decide
    and the leaf graphs of _has_minor_in that pass the degree filter,
    which revisit labeled graphs (in verify_circle_obstructions(7), 103
    of 1 529 walk lookups and 675 of 1 151 circle lookups hit; on every
    tenth connected 8-vertex graph, 1 126 of 2 867 leaf lookups hit
    after the circle side)."""
    cache_key = (graph.size, graph.adj, graph.loops)
    hit = _graph_canon_cache.get(cache_key)
    if hit is None:
        hit = _graph_canon_cache[cache_key] = _canon_key_raw(*cache_key)
    return hit


def _canon_key_raw(n: int, adj: Sequence[int], loops: int) -> GraphKey:
    """The unmemoized search; connected_graph_keys calls it directly, as its
    one-vertex extensions are labeled graphs that never recur.

    The key is the least (loop bits, adjacency bits) over the leaves of
    search, from loop and degree colours.  search refines and splits the
    first cell that is neither a singleton nor homogeneous, one child per
    vertex; with none left, it orders the vertices by colour, and the
    stable sort breaks ties in a homogeneous cell by vertex index.
    """

    def search(colors: list) -> tuple[int, int]:
        colors, count = _refine(n, adj, colors)
        cells: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        for cell in cells:
            if len(cell) > 1 and not _homogeneous(cell, adj):
                return min(search([2 * c + (u != v) for u, c in enumerate(colors)]) for v in cell)
        order = sorted(range(n), key=colors.__getitem__)
        lk = ak = idx = 0
        for i, vi in enumerate(order):
            lk |= (loops >> vi & 1) << i
            row = adj[vi]
            for j in range(i):
                ak |= (row >> order[j] & 1) << idx
                idx += 1
        return lk, ak

    return (n, *search([(loops >> v & 1, row.bit_count()) for v, row in enumerate(adj)]))


def graph_from_key(key: GraphKey) -> LoopedSimpleGraph:
    n, lk, ak = key
    adj = [0] * n
    idx = 0
    for i in range(n):
        for j in range(i):
            if ak >> idx & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return LoopedSimpleGraph(tuple(str(i) for i in range(n)), tuple(adj), lk)


# ----------------------------------------------------------------------
# enumeration of connected graphs up to isomorphism

@cache
def connected_graph_keys(n: int) -> tuple[GraphKey, ...]:
    """Canonical keys of all connected loopless graphs on n vertices, in
    ascending order.

    Each connected graph on n-1 vertices is extended by one new vertex
    with a nonempty neighbourhood nb, and an extension is canonicalized
    only if no old vertex is both a non-cut vertex of it and of degree
    above |nb| (canonical deletion; McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).  No graph is lost:
    in a connected graph X, let w be a non-cut vertex of largest degree
    among the non-cut vertices.  X - w is connected, so its key is a
    parent, and that parent extended by the image of N(w) is X with w as
    the new vertex, which passes since degree and being a cut vertex are
    isomorphism invariants.  Several accepted extensions can still be
    the same graph, so the keys are deduplicated.
    """
    if n < 1:
        return ()
    if n == 1:
        return ((1, 0, 0),)
    new = n - 1
    found: set[GraphKey] = set()
    for parent_key in connected_graph_keys(new):
        parent = graph_from_key(parent_key)
        degrees = [row.bit_count() for row in parent.adj]
        for nb in range(1, 1 << new):
            adj = [parent.adj[i] | ((nb >> i & 1) << new) for i in range(new)]
            adj.append(nb)
            d = nb.bit_count()
            if not any(degrees[u] + (nb >> u & 1) > d and _connected_without(adj, u) for u in range(new)):
                found.add(_canon_key_raw(n, adj, 0))
    return tuple(sorted(found))


def _connected_without(adj: Sequence[int], u: int) -> bool:
    """Is the graph with vertex u deleted connected?  (u is not the last
    vertex, which starts the search.)"""
    rest = ((1 << len(adj)) - 1) ^ (1 << u)
    seen = frontier = 1 << (len(adj) - 1)
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen == rest


# ----------------------------------------------------------------------
# chord diagrams and the circle-graph oracle


@dataclass(frozen=True)
class ChordDiagram:
    """Double-occurrence word listing chord endpoints around the circle."""

    word: tuple[str, ...]

    def __post_init__(self):
        counts: dict[str, int] = {}
        for s in self.word:
            counts[s] = counts.get(s, 0) + 1
        if any(c != 2 for c in counts.values()):
            raise ValueError("each chord name must appear exactly twice")

    def chords(self) -> tuple[str, ...]:
        seen = []
        for s in self.word:
            if s not in seen:
                seen.append(s)
        return tuple(seen)

    def interlacement_graph(self) -> LoopedSimpleGraph:
        """Loopless graph on the chords; edges join crossing chords."""
        names = self.chords()
        pos: dict[str, list[int]] = {}
        for i, s in enumerate(self.word):
            pos.setdefault(s, []).append(i)
        idx = {s: i for i, s in enumerate(names)}
        adj = [0] * len(names)
        for a, b in itertools.combinations(names, 2):
            a1, a2 = pos[a]
            inside = sum(1 for p in pos[b] if a1 < p < a2)
            if inside == 1:
                adj[idx[a]] |= 1 << idx[b]
                adj[idx[b]] |= 1 << idx[a]
        return LoopedSimpleGraph(names, tuple(adj), 0)


def _circle_word_search(n: int, adj: Sequence[int]) -> tuple[int, ...] | None:
    """Backtracking construction of a double-occurrence word realizing the
    labeled interlacement graph, as a tuple of vertex indices, or None.

    Chord 0 opens first, since rotating a diagram changes nothing.  Each
    step closes an open chord, trying them from the top of the open stack
    down, or else opens a new chord, in index order.  When x opens it
    records before[x], the chords opened before it, and closed_then[x],
    the chords closed by then.  x crosses exactly the chords that open or
    close, once each, between its two ends: when it closes, those are
    the chords still open above it (above) and the chords opened before
    it that closed meanwhile, so x may close only when
    adj[x] == above | (closed ^ closed_then[x]) & before[x].  A chord
    may open only while no closed chord is its neighbour, as a closed
    chord gains no crossings.  v opens only after every twin u < v with
    adj[u] - {v} == adj[v] - {u}: swapping the labels of two twins is an
    automorphism of the graph, so it maps any realizing word to one in
    which the lower twin opens first.
    """
    if n == 0:
        return ()  # the empty word realizes the empty graph
    twins = [0] * n
    for v in range(n):
        for u in range(v):
            if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                twins[v] |= 1 << u
    before = [0] * n
    closed_then = [0] * n
    open_stack = [0]
    word = [0]

    def rec(opened: int, closed: int) -> bool:
        if len(word) == 2 * n:
            return True
        above = 0
        for si in range(len(open_stack) - 1, -1, -1):
            x = open_stack[si]
            if adj[x] == above | (closed ^ closed_then[x]) & before[x]:
                del open_stack[si]
                word.append(x)
                if rec(opened, closed | 1 << x):
                    return True
                word.pop()
                open_stack.insert(si, x)
            above |= 1 << x
        for v in range(n):
            if opened >> v & 1 or adj[v] & closed or twins[v] & ~opened:
                continue
            before[v], closed_then[v] = opened, closed
            open_stack.append(v)
            word.append(v)
            if rec(opened | 1 << v, closed):
                return True
            word.pop()
            open_stack.pop()
        return False

    return tuple(word) if rec(1, 0) else None


def _refuse_circle_input(graph: LoopedSimpleGraph) -> None:
    """Circle recognition takes loopless graphs up to CIRCLE_GUARD vertices."""
    if graph.loops:
        raise ValueError("circle recognition requires a loopless graph")
    if graph.size > CIRCLE_GUARD:
        raise ValueError(f"circle recognition guard: over {CIRCLE_GUARD} vertices")


_circle_cache: dict[GraphKey, bool] = {}


def _spare_vertex(adj: Sequence[int]) -> int | None:
    """The first vertex that is pendant or the higher of two twins u < v
    (adj[u] - {v} == adj[v] - {u}), or None."""
    for v, row in enumerate(adj):
        if row.bit_count() == 1 or any(adj[u] & ~(1 << v) == row & ~(1 << u) for u in range(v)):
            return v
    return None


def is_circle_graph(graph: LoopedSimpleGraph) -> bool:
    """Is the graph the interlacement graph of some chord diagram?

    Decided once per canonical key, on the key's own labeling, by the
    first rule that applies:

    (a) With a spare vertex v (_spare_vertex), the graph is circle iff
        the graph without v is: a diagram of the deletion extends, as a
        pendant chord v on u goes in as v u v around one end of u, and
        a twin's chord is laid along its twin's, crossing it when the
        twins are adjacent.
    (b) A non-circle one-vertex deletion makes the graph non-circle.
    (c) Otherwise the exhaustive _circle_word_search decides.

    Both rules rest on deleting a chord realizing a vertex deletion,
    not on the obstruction theorem.  The deletions recurse through this
    function, so their verdicts are cached by key too.
    """
    _refuse_circle_input(graph)
    key = graph_canonical_key(graph)
    hit = _circle_cache.get(key)
    if hit is None:
        rep = graph_from_key(key)
        spare = _spare_vertex(rep.adj)
        if spare is not None:
            hit = is_circle_graph(rep.delete_vertex(rep.labels[spare]))
        else:
            hit = (all(is_circle_graph(rep.delete_vertex(v)) for v in rep.labels)
                   and _circle_word_search(rep.size, rep.adj) is not None)
        _circle_cache[key] = hit
    return hit


def circle_word(graph: LoopedSimpleGraph) -> ChordDiagram | None:
    """A realizing chord diagram for the labeled graph, if one exists."""
    _refuse_circle_input(graph)
    word = _circle_word_search(graph.size, graph.adj)
    if word is None:
        return None
    return ChordDiagram(tuple(graph.labels[w] for w in word))


# ----------------------------------------------------------------------
# local-complementation orbits and vertex minors


def lc_orbit_keys(graph: LoopedSimpleGraph) -> frozenset[GraphKey]:
    """Canonical keys of the local-complementation class of the graph.

    A local complementation at v changes nothing when v is isolated, or
    unlooped with one neighbour, so those children are not labeled."""
    seen = {graph_canonical_key(graph)}
    stack = list(seen)
    while stack:
        g = graph_from_key(stack.pop())
        for i, v in enumerate(g.labels):
            nb = g.adj[i]
            if not nb or (not nb & (nb - 1) and not g.loops >> i & 1):
                continue
            child_key = graph_canonical_key(g.local_complement(v))
            if child_key not in seen:
                seen.add(child_key)
                stack.append(child_key)
    return frozenset(seen)


def is_vertex_minor(graph: LoopedSimpleGraph, target: LoopedSimpleGraph) -> bool:
    """Is the target reachable, up to isomorphism, by local
    complementations and vertex deletions?

    Yes exactly when some three-operation minor of D(graph) with as many
    elements as the target has its leaf graph in the target's LC orbit
    (_has_minor_in).  The walk sees graphs only up to loops, since loop
    toggles are twisted dualities, so looped inputs are refused."""
    if graph.size > VERTEX_MINOR_GUARD:
        raise ValueError(f"vertex-minor guard: over {VERTEX_MINOR_GUARD} vertices")
    if graph.loops or target.loops:
        raise ValueError("vertex minors require loopless graphs")
    return target.size <= graph.size and _has_minor_in(
        graph.delta_matroid(), {target.size: lc_orbit_keys(target)})


# ----------------------------------------------------------------------
# circle-graph obstructions


def find_circle_obstructions(max_n: int) -> list[LoopedSimpleGraph]:
    """Vertex-minor-minimal non-circle graphs on at most max_n vertices,
    one representative per local-complementation class.

    Only connected graphs are scanned: a disconnected non-circle graph
    has a non-circle component, which is a proper vertex minor.  A key
    with a spare vertex (a pendant vertex or the higher of two twins)
    takes the verdict of deleting it, rule (a) of is_circle_graph, so
    its own graph is never labeled, and if circle it is skipped without
    walking its class.  Being circle is an LC invariant (Bouchet,
    J. Combin. Theory Ser. B 60, 1994), and so is having a spare
    vertex: from four vertices on it is a split with a two-vertex side,
    which LC keeps, and every connected graph on two or three vertices
    has one.  So every member of that class is skipped the same way.
    Every other class is walked from its first key in the ascending
    walk, and its members are skipped.  LC keeps a graph connected on n
    vertices, so that key is the class's least: each non-circle class
    keeps the representative it had when every class was walked.  A
    non-circle class is an obstruction when every one-vertex deletion
    of every member is circle.
    """
    if max_n > OBSTRUCTION_GUARD:
        raise ValueError(f"obstruction search guard: over {OBSTRUCTION_GUARD} vertices")
    out: list[LoopedSimpleGraph] = []
    for n in range(1, max_n + 1):
        seen: set[GraphKey] = set()
        for key in connected_graph_keys(n):
            if key in seen:
                continue
            rep = graph_from_key(key)
            spare = _spare_vertex(rep.adj)
            if spare is not None and is_circle_graph(rep.delete_vertex(rep.labels[spare])):
                continue
            cls = lc_orbit_keys(rep)
            seen |= cls
            if is_circle_graph(rep):
                continue
            members = map(graph_from_key, cls)
            if all(is_circle_graph(g.delete_vertex(v)) for g in members for v in g.labels):
                out.append(rep)
    return out


# ----------------------------------------------------------------------
# ribbon-graphic recognition via excluded three-operation minors


@lru_cache(maxsize=None)
def _circle_class(size: int) -> frozenset[GraphKey]:
    """The simple-graph keys of the class of the circle obstructions with
    size vertices: their LC orbits (see the module docstring), built once
    per process."""
    return frozenset().union(*(lc_orbit_keys(g) for g in circle_obstructions() if g.size == size))


@lru_cache(maxsize=None)
def _degree_sequences(keys: frozenset[GraphKey]) -> frozenset[tuple[int, ...]]:
    """The sorted degree sequences of the graphs of keys."""
    return frozenset(tuple(sorted(row.bit_count() for row in graph_from_key(k).adj)) for k in keys)


def _has_minor_in(system: SetSystem, classes: dict[int, frozenset[GraphKey]]) -> bool:
    """Has the binary system a three-operation minor whose leaf graph is
    in classes[its size]?

    Every minor of a binary system is binary, so twisted at its least
    feasible set F, the lowest set bit of the walk's leaf, it is D(B) for
    the looped graph B that basic_rows reads off the leaf.  Only minors
    of the sizes in classes are formed, and the leaf graph is the simple
    graph under B.

    A leaf graph is canonicalized only if its sorted degree sequence is
    one of its class's.  Isomorphic graphs have equal degree sequences,
    so a graph this filter rejects is in no class, and every verdict is
    the one the keys alone give.  The circle classes hold 2, 9 and 22
    keys at 6, 7 and 8 vertices, with 2, 9 and 12 sequences, and
    verify_rg_consistency(7) keys 1 260 leaf graphs instead of 19 149.
    """
    for x, y, z, leaf in system.iter_three_minors(frozenset(classes)):
        kept = system.full_mask & ~(x | y | z)
        positions = [i for i in range(system.size) if kept >> i & 1]
        rows = basic_rows(lambda f: leaf >> f & 1, positions, (leaf & -leaf).bit_length() - 1)
        simple = tuple(row & ~(1 << k) for k, row in enumerate(rows))
        keys = classes[len(rows)]
        if (tuple(sorted(row.bit_count() for row in simple)) in _degree_sequences(keys)
                and graph_canonical_key(LoopedSimpleGraph(system.subset_labels(kept), simple)) in keys):
            return True
    return False


def is_ribbon_graphic(system: SetSystem) -> bool:
    """Binary, and no three-operation minor in a circle-obstruction class.

    Binary settles the B1 and S3 obstructions (see the module docstring).
    A minor is in a class iff the simple graph under its B is in the
    obstruction's LC orbit, and only minors as large as a circle
    obstruction are formed, so a ground set smaller than all of them is
    never walked.
    """
    if not system.is_proper:
        raise ValueError("requires a proper system")
    n = system.size
    if n > RIBBON_GUARD:
        raise ValueError(f"ribbon recognition guard: over {RIBBON_GUARD} elements")
    return is_binary(system) and not _has_minor_in(
        system, {g.size: _circle_class(g.size) for g in circle_obstructions() if g.size <= n})


@lru_cache(maxsize=1)
def circle_obstructions() -> tuple[LoopedSimpleGraph, ...]:
    """The three derived circle obstructions, loaded once from the
    package cache (see formats.load_obstruction_cache)."""
    from .formats import load_obstruction_cache

    return load_obstruction_cache()
