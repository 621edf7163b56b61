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
every loop pattern over the local-complementation orbit of G.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .gf2 import SymmetricBinaryMatrix, is_binary, reconstruct_basic_matrix
from .setsystem import SetSystem, popcount

CIRCLE_GUARD = 9
VERTEX_MINOR_GUARD = 9
OBSTRUCTION_GUARD = 8
RIBBON_GUARD = 8


@dataclass(frozen=True)
class LoopedSimpleGraph:
    """Simple graph with optional one loop per vertex.

    adj[i] is the neighbour mask of vertex i (diagonal zero); loops is the
    mask of looped vertices.
    """

    labels: tuple[str, ...]
    adj: tuple[int, ...]
    loops: int = 0

    def __post_init__(self):
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("vertex labels must be distinct")
        if len(self.adj) != n:
            raise ValueError("adjacency row count must match vertex count")
        full = (1 << n) - 1
        if self.loops & ~full:
            raise ValueError("loop mask outside the vertex set")
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError("adjacency row outside the vertex set")
            if row >> i & 1:
                raise ValueError("adjacency diagonal must be zero")
            for j in range(i):
                if (row >> j & 1) != (self.adj[j] >> i & 1):
                    raise ValueError("adjacency must be symmetric")

    @classmethod
    def from_edges(
        cls,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
        loops: Iterable[str] = (),
    ) -> LoopedSimpleGraph:
        labels = tuple(vertices)
        pos = {lab: i for i, lab in enumerate(labels)}
        adj = [0] * len(labels)
        for u, v in edges:
            if u == v:
                raise ValueError("use the loops argument for loops")
            adj[pos[u]] |= 1 << pos[v]
            adj[pos[v]] |= 1 << pos[u]
        lmask = 0
        for u in loops:
            lmask |= 1 << pos[u]
        return cls(labels, tuple(adj), lmask)

    @property
    def size(self) -> int:
        return len(self.labels)

    def vertex_index(self, v: str) -> int:
        try:
            return self.labels.index(v)
        except ValueError:
            raise ValueError(f"vertex {v!r} not in graph") from None

    def neighbor_mask(self, v: str) -> int:
        return self.adj[self.vertex_index(v)]

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for i in range(self.size):
            row = self.adj[i]
            for j in range(i):
                if row >> j & 1:
                    out.append((self.labels[j], self.labels[i]))
        return out

    def has_edge(self, u: str, v: str) -> bool:
        return bool(self.adj[self.vertex_index(u)] >> self.vertex_index(v) & 1)

    def __str__(self) -> str:
        es = " ".join(f"{u}-{v}" for u, v in self.edges())
        ls = ",".join(lab for i, lab in enumerate(self.labels) if self.loops >> i & 1)
        return f"G({','.join(self.labels)}; {es or '-'}{'; loops ' + ls if ls else ''})"

    # ------------------------------------------------------------------
    # transformations

    def loop_toggle(self, v: str) -> LoopedSimpleGraph:
        return LoopedSimpleGraph(self.labels, self.adj, self.loops ^ (1 << self.vertex_index(v)))

    def local_complement(self, v: str) -> LoopedSimpleGraph:
        """Toggle adjacencies inside the open neighbourhood of v.

        When v carries a loop, the loop status of every neighbour is
        toggled as well.  v's own edges and loop never change.
        """
        i = self.vertex_index(v)
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
        i = self.vertex_index(v)
        keep = [k for k in range(self.size) if k != i]
        labels = tuple(self.labels[k] for k in keep)

        def compress(m: int) -> int:
            out = 0
            for new_k, old_k in enumerate(keep):
                if m >> old_k & 1:
                    out |= 1 << new_k
            return out

        adj = tuple(compress(self.adj[k]) for k in keep)
        return LoopedSimpleGraph(labels, adj, compress(self.loops))

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


def _refine(n: int, adj: Sequence[int], colors: list[int]) -> list[int]:
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
        new = [remap[s] for s in sig]
        if new == colors:
            return colors
        colors = new


def _homogeneous(cell: Sequence[int], adj: Sequence[int], cellmask: int) -> bool:
    ext = {adj[v] & ~cellmask for v in cell}
    if len(ext) > 1:
        return False
    inner = [adj[v] & cellmask for v in cell]
    if all(m == 0 for m in inner):
        return True
    return all(inner[k] == cellmask ^ (1 << v) for k, v in enumerate(cell))


GraphKey = tuple[int, int, int]  # (n, loop bits, upper-triangle adjacency bits)

_graph_canon_cache: dict[tuple, GraphKey] = {}


def graph_canonical_key(graph: LoopedSimpleGraph) -> GraphKey:
    return _canon_key_raw(graph.size, graph.adj, graph.loops)


def _canon_key_raw(n: int, adj: Sequence[int], loops: int) -> GraphKey:
    cache_key = (n, tuple(adj), loops)
    hit = _graph_canon_cache.get(cache_key)
    if hit is not None:
        return hit
    best: tuple[int, int] | None = None

    def leaf(colors: list[int]) -> None:
        nonlocal best
        order = sorted(range(n), key=lambda v: (colors[v], v))
        lk = 0
        ak = 0
        idx = 0
        for i in range(n):
            vi = order[i]
            if loops >> vi & 1:
                lk |= 1 << i
            row = adj[vi]
            for j in range(i):
                if row >> order[j] & 1:
                    ak |= 1 << idx
                idx += 1
        key = (lk, ak)
        if best is None or key < best:
            best = key

    def rec(colors: list[int]) -> None:
        colors = _refine(n, adj, colors)
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(cells):
            cell = cells[c]
            if len(cell) > 1:
                cellmask = 0
                for v in cell:
                    cellmask |= 1 << v
                if not _homogeneous(cell, adj, cellmask):
                    target = cell
                    break
        if target is None:
            leaf(colors)
            return
        for v in target:
            rec([colors[u] * 2 + (0 if u == v else 1) for u in range(n)])

    degrees = [popcount(m) for m in adj]
    init = [(loops >> v & 1, degrees[v]) for v in range(n)]
    remap = {s: i for i, s in enumerate(sorted(set(init)))}
    rec([remap[s] for s in init])
    result = (n, best[0], best[1]) if best is not None else (0, 0, 0)
    _graph_canon_cache[cache_key] = result
    return result


def graph_from_key(key: GraphKey, labels: Sequence[str] | None = None) -> LoopedSimpleGraph:
    n, lk, ak = key
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    adj = [0] * n
    idx = 0
    for i in range(n):
        for j in range(i):
            if ak >> idx & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return LoopedSimpleGraph(tuple(labels), tuple(adj), lk)


def is_graph_isomorphic(g: LoopedSimpleGraph, h: LoopedSimpleGraph) -> bool:
    if g.size != h.size or popcount(g.loops) != popcount(h.loops):
        return False
    if sorted(map(popcount, g.adj)) != sorted(map(popcount, h.adj)):
        return False
    return graph_canonical_key(g) == graph_canonical_key(h)


# ----------------------------------------------------------------------
# enumeration of connected graphs up to isomorphism

_connected_cache: dict[int, tuple[GraphKey, ...]] = {}


def connected_graph_keys(n: int) -> tuple[GraphKey, ...]:
    """Canonical keys of all connected loopless graphs on n vertices.

    Every connected graph on n vertices extends a connected graph on n-1
    vertices by one vertex with a nonempty neighbourhood (delete any
    non-cut vertex to see this), so extension plus dedup is exhaustive.
    """
    if n < 1:
        return ()
    hit = _connected_cache.get(n)
    if hit is not None:
        return hit
    if n == 1:
        out: tuple[GraphKey, ...] = ((1, 0, 0),)
    else:
        found: set[GraphKey] = set()
        for parent_key in connected_graph_keys(n - 1):
            parent = graph_from_key(parent_key)
            for nb in range(1, 1 << (n - 1)):
                adj = [parent.adj[i] | ((nb >> i & 1) << (n - 1)) for i in range(n - 1)]
                adj.append(nb)
                found.add(_canon_key_raw(n, adj, 0))
        out = tuple(sorted(found))
    _connected_cache[n] = out
    return out


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

    A chord's full crossing row is determined the moment it closes: it
    crosses exactly the still-open chords opened after it, plus the
    already-recorded closers.  Each close move therefore checks its row
    against adj exactly, and a chord may only open while no finished chord
    expects to cross it.
    """
    if n == 0:
        return ()  # the empty word realizes the empty graph
    acc = [0] * n  # crossings recorded by earlier closers
    open_stack = [0]
    opened = 1
    closed = 0
    word: list[int] = [0]

    def rec() -> bool:
        nonlocal opened, closed
        if len(word) == 2 * n:
            return True
        above = 0
        for si in range(len(open_stack) - 1, -1, -1):
            x = open_stack[si]
            if adj[x] & ~acc[x] == above:
                open_stack.pop(si)
                closed_bit = 1 << x
                closed_new = closed | closed_bit
                undo = []
                m = above
                while m:
                    low = m & -m
                    u = low.bit_length() - 1
                    acc[u] |= closed_bit
                    undo.append(u)
                    m ^= low
                closed_old = closed
                closed = closed_new
                word.append(x)
                if rec():
                    return True
                word.pop()
                closed = closed_old
                for u in undo:
                    acc[u] ^= closed_bit
                open_stack.insert(si, x)
            above |= 1 << x
        for v in range(n):
            bit = 1 << v
            if opened & bit:
                continue
            if adj[v] & closed:  # a finished chord cannot gain crossings
                continue
            skip = False
            for u in range(v):
                if not opened & (1 << u):
                    rowu = adj[u] & ~bit
                    rowv = adj[v] & ~(1 << u)
                    if rowu == rowv:  # interchangeable twins, keep the lower
                        skip = True
                        break
            if skip:
                continue
            opened |= bit
            open_stack.append(v)
            word.append(v)
            if rec():
                return True
            word.pop()
            open_stack.pop()
            opened ^= bit
        return False

    if rec():
        return tuple(word)
    return None


_circle_cache: dict[GraphKey, bool] = {}


def is_circle_graph(graph: LoopedSimpleGraph) -> bool:
    """Is the graph the interlacement graph of some chord diagram?

    Exhaustive backtracking over double-occurrence words; the first word
    position is pinned to vertex 0 since rotating a diagram changes
    nothing.
    """
    if graph.loops:
        raise ValueError("circle recognition requires a loopless graph")
    if graph.size > CIRCLE_GUARD:
        raise ValueError(f"circle recognition guard: over {CIRCLE_GUARD} vertices")
    key = graph_canonical_key(graph)
    hit = _circle_cache.get(key)
    if hit is None:
        rep = graph_from_key(key)
        hit = _circle_word_search(rep.size, rep.adj) is not None
        _circle_cache[key] = hit
    return hit


def circle_word(graph: LoopedSimpleGraph) -> ChordDiagram | None:
    """A realizing chord diagram for the labeled graph, if one exists."""
    if graph.loops:
        raise ValueError("circle recognition requires a loopless graph")
    if graph.size > CIRCLE_GUARD:
        raise ValueError(f"circle recognition guard: over {CIRCLE_GUARD} vertices")
    word = _circle_word_search(graph.size, graph.adj)
    if word is None:
        return None
    return ChordDiagram(tuple(graph.labels[w] for w in word))


# ----------------------------------------------------------------------
# local-complementation orbits and vertex minors


def lc_orbit_keys(graph: LoopedSimpleGraph) -> frozenset[GraphKey]:
    """Canonical keys of the local-complementation class of the graph."""
    seen = {graph_canonical_key(graph)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for key in frontier:
            g = graph_from_key(key)
            for v in g.labels:
                child_key = graph_canonical_key(g.local_complement(v))
                if child_key not in seen:
                    seen.add(child_key)
                    nxt.append(child_key)
        frontier = nxt
    return frozenset(seen)


def is_vertex_minor(graph: LoopedSimpleGraph, target: LoopedSimpleGraph) -> bool:
    """Is the target reachable, up to isomorphism, by local
    complementations and vertex deletions?"""
    if graph.size > VERTEX_MINOR_GUARD:
        raise ValueError(f"vertex-minor guard: over {VERTEX_MINOR_GUARD} vertices")
    target_key = graph_canonical_key(target)
    tn = target.size
    if tn > graph.size:
        return False
    memo: dict[GraphKey, bool] = {}

    def reach(key: GraphKey) -> bool:
        hit = memo.get(key)
        if hit is not None:
            return hit
        cls = lc_orbit_keys(graph_from_key(key))
        if key[0] == tn:
            res = target_key in cls
        else:
            res = False
            for member in cls:
                rep = graph_from_key(member)
                if any(reach(graph_canonical_key(rep.delete_vertex(v))) for v in rep.labels):
                    res = True
                    break
        for member in cls:
            memo[member] = res
        return res

    return reach(graph_canonical_key(graph))


# ----------------------------------------------------------------------
# circle-graph obstructions


def find_circle_obstructions(max_n: int) -> list[LoopedSimpleGraph]:
    """Vertex-minor-minimal non-circle graphs on at most max_n vertices,
    one representative per local-complementation class.

    Only connected graphs are scanned: a disconnected non-circle graph
    has a non-circle component, which is a proper vertex minor.
    """
    if max_n > OBSTRUCTION_GUARD:
        raise ValueError(f"obstruction search guard: over {OBSTRUCTION_GUARD} vertices")
    out: list[LoopedSimpleGraph] = []
    for n in range(1, max_n + 1):
        handled: set[GraphKey] = set()
        for key in connected_graph_keys(n):
            if key in handled:
                continue
            rep = graph_from_key(key)
            if is_circle_graph(rep):
                continue
            cls = lc_orbit_keys(rep)
            handled |= cls
            minimal = True
            for member in cls:
                g = graph_from_key(member)
                if any(not is_circle_graph(g.delete_vertex(v)) for v in g.labels):
                    minimal = False
                    break
            if minimal:
                out.append(graph_from_key(min(cls)))
    return out


# ----------------------------------------------------------------------
# ribbon-graphic recognition via excluded three-operation minors


@lru_cache(maxsize=None)
def _circle_class(size: int) -> frozenset[GraphKey]:
    """The simple-graph keys of the class of the circle obstructions with
    size vertices: their LC orbits (see the module docstring), built once
    per process."""
    return frozenset().union(*(lc_orbit_keys(g) for g in circle_obstructions() if g.size == size))


def _simple_graph_key(system: SetSystem) -> GraphKey:
    """The key of the simple graph under the looped graph B with
    system * F = D(B) for its least feasible set F.  The system must be
    binary, so that its twist onto F is basic binary."""
    t = system.twist(system.feasible[0])
    rows = reconstruct_basic_matrix(t).rows
    return _canon_key_raw(t.size, [row & ~(1 << i) for i, row in enumerate(rows)], 0)


def is_ribbon_graphic(system: SetSystem) -> bool:
    """Binary, and no three-operation minor in a circle-obstruction class.

    Binary settles the B1 and S3 obstructions (see the module docstring).
    Only minors as large as a circle obstruction are then formed, so a
    ground set smaller than all of them is never walked.  Every minor of
    a binary system is binary, so its twist at its least feasible set is
    basic binary, and the minor is in a class iff the simple graph of
    that twist's looped graph is in the obstruction's LC orbit.
    """
    if not system.is_proper:
        raise ValueError("requires a proper system")
    n = system.size
    if n > RIBBON_GUARD:
        raise ValueError(f"ribbon recognition guard: over {RIBBON_GUARD} elements")
    if not is_binary(system):
        return False
    sizes = frozenset(g.size for g in circle_obstructions() if g.size <= n)
    for x, y, z, _ in system.iter_three_minors(sizes):
        keys = _circle_class(n - (x | y | z).bit_count())
        if _simple_graph_key(system.three_minor(x, y, z)) in keys:
            return False
    return True


@lru_cache(maxsize=1)
def circle_obstructions() -> tuple[LoopedSimpleGraph, ...]:
    """The three derived circle obstructions, loaded once from the
    package cache (see formats.load_obstruction_cache)."""
    from .formats import load_obstruction_cache

    return load_obstruction_cache()
