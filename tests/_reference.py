"""Independent brute-force reference implementations for the tests.

These are the slow, definitional oracles that the library's fast paths
are checked against; the library ships none of them.  loop_complement_ref
checks the folded loop complementation, det_elimination_ref (itself
checked by det_permanent_ref) the principal determinants behind
feasible_masks, ppt_ref the tableau pivot, first_exchange_witness_ref
the witness order of check_symmetric_exchange, and circle_word_search_ref
(the chord-word backtracker as it was, with a per-chord crossing log
undone on backtrack) the words that graphs._circle_word_search returns.

Everything here works on frozensets of label strings or on plain 0/1
lists (not bitmasks) and takes the shortest definitional route, so it
shares no code with the library under test.  circle_word_search_ref
works on adjacency bitmasks, because the words it pins are the library's
search order, not a definition.  Two more exceptions check the
circle-obstruction classes in graphs, held there as LC orbits of
simple graphs: ClosureTester, the labeled closure of a twisted-duality
class, and looped_class_keys, the class as the canonical keys of the
looped graphs reached by loop toggles at any vertex and local
complementations at looped vertices.  circle_obstructions_ref uses the
library's enumeration and LC orbits but decides every graph on its own
with the uncached chord-word search.  lc_orbit_keys_ref complements at
every vertex, so it checks the no-op skip of lc_orbit_keys.
connected_graph_keys_ref labels every one-vertex extension with the
library's canonical search and has no canonical-deletion filter, so it
checks the filtered enumeration.  canon_key_ref is the canonical
labeling search as it was before its colour refinement stopped at the
first round that splits no cell or at a discrete partition, each
refinement running until a round changes no colour; it works on
adjacency bitmasks, because the keys it pins are the library's.
simple_graph_key_ref and
is_ribbon_graphic_ref are the ribbon-graphic path that builds every
minor with three_minor, twists it onto its least feasible set and
reconstructs its matrix, against which the graph read off each leaf is
checked.  orbit_up_to_iso_ref canonicalizes every labeled member of the
closure, against which the class sweep is checked.  labeled_closure_ref
is the labeled closure as one pass of the six words of twisted_duals_wrt
per element, against which the fold of three words and its twist classes
behind orbit are checked.  is_vertex_minor_ref is the recursion over
LC orbits and vertex deletions that graphs.is_vertex_minor replaced by
the three-operation minor walk.
relabel_ref is the bit-by-bit relabeling that setsystem.labelings
replaced by per-permutation image tables; it works on bitmasks, because
the labelings it pins are the library's.  delete_ref and contract_ref
are the two removals as they were before one removal rule replaced them,
each falling back on the other at a coloop or a loop, and
penrose_contract_ref builds on them and loop_complement_ref.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Sequence

from deltamatroids.duality import orbit, twisted_duals_wrt
from deltamatroids.gf2 import is_binary, reconstruct_basic_matrix
from deltamatroids.graphs import (
    VERTEX_MINOR_GUARD,
    GraphKey,
    LoopedSimpleGraph,
    _canon_key_raw,
    _circle_class,
    circle_obstructions,
    circle_word,
    connected_graph_keys,
    graph_canonical_key,
    graph_from_key,
    lc_orbit_keys,
)
from deltamatroids.setsystem import SetSystem


def to_sets(system: SetSystem) -> tuple[tuple[str, ...], frozenset[frozenset[str]]]:
    return system.labels, frozenset(frozenset(fs) for fs in system.feasible_sets())


def family_of(system: SetSystem) -> frozenset[frozenset[str]]:
    return to_sets(system)[1]


def make(labels, family) -> SetSystem:
    return SetSystem.from_sets(labels, [sorted(f) for f in family])


def twist_ref(family, a: frozenset) -> frozenset:
    return frozenset(f ^ a for f in family)


def loop_complement_ref(ground, family, a: frozenset) -> frozenset:
    """Direct parity definition, summed over the family: F is feasible iff
    an odd number of feasible F' have F - A <= F' <= F, and the F that
    one F' counts towards are F' | B for every B <= A - F'."""
    parity = Counter()
    for fp in family:
        ups = [fp]
        for e in a - fp:
            ups += [f | {e} for f in ups]
        parity.update(ups)
    return frozenset(f for f, count in parity.items() if count % 2)


def symmetric_exchange_ref(family) -> bool:
    for x in family:
        for y in family:
            for u in x ^ y:
                if not any(x ^ {u, v} in family for v in x ^ y):
                    return False
    return True


def first_exchange_witness_ref(labels, family):
    """The first (X, Y, u) violating symmetric exchange, or None: X and Y
    in the order of their masks (bit i is labels[i]), u by label position."""
    def mask(f):
        return sum(1 << labels.index(e) for e in f)

    order = sorted(family, key=mask)
    for x in order:
        for y in order:
            for u in sorted(x ^ y, key=labels.index):
                if not any(x ^ {u, v} in family for v in x ^ y):
                    return x, y, u
    return None


def minor_ref(ground, family, delete: frozenset, contract: frozenset):
    """Closed-form minor; None when no witness exists."""
    kept = [f - contract for f in family if not (f & delete) and contract <= f]
    if not kept:
        return None
    return tuple(x for x in ground if x not in delete | contract), frozenset(kept)


def delete_ref(system: SetSystem, e: str) -> SetSystem:
    """S\\e on a proper system: the sets that avoid e; a coloop is
    contracted instead."""
    ground, family = to_sets(system)
    kept = [f for f in family if e not in f]
    if not kept:
        return contract_ref(system, e)
    return make([x for x in ground if x != e], kept)


def contract_ref(system: SetSystem, e: str) -> SetSystem:
    """S/e on a proper system: the sets through e, with e stripped; a loop
    is deleted instead."""
    ground, family = to_sets(system)
    kept = [f - {e} for f in family if e in f]
    if not kept:
        return delete_ref(system, e)
    return make([x for x in ground if x != e], kept)


def penrose_contract_ref(system: SetSystem, e: str) -> SetSystem:
    """Loop-complement at e, then contract e."""
    ground, family = to_sets(system)
    return contract_ref(make(ground, loop_complement_ref(ground, family, frozenset({e}))), e)


def det_elimination_ref(entries) -> int:
    """GF(2) determinant by Gaussian elimination on a copy of the rows."""
    rows = [list(row) for row in entries]
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            if rows[r][col]:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[col])]
    return 1


def det_permanent_ref(entries) -> int:
    """GF(2) determinant by permutation expansion (signs vanish mod 2)."""
    n = len(entries)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod &= entries[i][perm[i]]
        total ^= prod
    return total


def ppt_ref(entries, subset):
    """Principal pivot transform by definition, or None if it does not exist.

    For each x in GF(2)^n let y = Ax; x' is x with x_X replaced by y_X and
    y' is y with y_X replaced by x_X.  A * X exists iff x -> x' is a
    bijection, and then (A * X) x' = y' for every x.  Returns the list of
    the pairs (x', y'), each a tuple of 0/1 entries.
    """
    n = len(entries)
    pairs = []
    for x in itertools.product((0, 1), repeat=n):
        y = [sum(entries[i][j] * x[j] for j in range(n)) % 2 for i in range(n)]
        x2 = tuple(y[i] if i in subset else x[i] for i in range(n))
        y2 = tuple(x[i] if i in subset else y[i] for i in range(n))
        pairs.append((x2, y2))
    if len({x2 for x2, _ in pairs}) < len(pairs):
        return None
    return pairs


def interlacement_ref(word):
    """Crossing pairs of a double-occurrence word, as a set of frozensets."""
    names = sorted(set(word))
    pos = {s: [i for i, w in enumerate(word) if w == s] for s in names}
    crossing = set()
    for a, b in itertools.combinations(names, 2):
        a1, a2 = pos[a]
        if sum(1 for p in pos[b] if a1 < p < a2) == 1:
            crossing.add(frozenset((a, b)))
    return crossing


def all_double_occurrence_words(n: int):
    """Every double-occurrence word on symbols 0..n-1 starting with 0."""
    symbols = [s for s in range(n) for _ in range(2)]

    def rec(remaining, prefix):
        if not remaining:
            yield tuple(prefix)
            return
        seen = set()
        for i, s in enumerate(remaining):
            if s in seen:
                continue
            seen.add(s)
            yield from rec(remaining[:i] + remaining[i + 1:], prefix + [s])

    if n == 0:
        yield ()
        return
    rest = symbols[1:]
    yield from rec(rest, [0])


def chord_diagram_words(n: int):
    """One double-occurrence word per chord diagram on n chords: the
    (2n - 1)!! words on symbols 0..n-1 whose symbols first appear in
    increasing order."""
    def rec(word, symbol):
        if symbol == n:
            yield tuple(word)
            return
        first = word.index(None)
        word[first] = symbol
        for second in range(first + 1, 2 * n):
            if word[second] is None:
                word[second] = symbol
                yield from rec(word, symbol + 1)
                word[second] = None
        word[first] = None

    yield from rec([None] * (2 * n), 0)


def circle_word_search_ref(n: int, adj: Sequence[int]) -> tuple[int, ...] | None:
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


def relabel_ref(masks: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """The masks with bit i moved to bit perm[i], one bit at a time, sorted."""
    out = []
    for m in masks:
        r = 0
        i = 0
        while m:
            if m & 1:
                r |= 1 << perm[i]
            m >>= 1
            i += 1
        out.append(r)
    out.sort()
    return tuple(out)


class ClosureTester:
    """Membership in the twisted-duality class of one system, up to
    isomorphism: its labeled closure as a set of feasible tuples, matched
    by scanning ground permutations until one lands in the set."""

    def __init__(self, seed: SetSystem):
        self.seed = seed
        self.families = frozenset(m.feasible for m in orbit(seed).members)
        self.profiles = {self._profile(f) for f in self.families}

    @staticmethod
    def _profile(feasible) -> tuple:
        return len(feasible), tuple(sorted(m.bit_count() for m in feasible))

    def matches(self, system: SetSystem) -> bool:
        if system.size != self.seed.size or self._profile(system.feasible) not in self.profiles:
            return False
        return any(
            relabel_ref(system.feasible, perm) in self.families
            for perm in itertools.permutations(range(system.size))
        )


@functools.lru_cache(maxsize=None)
def closure_tester(seed: SetSystem) -> ClosureTester:
    return ClosureTester(seed)


def looped_class_keys(seeds) -> set:
    """Canonical keys of every looped graph reachable from the seeds by a
    loop toggle at any vertex or a local complementation at a looped
    vertex (the principal pivot there)."""
    seen = {graph_canonical_key(g) for g in seeds}
    frontier = list(seen)
    while frontier:
        nxt = []
        for key in frontier:
            g = graph_from_key(key)
            moves = [g.loop_toggle(v) for v in g.labels]
            moves += [g.local_complement(v) for i, v in enumerate(g.labels) if g.loops >> i & 1]
            for child in moves:
                child_key = graph_canonical_key(child)
                if child_key not in seen:
                    seen.add(child_key)
                    nxt.append(child_key)
        frontier = nxt
    return seen


def lc_orbit_keys_ref(graph) -> frozenset:
    """Canonical keys of the local-complementation class: a breadth-first
    search that complements at every vertex of every member."""
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


def circle_obstructions_ref(max_n: int) -> list:
    """Least keys of the vertex-minor-minimal non-circle LC classes on at
    most max_n vertices, found graph by graph: circle_word on every
    connected graph, and on every one-vertex deletion of every member of a
    non-circle graph's class."""
    found = set()
    for n in range(1, max_n + 1):
        for key in connected_graph_keys(n):
            if circle_word(graph_from_key(key)) is not None:
                continue
            cls = lc_orbit_keys(graph_from_key(key))
            members = [graph_from_key(k) for k in cls]
            if all(circle_word(g.delete_vertex(v)) is not None for g in members for v in g.labels):
                found.add(min(cls))
    return sorted(found)


@functools.cache
def connected_graph_keys_ref(n: int) -> tuple:
    """Canonical keys of the connected graphs on n vertices: every
    nonempty neighbourhood of a new vertex over every connected graph on
    n-1 vertices, each extension labeled and the keys deduplicated."""
    if n < 1:
        return ()
    if n == 1:
        return ((1, 0, 0),)
    found = set()
    for parent_key in connected_graph_keys_ref(n - 1):
        parent = graph_from_key(parent_key)
        for nb in range(1, 1 << (n - 1)):
            adj = [parent.adj[i] | ((nb >> i & 1) << (n - 1)) for i in range(n - 1)]
            found.add(_canon_key_raw(n, adj + [nb], 0))
    return tuple(sorted(found))


def canon_key_ref(n: int, adj: Sequence[int], loops: int) -> GraphKey:
    """The canonical key of the looped graph: the least (loop bits,
    adjacency bits) over the leaves of an individualization-refinement
    search whose refinement runs until a round changes no colour."""

    def refine(colors: list[int]) -> list[int]:
        while True:
            sig = []
            for v in range(n):
                nb = sorted(colors[u] for u in range(n) if adj[v] >> u & 1)
                sig.append((colors[v], tuple(nb)))
            remap = {s: i for i, s in enumerate(sorted(set(sig)))}
            new = [remap[s] for s in sig]
            if new == colors:
                return colors
            colors = new

    def homogeneous(cell: list[int]) -> bool:
        cellmask = sum(1 << v for v in cell)
        if len({adj[v] & ~cellmask for v in cell}) > 1:
            return False
        inner = [adj[v] & cellmask for v in cell]
        return all(m == 0 for m in inner) or all(inner[k] == cellmask ^ (1 << v) for k, v in enumerate(cell))

    leaves = []

    def rec(colors: list[int]) -> None:
        colors = refine(colors)
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1 and not homogeneous(cells[c])), None)
        if target is None:
            order = sorted(range(n), key=lambda v: (colors[v], v))
            lk = sum(1 << i for i in range(n) if loops >> order[i] & 1)
            pairs = [(i, j) for i in range(n) for j in range(i)]
            ak = sum(1 << idx for idx, (i, j) in enumerate(pairs) if adj[order[i]] >> order[j] & 1)
            leaves.append((lk, ak))
            return
        for v in target:
            rec([colors[u] * 2 + (0 if u == v else 1) for u in range(n)])

    init = [(loops >> v & 1, adj[v].bit_count()) for v in range(n)]
    remap = {s: i for i, s in enumerate(sorted(set(init)))}
    rec([remap[s] for s in init])
    return (n, *min(leaves))


def simple_graph_key_ref(system: SetSystem):
    """The key of the simple graph under the looped graph B with
    system * F = D(B) for its least feasible set F.  The system must be
    binary, so that its twist onto F is basic binary."""
    b = reconstruct_basic_matrix(system.twist(system.feasible[0]))
    simple = tuple(row & ~(1 << i) for i, row in enumerate(b.rows))
    return graph_canonical_key(LoopedSimpleGraph(b.labels, simple))


def is_ribbon_graphic_ref(system: SetSystem) -> bool:
    """Binary, and no minor as large as a circle obstruction, built by
    three_minor, whose simple_graph_key_ref is in that obstruction's class."""
    if not is_binary(system):
        return False
    sizes = frozenset(g.size for g in circle_obstructions())
    for x, y, z, _ in system.iter_three_minors(sizes):
        minor = system.three_minor(x, y, z)
        if simple_graph_key_ref(minor) in _circle_class(minor.size):
            return False
    return True


def orbit_up_to_iso_ref(system: SetSystem) -> tuple:
    """The canonical forms of the labeled closure's members, sorted."""
    forms = {m.canonical_form() for m in orbit(system).members}
    return tuple(sorted(forms, key=lambda m: m.feasible))


def labeled_closure_ref(system: SetSystem) -> dict[tuple[int, ...], SetSystem]:
    """Every labeled twisted dual, keyed by its feasible tuple: twists and
    loop complementations at different elements commute, and at one
    element they generate the six words of twisted_duals_wrt, so the
    closure is one pass of those six words per element."""
    states = {system.feasible: system}
    for i in range(system.size):
        states = {d.feasible: d for s in states.values() for d in twisted_duals_wrt(s, 1 << i)}
    return states


def is_vertex_minor_ref(graph: LoopedSimpleGraph, target: LoopedSimpleGraph) -> bool:
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
