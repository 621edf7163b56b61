"""Verification suites: exhaustive and seeded-random reproduction of the
library's defining identities and classifications at desk scale.

Each suite returns a VerificationReport whose printable content depends
only on the inputs and seeds; wall time is carried separately so reports
stay byte-identical across runs.  Every suite runs in one process, in a
serial loop: the work is pure Python, so threads would only contend for
the interpreter lock.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import catalog
from .duality import dual_pivot, has_catalog_3_minor, is_vf_safe, is_vf_safe_via_obstruction, orbit
from .exchange import is_delta_matroid
from .gf2 import SymmetricBinaryMatrix
from .graphs import (
    LoopedSimpleGraph,
    connected_graph_keys,
    find_circle_obstructions,
    graph_canonical_key,
    graph_from_key,
    is_circle_graph,
    is_ribbon_graphic,
    lc_orbit_keys,
)
from .setsystem import SetSystem, Op, UnrealizableMinorError


@dataclass
class VerificationReport:
    suite: str
    instances: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    wall_time: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, instance: str, expected: str, got: str) -> None:
        self.failures.append((instance, expected, got))

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"{status} {self.suite}: {self.instances} instances, {len(self.failures)} failures"]
        out.extend(f"  note: {n}" for n in self.notes)
        out.extend(
            f"  failure: {inst} | expected {exp} | got {got}"
            for inst, exp, got in self.failures
        )
        return out


def _run(suite: str, body: Callable[[VerificationReport], None]) -> VerificationReport:
    report = VerificationReport(suite)
    t0 = time.perf_counter()
    body(report)
    report.wall_time = time.perf_counter() - t0
    return report


def _map(fn, items: Iterable):
    """fn's failure list for each item, in order; an exception raised on
    one item is recorded as that item's failure and the loop goes on."""
    for item in items:
        try:
            failures = fn(item)
        except Exception as exc:  # a crash is a failure, not an abort
            failures = [(repr(item), "no exception", repr(exc))]
        yield failures


def _all_proper_systems(n: int) -> Iterable[SetSystem]:
    labels = tuple("abcdefgh"[:n])
    for bits in range(1, 1 << (1 << n)):
        yield SetSystem(labels, tuple(i for i in range(1 << n) if bits >> i & 1))


def _random_proper_system(rng: random.Random, max_n: int) -> SetSystem:
    n = rng.randint(1, max_n)
    bits = rng.randrange(1, 1 << (1 << n))
    return SetSystem(tuple("abcdefgh"[:n]), tuple(i for i in range(1 << n) if bits >> i & 1))


def _random_symmetric_matrix(rng: random.Random, n: int) -> SymmetricBinaryMatrix:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return SymmetricBinaryMatrix(tuple(str(i + 1) for i in range(n)), tuple(rows))


def _random_loopless_graph(rng: random.Random, n: int) -> LoopedSimpleGraph:
    adj = [0] * n
    for i in range(n):
        for j in range(i):
            if rng.getrandbits(1):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return LoopedSimpleGraph(tuple("pqrstuv"[:n]), tuple(adj), 0)


# ----------------------------------------------------------------------


def verify_main_theorem(max_n: int = 3) -> VerificationReport:
    """Orbit-based vf-safety agrees with the 28-obstruction form on every
    proper system with 3 (and optionally 4) labeled elements."""

    def body(report: VerificationReport) -> None:
        for n in range(3, max_n + 1):
            count = 0
            for system in _all_proper_systems(n):
                count += 1
                via_orbit = is_vf_safe(system)
                via_obstruction = is_vf_safe_via_obstruction(system)
                if via_orbit != via_obstruction:
                    report.fail(str(system), f"orbit={via_orbit}", f"obstruction={via_obstruction}")
            report.instances += count
            report.notes.append(f"n={n}: {count} proper systems")

    return _run(f"main-theorem(max_n={max_n})", body)


def verify_tables() -> VerificationReport:
    """The transcribed twisted-dual table of S3 is the computed closure."""

    def body(report: VerificationReport) -> None:
        try:
            duals = catalog.s3_twisted_duals()
        except AssertionError as exc:
            report.instances = 1
            report.fail("s3_twisted_duals", "transcription = closure", str(exc))
            return
        report.instances = len(duals)
        if len(duals) != 28:
            report.fail("s3_twisted_duals", "28 members", str(len(duals)))
        computed = set(orbit(catalog.get("S3"), up_to_iso=True).members)
        if computed != set(duals):
            report.fail("orbit(S3)", "equal to transcription", "differs")

    return _run("tables", body)


def verify_identities() -> VerificationReport:
    """All named catalog identities hold with their stated relations."""

    def body(report: VerificationReport) -> None:
        checks = catalog.identity_suite()
        report.instances = len(checks)
        for c in checks:
            if not c.holds:
                report.fail(c.name, f"{c.relation}", f"lhs={c.lhs} rhs={c.rhs}")

    return _run("identities", body)


# expected interaction-table entries: rows are the six twisted duals of S
# with respect to e, columns contract/delete/penrose; values index into
# (contract, delete, penrose) of the untouched system.
_TABLE_ROWS = (
    ("", (0, 1, 2)),
    ("*", (1, 0, 2)),
    ("+", (2, 1, 0)),
    ("+*", (1, 2, 0)),
    ("*+", (2, 0, 1)),
    ("*+*", (0, 2, 1)),
)


def _check_interactions(system: SetSystem, rng: random.Random, report: VerificationReport) -> None:
    s = system
    full = s.full_mask
    a = rng.randrange(full + 1)
    b = rng.randrange(full + 1)
    name = str(s)
    if s.twist(a).twist(a) != s:
        report.fail(name, "(S*A)*A = S", f"A={a:b}")
    if s.loop_complement(a).loop_complement(a) != s:
        report.fail(name, "(S+A)+A = S", f"A={a:b}")
    if s.twist(a).twist(b) != s.twist(a ^ b):
        report.fail(name, "(S*A)*B = S*(A xor B)", f"A={a:b} B={b:b}")
    b_disj = b & ~a
    if s.loop_complement(a).twist(b_disj) != s.twist(b_disj).loop_complement(a):
        report.fail(name, "(S+A)*B = (S*B)+A for disjoint A,B", f"A={a:b} B={b_disj:b}")
    if s.loop_complement(a).twist(a).loop_complement(a) != s.twist(a).loop_complement(a).twist(a):
        report.fail(name, "((S+A)*A)+A = ((S*A)+A)*A", f"A={a:b}")

    # single-element reorderings and the interaction table
    e = rng.choice(s.labels)
    eb = s.element_bit(e)
    if s.loop_complement(eb).delete(e) != s.delete(e):
        report.fail(name, "S+a\\a = S\\a", f"a={e}")
    others = [x for x in s.labels if x != e]
    if others:
        f = rng.choice(others)
        lhs = s.loop_complement(eb).delete(f)
        rhs = s.delete(f)
        if lhs != rhs.loop_complement(rhs.element_bit(e)):
            report.fail(name, "S+a\\b = S\\b+a", f"a={e} b={f}")
        lhs = s.loop_complement(eb).contract(f)
        rhs = s.contract(f)
        if lhs != rhs.loop_complement(rhs.element_bit(e)):
            report.fail(name, "S+a/b = S/b+a", f"a={e} b={f}")
        # a minor at e commutes with twisting or complementing at f
        fb = s.element_bit(f)
        for opname, mfun in (("del", SetSystem.delete), ("con", SetSystem.contract),
                             ("pen", SetSystem.penrose_contract)):
            for dualname, dfun in (("*", SetSystem.twist), ("+", SetSystem.loop_complement)):
                lhs = mfun(dfun(s, fb), e)
                base = mfun(s, e)
                rhs = dfun(base, base.element_bit(f))
                if lhs != rhs:
                    report.fail(name, f"{opname}:{e} commutes with {dualname}{f}", "differs")

    reference = (s.contract(e), s.delete(e), s.penrose_contract(e))
    bases = {
        "": s,
        "*": s.twist(eb),
        "+": s.loop_complement(eb),
        "+*": s.loop_complement(eb).twist(eb),
        "*+": s.twist(eb).loop_complement(eb),
        "*+*": s.twist(eb).loop_complement(eb).twist(eb),
    }
    for row, expect in _TABLE_ROWS:
        base = bases[row]
        got = (base.contract(e), base.delete(e), base.penrose_contract(e))
        for col, (g, want) in zip("/\\‡", zip(got, expect)):
            if g != reference[want]:
                report.fail(name, f"table row {row or 'S'} col {col} at {e}", "differs")

    # order independence of a witnessed three-operation minor
    roles = [rng.randrange(4) for _ in s.labels]
    x = y = z = 0
    steps = []
    for i, role in enumerate(roles):
        if role == 1:
            x |= 1 << i
            steps.append((s.labels[i], Op.DELETE))
        elif role == 2:
            y |= 1 << i
            steps.append((s.labels[i], Op.CONTRACT))
        elif role == 3:
            z |= 1 << i
            steps.append((s.labels[i], Op.PENROSE))
    try:
        closed = s.three_minor(x, y, z)
    except UnrealizableMinorError:
        closed = None
    if closed is not None and steps:
        for _ in range(2):
            rng.shuffle(steps)
            if s.apply_sequence(steps) != closed:
                report.fail(name, f"order-independent minor x={x:b} y={y:b} z={z:b}",
                            f"order {steps} differs")


def verify_interactions(trials: int = 10000, seed: int = 7) -> VerificationReport:
    """Seeded random systems, up to six elements: involutions,
    commutations, reorderings, the interaction table, and witnessed
    order independence."""

    def body(report: VerificationReport) -> None:
        rng = random.Random(seed)
        cases = []
        for _ in range(trials):
            system = _random_proper_system(rng, 6)
            cases.append((system, random.Random(rng.getrandbits(48))))
        report.instances = trials

        def one(case):
            system, case_rng = case
            local = VerificationReport("case")
            _check_interactions(system, case_rng, local)
            return local.failures

        for failures in _map(one, cases):
            report.failures.extend(failures)

    return _run(f"interactions(trials={trials}, seed={seed})", body)


def verify_ppt(trials: int = 1000, max_n: int = 8, seed: int = 11) -> VerificationReport:
    """Pivoting a random symmetric matrix on every feasible set: the
    nonsingular principal submatrices shift by symmetric difference, the
    represented system twists accordingly, and pivoting is involutive."""

    def body(report: VerificationReport) -> None:
        rng = random.Random(seed)
        cases = [_random_symmetric_matrix(rng, rng.randint(1, max_n)) for _ in range(trials)]
        report.instances = trials

        def one(matrix: SymmetricBinaryMatrix):
            failures = []
            ind = matrix.feasible_masks()
            system = SetSystem(matrix.labels, ind)
            for x in ind:
                pivoted = matrix.ppt(x)
                ind2 = pivoted.feasible_masks()
                if set(ind2) != {m ^ x for m in ind}:
                    failures.append((str(matrix), f"tucker shift at X={x:b}", "differs"))
                if SetSystem(matrix.labels, ind2) != system.twist(x):
                    failures.append((str(matrix), f"D(A*X) = D(A)*X at X={x:b}", "differs"))
                if pivoted.ppt(x) != matrix:
                    failures.append((str(matrix), f"ppt involution at X={x:b}", "differs"))
            return failures

        for failures in _map(one, cases):
            report.failures.extend(failures)

    return _run(f"ppt(trials={trials}, max_n={max_n}, seed={seed})", body)


def verify_graph_bridge(trials: int = 1000, seed: int = 13) -> VerificationReport:
    """Loop toggles, local complementations, and edge pivots on random
    loopless graphs match their set-system counterparts."""

    def body(report: VerificationReport) -> None:
        rng = random.Random(seed)
        cases = []
        for _ in range(trials):
            n = rng.randint(1, 7)
            cases.append((_random_loopless_graph(rng, n), random.Random(rng.getrandbits(48))))
        report.instances = trials

        def one(case):
            g, case_rng = case
            failures = []
            name = str(g)
            d = g.delta_matroid()
            v = case_rng.choice(g.labels)
            if g.loop_toggle(v).delta_matroid() != d.loop_complement([v]):
                failures.append((name, f"D(G+{v}) = D(G)+{v}", "differs"))
            nmask = g.neighbor_mask(v)
            if g.local_complement(v).delta_matroid() != dual_pivot(d, [v]).loop_complement(nmask):
                failures.append((name, f"D(G^{v}) = (D(G) pivot {v}) + N({v})", "differs"))
            edges = g.edges()
            if edges:
                a, b = case_rng.choice(edges)
                if g.edge_pivot(a, b).delta_matroid() != d.twist([a, b]):
                    failures.append((name, f"edge pivot at {a}{b} twists", "differs"))
            if g.size >= 2:
                w = case_rng.choice([x for x in g.labels if x != v])
                if g.local_complement(v).delete_vertex(w) != g.delete_vertex(w).local_complement(v):
                    failures.append((name, f"(G^{v})\\{w} = (G\\{w})^{v}", "differs"))
            return failures

        for failures in _map(one, cases):
            report.failures.extend(failures)

    return _run(f"graph-bridge(trials={trials}, seed={seed})", body)


def verify_binary_corollary(max_n: int = 3) -> VerificationReport:
    """Binary recognition of delta-matroids agrees with obstruction form
    (no three-operation minor among the twisted duals of B1 or S3), and
    binary implies vf-safe."""

    def body(report: VerificationReport) -> None:
        from .gf2 import is_binary

        entries = orbit(catalog.get("B1"), up_to_iso=True).members + catalog.s3_twisted_duals()
        dm_count = 0
        for n in range(0, max_n + 1):
            for system in _all_proper_systems(n):
                report.instances += 1
                if not is_delta_matroid(system):
                    continue
                dm_count += 1
                binary = is_binary(system)
                obstruction_free = not has_catalog_3_minor(system, entries)
                if binary != obstruction_free:
                    report.fail(str(system), f"binary={binary}", f"obstruction-free={obstruction_free}")
                if binary and not is_vf_safe(system):
                    report.fail(str(system), "binary implies vf-safe", "not vf-safe")
        report.notes.append(f"delta-matroids examined: {dm_count}")

    return _run(f"binary-corollary(max_n={max_n})", body)


_EXPECTED_OBSTRUCTION_SIZES = {6: [6], 7: [6, 7], 8: [6, 7, 8]}


def verify_circle_obstructions(max_n: int = 6) -> VerificationReport:
    """Derive the minimal non-circle graphs up to max_n vertices and
    re-check each: not a circle graph, every one-vertex deletion of every
    class member is."""

    def body(report: VerificationReport) -> None:
        scanned = sum(len(connected_graph_keys(n)) for n in range(1, max_n + 1))
        report.instances = scanned
        report.notes.append(f"connected graphs scanned: {scanned}")
        found = find_circle_obstructions(max_n)
        sizes = sorted(g.size for g in found)
        expected = _EXPECTED_OBSTRUCTION_SIZES.get(max_n)
        if expected is not None and sizes != expected:
            report.fail("obstruction sizes", str(expected), str(sizes))
        for g in found:
            if is_circle_graph(g):
                report.fail(str(g), "not a circle graph", "circle")
            for member in lc_orbit_keys(g):
                rep = graph_from_key(member)
                for v in rep.labels:
                    if not is_circle_graph(rep.delete_vertex(v)):
                        report.fail(str(rep), f"deletion of {v} is a circle graph", "not circle")
        if max_n == 8:
            from .graphs import circle_obstructions

            cached = sorted(graph_canonical_key(g) for g in circle_obstructions())
            fresh = sorted(graph_canonical_key(g) for g in found)
            if cached != fresh:
                report.fail("obstruction cache", "matches fresh derivation", "differs")

    return _run(f"circle-obstructions(max_n={max_n})", body)


def verify_rg_consistency(max_n: int = 6) -> VerificationReport:
    """Circle recognition of a connected graph agrees with obstruction-based
    recognition of its delta-matroid."""

    def body(report: VerificationReport) -> None:
        keys = []
        for n in range(1, max_n + 1):
            batch = connected_graph_keys(n)
            keys.extend(batch)
            report.notes.append(f"n={n}: {len(batch)} connected graphs")
        report.instances = len(keys)

        def one(key):
            g = graph_from_key(key)
            circle = is_circle_graph(g)
            ribbon = is_ribbon_graphic(g.delta_matroid())
            if circle != ribbon:
                return [(str(g), f"circle={circle}", f"ribbon-graphic={ribbon}")]
            return []

        for failures in _map(one, keys):
            report.failures.extend(failures)

    return _run(f"rg-consistency(max_n={max_n})", body)


SUITES = {
    "main-theorem": verify_main_theorem,
    "tables": verify_tables,
    "identities": verify_identities,
    "interactions": verify_interactions,
    "ppt": verify_ppt,
    "graph-bridge": verify_graph_bridge,
    "binary-corollary": verify_binary_corollary,
    "circle-obstructions": verify_circle_obstructions,
    "rg-consistency": verify_rg_consistency,
}


def verify_all() -> list[VerificationReport]:
    """Every suite at its default guards."""
    return [suite() for suite in SUITES.values()]
