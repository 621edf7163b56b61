"""Verification suites: exhaustive and seeded-random reproduction of the
library's defining identities and classifications at desk scale.

Each suite returns a VerificationReport whose printable content depends
only on the inputs and seeds; wall time is carried separately so reports
stay byte-identical across runs.  Every suite runs in one process, in a
serial loop: the work is pure Python, so threads would only contend for
the interpreter lock.  The suites that walk a list of cases run it
through VerificationReport.check_each, which counts each case and records
an exception raised on one case as that case's failure.  A seeded case
carries its own seed as an int, so a crash line is the same in every run.
A bound a suite refuses (EXHAUSTIVE_GUARD, or a library guard) raises
ValueError before any case is built.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, TypeVar

from . import catalog
from .duality import dual_pivot, find_catalog_3_minor, is_vf_safe, is_vf_safe_via_obstruction, orbit
from .exchange import is_delta_matroid
from .gf2 import SymmetricBinaryMatrix, is_binary
from .graphs import (
    RIBBON_GUARD,
    LoopedSimpleGraph,
    circle_obstructions,
    circle_word,
    connected_graph_keys,
    find_circle_obstructions,
    graph_canonical_key,
    graph_from_key,
    is_circle_graph,
    is_ribbon_graphic,
    lc_orbit_keys,
)
from .setsystem import SetSystem, Op, UnrealizableMinorError

EXHAUSTIVE_GUARD = 4  # main-theorem and binary-corollary walk 2^(2^n) - 1 systems per n

Failure = tuple[str, str, str]  # (instance, expected, got)
Case = TypeVar("Case")


@dataclass
class VerificationReport:
    suite: str
    instances: int = 0
    failures: list[Failure] = field(default_factory=list)
    wall_time: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, instance: str, expected: str, got: str) -> None:
        self.failures.append((instance, expected, got))

    def check_each(self, check: Callable[[Case], list[Failure]], cases: Iterable[Case]) -> None:
        """Count each case and add the failures check(case) returns; an
        exception raised on one case is recorded as that case's failure
        and the loop goes on."""
        for case in cases:
            self.instances += 1
            try:
                self.failures.extend(check(case))
            except Exception as exc:  # a crash is a failure, not an abort
                self.fail(str(case), "no exception", repr(exc))

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


def _refuse_over(max_n: int, guard: int, what: str) -> None:
    if max_n > guard:
        raise ValueError(f"{what} guard: over {guard} elements")


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


def _check_vf_forms(system: SetSystem) -> list[Failure]:
    via_orbit = is_vf_safe(system)
    via_obstruction = is_vf_safe_via_obstruction(system)
    if via_orbit != via_obstruction:
        return [(str(system), f"orbit={via_orbit}", f"obstruction={via_obstruction}")]
    return []


def verify_main_theorem(max_n: int = 3) -> VerificationReport:
    """Orbit-based vf-safety agrees with the 28-obstruction form on every
    proper system with 3 (and optionally 4) labeled elements."""
    _refuse_over(max_n, EXHAUSTIVE_GUARD, "exhaustive suite")

    def body(report: VerificationReport) -> None:
        for n in range(3, max_n + 1):
            before = report.instances
            report.check_each(_check_vf_forms, _all_proper_systems(n))
            report.notes.append(f"n={n}: {report.instances - before} proper systems")

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


def _check_identity(c: catalog.IdentityCheck) -> list[Failure]:
    return [] if c.holds else [(c.name, c.relation, f"lhs={c.lhs} rhs={c.rhs}")]


def verify_identities() -> VerificationReport:
    """All named catalog identities hold with their stated relations."""
    return _run("identities", lambda report: report.check_each(_check_identity, catalog.identity_suite()))


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


def _check_interactions(case: tuple[SetSystem, int]) -> list[Failure]:
    s, seed = case
    rng = random.Random(seed)
    failures: list[Failure] = []
    full = s.full_mask
    a = rng.randrange(full + 1)
    b = rng.randrange(full + 1)
    name = str(s)
    if s.twist(a).twist(a) != s:
        failures.append((name, "(S*A)*A = S", f"A={a:b}"))
    if s.loop_complement(a).loop_complement(a) != s:
        failures.append((name, "(S+A)+A = S", f"A={a:b}"))
    if s.twist(a).twist(b) != s.twist(a ^ b):
        failures.append((name, "(S*A)*B = S*(A xor B)", f"A={a:b} B={b:b}"))
    b_disj = b & ~a
    if s.loop_complement(a).twist(b_disj) != s.twist(b_disj).loop_complement(a):
        failures.append((name, "(S+A)*B = (S*B)+A for disjoint A,B", f"A={a:b} B={b_disj:b}"))
    if s.loop_complement(a).twist(a).loop_complement(a) != s.twist(a).loop_complement(a).twist(a):
        failures.append((name, "((S+A)*A)+A = ((S*A)+A)*A", f"A={a:b}"))

    # single-element reorderings and the interaction table
    e = rng.choice(s.labels)
    eb = s.element_bit(e)
    if s.loop_complement(eb).delete(e) != s.delete(e):
        failures.append((name, "S+a\\a = S\\a", f"a={e}"))
    others = [x for x in s.labels if x != e]
    if others:
        f = rng.choice(others)
        lhs = s.loop_complement(eb).delete(f)
        rhs = s.delete(f)
        if lhs != rhs.loop_complement(rhs.element_bit(e)):
            failures.append((name, "S+a\\b = S\\b+a", f"a={e} b={f}"))
        lhs = s.loop_complement(eb).contract(f)
        rhs = s.contract(f)
        if lhs != rhs.loop_complement(rhs.element_bit(e)):
            failures.append((name, "S+a/b = S/b+a", f"a={e} b={f}"))
        # a minor at e commutes with twisting or complementing at f
        fb = s.element_bit(f)
        for opname, mfun in (("del", SetSystem.delete), ("con", SetSystem.contract),
                             ("pen", SetSystem.penrose_contract)):
            for dualname, dfun in (("*", SetSystem.twist), ("+", SetSystem.loop_complement)):
                lhs = mfun(dfun(s, fb), e)
                base = mfun(s, e)
                rhs = dfun(base, base.element_bit(f))
                if lhs != rhs:
                    failures.append((name, f"{opname}:{e} commutes with {dualname}{f}", "differs"))

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
                failures.append((name, f"table row {row or 'S'} col {col} at {e}", "differs"))

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
                failures.append((name, f"order-independent minor x={x:b} y={y:b} z={z:b}",
                                 f"order {steps} differs"))
    return failures


def verify_interactions(trials: int = 10000, seed: int = 7) -> VerificationReport:
    """Seeded random systems, up to six elements: involutions,
    commutations, reorderings, the interaction table, and witnessed
    order independence."""
    rng = random.Random(seed)
    cases = ((_random_proper_system(rng, 6), rng.getrandbits(48)) for _ in range(trials))
    return _run(f"interactions(trials={trials}, seed={seed})",
                lambda report: report.check_each(_check_interactions, cases))


def _check_ppt(matrix: SymmetricBinaryMatrix) -> list[Failure]:
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


def verify_ppt(trials: int = 1000, max_n: int = 8, seed: int = 11) -> VerificationReport:
    """Pivoting a random symmetric matrix on every feasible set: the
    nonsingular principal submatrices shift by symmetric difference, the
    represented system twists accordingly, and pivoting is involutive."""
    rng = random.Random(seed)
    cases = (_random_symmetric_matrix(rng, rng.randint(1, max_n)) for _ in range(trials))
    return _run(f"ppt(trials={trials}, max_n={max_n}, seed={seed})",
                lambda report: report.check_each(_check_ppt, cases))


def _check_graph_bridge(case: tuple[LoopedSimpleGraph, int]) -> list[Failure]:
    g, seed = case
    rng = random.Random(seed)
    failures = []
    name = str(g)
    d = g.delta_matroid()
    v = rng.choice(g.labels)
    if g.loop_toggle(v).delta_matroid() != d.loop_complement([v]):
        failures.append((name, f"D(G+{v}) = D(G)+{v}", "differs"))
    nmask = g.neighbor_mask(v)
    if g.local_complement(v).delta_matroid() != dual_pivot(d, [v]).loop_complement(nmask):
        failures.append((name, f"D(G^{v}) = (D(G) pivot {v}) + N({v})", "differs"))
    edges = g.edges()
    if edges:
        a, b = rng.choice(edges)
        if g.edge_pivot(a, b).delta_matroid() != d.twist([a, b]):
            failures.append((name, f"edge pivot at {a}{b} twists", "differs"))
    if g.size >= 2:
        w = rng.choice([x for x in g.labels if x != v])
        if g.local_complement(v).delete_vertex(w) != g.delete_vertex(w).local_complement(v):
            failures.append((name, f"(G^{v})\\{w} = (G\\{w})^{v}", "differs"))
    return failures


def verify_graph_bridge(trials: int = 1000, seed: int = 13) -> VerificationReport:
    """Loop toggles, local complementations, and edge pivots on random
    loopless graphs match their set-system counterparts."""
    rng = random.Random(seed)
    cases = ((_random_loopless_graph(rng, rng.randint(1, 7)), rng.getrandbits(48)) for _ in range(trials))
    return _run(f"graph-bridge(trials={trials}, seed={seed})",
                lambda report: report.check_each(_check_graph_bridge, cases))


def verify_binary_corollary(max_n: int = 3) -> VerificationReport:
    """Binary recognition of delta-matroids agrees with obstruction form
    (no three-operation minor among the twisted duals of B1 or S3), and
    binary implies vf-safe."""
    _refuse_over(max_n, EXHAUSTIVE_GUARD, "exhaustive suite")

    def body(report: VerificationReport) -> None:
        entries = orbit(catalog.get("B1"), up_to_iso=True).members + catalog.s3_twisted_duals()
        dm_count = 0

        def check(system: SetSystem) -> list[Failure]:
            nonlocal dm_count
            if not is_delta_matroid(system):
                return []
            dm_count += 1
            failures = []
            binary = is_binary(system)
            obstruction_free = find_catalog_3_minor(system, entries) is None
            if binary != obstruction_free:
                failures.append((str(system), f"binary={binary}", f"obstruction-free={obstruction_free}"))
            if binary and not is_vf_safe(system):
                failures.append((str(system), "binary implies vf-safe", "not vf-safe"))
            return failures

        report.check_each(check, chain.from_iterable(_all_proper_systems(n) for n in range(max_n + 1)))
        report.notes.append(f"delta-matroids examined: {dm_count}")

    return _run(f"binary-corollary(max_n={max_n})", body)


_EXPECTED_OBSTRUCTION_SIZES = {6: [6], 7: [6, 7], 8: [6, 7, 8]}


def verify_circle_obstructions(max_n: int = 6) -> VerificationReport:
    """Derive the minimal non-circle graphs up to max_n vertices and
    re-check each with the uncached chord-word search on labeled graphs:
    not a circle graph, every one-vertex deletion of every class member
    is."""

    def body(report: VerificationReport) -> None:
        found = find_circle_obstructions(max_n)
        scanned = sum(len(connected_graph_keys(n)) for n in range(1, max_n + 1))
        report.instances = scanned
        report.notes.append(f"connected graphs scanned: {scanned}")
        sizes = sorted(g.size for g in found)
        expected = _EXPECTED_OBSTRUCTION_SIZES.get(max_n)
        if expected is not None and sizes != expected:
            report.fail("obstruction sizes", str(expected), str(sizes))
        for g in found:
            if circle_word(g) is not None:
                report.fail(str(g), "not a circle graph", "circle")
            for member in lc_orbit_keys(g):
                rep = graph_from_key(member)
                for v in rep.labels:
                    if circle_word(rep.delete_vertex(v)) is None:
                        report.fail(str(rep), f"deletion of {v} is a circle graph", "not circle")
        if max_n == 8:
            cached = sorted(graph_canonical_key(g) for g in circle_obstructions())
            fresh = sorted(graph_canonical_key(g) for g in found)
            if cached != fresh:
                report.fail("obstruction cache", "matches fresh derivation", "differs")

    return _run(f"circle-obstructions(max_n={max_n})", body)


def _check_rg(key) -> list[Failure]:
    g = graph_from_key(key)
    circle = is_circle_graph(g)
    ribbon = is_ribbon_graphic(g.delta_matroid())
    if circle != ribbon:
        return [(str(g), f"circle={circle}", f"ribbon-graphic={ribbon}")]
    return []


def verify_rg_consistency(max_n: int = 6) -> VerificationReport:
    """Circle recognition of a connected graph agrees with obstruction-based
    recognition of its delta-matroid."""
    _refuse_over(max_n, RIBBON_GUARD, "ribbon recognition")

    def body(report: VerificationReport) -> None:
        keys = []
        for n in range(1, max_n + 1):
            batch = connected_graph_keys(n)
            keys.extend(batch)
            report.notes.append(f"n={n}: {len(batch)} connected graphs")
        report.check_each(_check_rg, keys)

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
