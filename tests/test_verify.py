"""The verify suites' shared instance loop, their pinned stdout, their
crash policy and their guards."""

import hashlib
import inspect
import time

import pytest

from deltamatroids import catalog, verify
from deltamatroids.cli import main
from deltamatroids.graphs import LoopedSimpleGraph
from deltamatroids.setsystem import SetSystem

# stdout of `deltamatroids verify ARGV`, recorded before the suites shared
# one instance loop
PINNED_STDOUT = {
    "tables": "PASS tables: 28 instances, 0 failures\n",
    "identities": "PASS identities: 18 instances, 0 failures\n",
    "main-theorem": (
        "PASS main-theorem(max_n=3): 255 instances, 0 failures\n"
        "  note: n=3: 255 proper systems\n"
    ),
    "binary-corollary": (
        "PASS binary-corollary(max_n=3): 274 instances, 0 failures\n"
        "  note: delta-matroids examined: 174\n"
    ),
    "rg-consistency": (
        "PASS rg-consistency(max_n=6): 143 instances, 0 failures\n"
        "  note: n=1: 1 connected graphs\n"
        "  note: n=2: 1 connected graphs\n"
        "  note: n=3: 2 connected graphs\n"
        "  note: n=4: 6 connected graphs\n"
        "  note: n=5: 21 connected graphs\n"
        "  note: n=6: 112 connected graphs\n"
    ),
    "interactions --trials 200": "PASS interactions(trials=200, seed=7): 200 instances, 0 failures\n",
    "ppt --trials 20": "PASS ppt(trials=20, max_n=8, seed=11): 20 instances, 0 failures\n",
    "graph-bridge --trials 200": "PASS graph-bridge(trials=200, seed=13): 200 instances, 0 failures\n",
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_suite_stdout_is_pinned(argv, capsys):
    assert main(["verify", *argv.split()]) == 0
    assert capsys.readouterr().out == PINNED_STDOUT[argv]


def test_check_each_counts_collects_and_survives_a_crash():
    def check(case):
        if case == 2:
            raise RuntimeError("boom")
        return [(str(case), "even", "odd")] if case % 2 else []

    report = verify.VerificationReport("demo")
    report.check_each(check, iter(range(5)))
    assert report.instances == 5
    assert report.failures == [
        ("1", "even", "odd"),
        ("2", "no exception", "RuntimeError('boom')"),
        ("3", "even", "odd"),
    ]


def test_main_theorem_records_a_crash_as_that_systems_failure(monkeypatch, capsys):
    target = SetSystem(tuple("abc"), (0, 0b111))
    real = verify.is_vf_safe

    def crash_on_target(system):
        if system == target:
            raise RuntimeError("injected")
        return real(system)

    monkeypatch.setattr(verify, "is_vf_safe", crash_on_target)
    report = verify.verify_main_theorem(3)
    assert report.instances == 255
    assert report.failures == [(str(target), "no exception", "RuntimeError('injected')")]
    assert main(["verify", "main-theorem"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL main-theorem(max_n=3): 255 instances, 1 failures\n")
    assert f"  failure: {target} | expected no exception | got RuntimeError('injected')" in out


def test_a_crashing_interactions_case_prints_the_same_line_every_run(monkeypatch, capsys):
    def crash(self, e):
        raise RuntimeError("injected")

    monkeypatch.setattr(SetSystem, "penrose_contract", crash)
    outputs = []
    for _ in range(2):
        assert main(["verify", "interactions", "--trials", "3"]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("FAIL interactions(trials=3, seed=7): 3 instances, 3 failures\n")
    assert " at 0x" not in outputs[0]


# the report of verify_interactions(trials=20) with penrose_contract
# monkeypatched to delete, recorded while the interaction table spelled out
# its six bases and the role loop was an if/elif chain over the operations:
# 13 cases fail the 9 table cells that need penrose contraction, 4 of them
# also a witnessed order that penrose-contracts (twice each)
PENROSE_AS_DELETE_SHA256 = "df3d5f7f1282d3bbca122b0345b353fef42c72a2f9f179942dabd86d37733b9d"


def test_interactions_failure_lines_when_penrose_is_delete(monkeypatch):
    monkeypatch.setattr(SetSystem, "penrose_contract", SetSystem.delete)
    lines = verify.verify_interactions(trials=20).lines()
    assert lines[0] == "FAIL interactions(trials=20, seed=7): 20 instances, 125 failures"
    assert sum(" | expected table row " in line for line in lines) == 13 * 9
    assert sum(" | expected order-independent minor " in line for line in lines) == 4 * 2
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PENROSE_AS_DELETE_SHA256


@pytest.mark.parametrize("argv", [
    ["circle-obstructions", "--max-n", "9"],
    ["rg-consistency", "--max-n", "9"],
    ["main-theorem", "--max-n", "5"],
    ["binary-corollary", "--max-n", "5"],
    ["ppt", "--max-n", "11"],
])
def test_guard_violations_exit_2_before_any_work(argv, capsys):
    t0 = time.perf_counter()
    assert main(["verify", *argv]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "guard: over" in captured.err


@pytest.mark.parametrize("argv", [
    ["main-theorem", "--max-n", "2"],
    ["rg-consistency", "--max-n", "0"],
    ["binary-corollary", "--max-n", "-1"],
    ["ppt", "--trials", "-3"],
    ["interactions", "--trials", "0"],
    ["graph-bridge", "--trials", "0"],
    ["circle-obstructions", "--max-n", "0"],
    ["ppt", "--max-n", "0"],
])
def test_a_suite_that_checks_no_instance_is_a_usage_error(argv, capsys):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "checks no instance" in captured.err


@pytest.fixture
def fresh_s3_table():
    catalog.s3_twisted_duals.cache_clear()
    yield
    catalog.s3_twisted_duals.cache_clear()


def test_a_wrong_s3_transcription_fails_tables(monkeypatch, fresh_s3_table, capsys):
    tables = list(catalog._S3_TABLES)
    tables[1] = ("a", "ab", "abc")  # S3 * a with one family altered
    monkeypatch.setattr(catalog, "_S3_TABLES", tuple(tables))
    assert main(["verify", "tables"]) == 1
    assert capsys.readouterr().out.startswith("FAIL tables:")


def test_a_crash_while_building_an_identity_is_that_identitys_failure(monkeypatch, capsys):
    def crash(self, e):
        raise RuntimeError("injected")

    monkeypatch.setattr(SetSystem, "penrose_contract", crash)
    outputs = []
    for _ in range(2):
        assert main(["verify", "identities"]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert lines[0] == "FAIL identities: 18 instances, 11 failures"
    assert "  failure: T5 pen d = T1 | expected no exception | got RuntimeError('injected')" in lines
    assert all(" pen " in line for line in lines[1:])


def test_circle_obstruction_recheck_does_not_use_the_circle_cache(monkeypatch):
    def refuse(graph):
        raise AssertionError("the re-check must not consult is_circle_graph")

    monkeypatch.setattr(verify, "is_circle_graph", refuse)
    report = verify.verify_circle_obstructions(6)
    assert report.passed, report.lines()


def test_circle_obstruction_recheck_catches_a_non_minimal_graph(monkeypatch):
    rim = [f"r{i}" for i in range(5)]
    edges = [(rim[i], rim[(i + 1) % 5]) for i in range(5)] + [("hub", r) for r in rim]
    w5_pendant = LoopedSimpleGraph.from_edges(rim + ["hub", "p"], edges + [("r0", "p")])
    real = verify.find_circle_obstructions
    monkeypatch.setattr(verify, "find_circle_obstructions", lambda max_n: real(max_n) + [w5_pendant])
    report = verify.verify_circle_obstructions(6)
    assert not report.passed
    assert any(exp.startswith("deletion of ") and got == "not circle"
               for _, exp, got in report.failures)


def test_all_proper_systems_is_the_indicator_walk():
    """The byte-table generator yields the families of the per-bit
    expression, in the same order: equal for n <= 3, and for n = 4 the
    sha256 of every feasible tuple recorded from that expression."""
    for n in range(4):
        expected = [tuple(i for i in range(1 << n) if bits >> i & 1)
                    for bits in range(1, 1 << (1 << n))]
        assert [s.feasible for s in verify._all_proper_systems(n)] == expected
    systems = verify._all_proper_systems(4)
    assert inspect.isgenerator(systems)
    digest = hashlib.sha256()
    for s in systems:
        assert s.labels == tuple("abcd")
        digest.update(repr(s.feasible).encode() + b"\n")
    assert digest.hexdigest() == "df7bca10736844e9c079864ef5ab14702f9d604853c52e5a39c6424034994251"
