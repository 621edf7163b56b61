import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import deltamatroids
from deltamatroids import catalog, cli, formats, gf2, verify
from deltamatroids.cli import build_parser, main
from deltamatroids.duality import is_vf_safe_via_obstruction
from deltamatroids.gf2 import SymmetricBinaryMatrix
from deltamatroids.graphs import LoopedSimpleGraph, circle_obstructions, graph_canonical_key, graph_from_key
from deltamatroids.setsystem import SetSystem


def test_set_system_round_trip():
    for name in ("S3", "D3", "B5", "T7"):
        s = catalog.get(name)
        assert formats.loads(formats.dumps(s)) == s


def test_documented_payloads():
    s = formats.loads('{"ground":["a","b","c"],"feasible":[[],["a","b","c"]]}')
    assert s == SetSystem.from_sets("abc", [(), "abc"])
    g = formats.loads('{"vertices":["a","b","c"],"edges":[["a","b"],["b","c"]],"loops":[]}')
    assert g == LoopedSimpleGraph.from_edges("abc", [("a", "b"), ("b", "c")])
    m = formats.loads('{"labels":["1","2"],"rows":["01","10"]}')
    assert m == SymmetricBinaryMatrix.from_entries(["1", "2"], [[0, 1], [1, 0]])


def test_matrix_and_graph_round_trip():
    m = SymmetricBinaryMatrix.from_entries("xyz", [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert formats.loads(formats.dumps(m)) == m
    g = LoopedSimpleGraph.from_edges("pqr", [("p", "q")], loops="r")
    assert formats.loads(formats.dumps(g)) == g


def test_edge_text_format():
    g = formats.loads("a-b, b-c, d, c-c")
    assert g.has_edge("a", "b") and g.has_edge("b", "c")
    assert g.labels == ("a", "b", "c", "d")
    assert g.loops == g.element_bit("c")


_WRONG_TYPE_PAYLOADS = (
    '{"ground": ["a"], "feasible": [5]}',
    '{"ground": 5, "feasible": []}',
    '{"labels": ["1"], "rows": [5]}',
    '{"vertices": ["a","b"], "edges": [["a","b"]], "loops": 3}',
    # labels are strings, and a string is not read as a list of characters
    '{"ground": [1, 2], "feasible": [[1]]}',
    '{"vertices": [1, 2], "edges": [[1, 2]]}',
    '{"labels": [1], "rows": ["1"]}',
    '{"ground": "ab", "feasible": "ab"}',
    '{"vertices": "abc", "edges": ["ab"]}',
    '{"labels": "ab", "rows": ["01", "10"]}',
)
_BAD_MATRIX_PAYLOADS = (
    '{"labels": ["a"], "rows": ["3"]}',
    '{"labels": ["a","b"], "rows": ["1","0"]}',
    '{"labels": ["a"], "rows": [[1.7]]}',
    '{"labels": ["a"], "rows": [["1"]]}',
    # entries are the integers 0 and 1 or the characters 0 and 1, nothing equal to them
    '{"labels": ["a"], "rows": [[true]]}',
    '{"labels": ["a"], "rows": [[1.0]]}',
    '{"labels": ["a","b"], "rows": ["0\u0661","10"]}',
)
# refused with a message that names the unknown label, the bad entry or the missing field
_NAMED_PAYLOADS = {
    "unknown-element.json": ('{"ground": ["a"], "feasible": [["b"]]}', "'b'"),
    "unknown-edge-end.json": ('{"vertices": ["a","b"], "edges": [["a","c"]]}', "'c'"),
    "unknown-loop.json": ('{"vertices": ["a"], "loops": ["z"]}', "'z'"),
    "true-entry.json": ('{"labels": ["a"], "rows": [[true]]}', "True"),
    "missing-feasible.json": ('{"ground": ["a"]}', "'feasible'"),
    "missing-labels.json": ('{"rows": ["1"]}', "'labels'"),
    "deep.json": ('{"ground": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply"),
    "triple-edge.json": ('{"vertices": ["a","b","c"], "edges": [["a","b","c"]]}', "'a', 'b', 'c'"),
    "single-edge.json": ('{"vertices": ["a"], "edges": [["a"]]}', "pair of vertex names"),
}


def _seeded_matrix(n, seed):
    """A symmetric GF(2) matrix payload on v0 ... v(n-1), every entry on
    and above the diagonal a seeded coin flip."""
    rng = random.Random(seed)
    bits = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            bits[i][j] = bits[j][i] = rng.getrandbits(1)
    return json.dumps({"labels": [f"v{i}" for i in range(n)], "rows": ["".join(map(str, r)) for r in bits]})


# inputs at or over a guard: ORBIT_GUARD and MAX_CANON (up to iso), MAX_GROUND as a graph,
# gf2.MAX_FAMILY, and the exchange, binary and vf guards of check (path15 sits just under the
# exchange guard, looped16 exactly at the binary guard, binary12 at the vf guard)
_GUARD_INPUTS = {
    "eight.json": json.dumps({"ground": [f"x{i}" for i in range(8)], "feasible": [[]]}),
    "nine.json": json.dumps({"ground": [f"x{i}" for i in range(9)], "feasible": [[]]}),
    "isolated25.txt": " ".join(f"v{i}" for i in range(25)),
    "looped22.txt": ", ".join(f"v{i}-v{i}" for i in range(22)),  # 2^22 sets, over the family guard
    "path15.txt": ", ".join(f"v{i}-v{i + 1}" for i in range(14)),  # 987 feasible sets
    "path20.txt": ", ".join(f"v{i}-v{i + 1}" for i in range(19)),  # 10 946 feasible sets
    "looped16.txt": ", ".join(f"v{i}-v{i}" for i in range(16)),  # all 2^16 sets feasible
    "binary12.json": _seeded_matrix(12, 2),  # 1 727 sets, no S3 dual minor: the 4^12 walk takes 6-7 s
}
_CHECK_LINES = ("proper", "delta-matroid", "even", "normal", "basic-binary", "binary", "vf-safe", "ribbon-graphic")
_OVER_EXCHANGE = "skipped (feasible sets over guard)"
_OVER_GROUND = "skipped (ground set over guard)"


def _check_out(n, *verdicts):
    """The stdout of check on vertices v0 ... v(n-1), one verdict per line."""
    lines = [f"ground: {' '.join(f'v{i}' for i in range(n))}", *map("{}: {}".format, _CHECK_LINES, verdicts)]
    return "".join(line + "\n" for line in lines)


# not an edge list: JSON that is not an object, empty or dashed names
_BAD_EDGE_TEXTS = ("[1,2]", '"ab"', "a-", "-b", "a-b-c", "a-b, c--d")


def test_malformed_payloads():
    with pytest.raises(ValueError):
        formats.loads('{"nope": 1}')
    with pytest.raises(ValueError):
        formats.loads('{"ground":["a","a"],"feasible":[[]]}')
    for text in _WRONG_TYPE_PAYLOADS:
        with pytest.raises(TypeError):
            formats.loads(text)
    for text in _BAD_MATRIX_PAYLOADS + _BAD_EDGE_TEXTS:
        with pytest.raises(ValueError):
            formats.loads(text)
    for text, name in _NAMED_PAYLOADS.values():
        with pytest.raises(ValueError, match=name):
            formats.loads(text)


def test_cache_checksum_guard(tmp_path):
    g = LoopedSimpleGraph.from_edges("ab", [("a", "b")])
    path = tmp_path / "cache.json"
    formats.write_obstruction_cache(path, [g], 2)
    assert formats.load_obstruction_cache(path) == (g,)
    payload = json.loads(path.read_text())
    payload["graphs"][0]["edges"] = []
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        formats.load_obstruction_cache(path)


def test_shipped_cache_is_what_the_writer_produces(tmp_path):
    # with criterion 7 comparing its keys to a fresh derivation, this pins
    # `obstructions circle --rederive --max-n 8 --write` to the shipped file
    path = tmp_path / "cache.json"
    formats.write_obstruction_cache(path, circle_obstructions(), 8)
    shipped = Path(formats.__file__).parent / "_data" / "circle_obstructions.json"
    assert path.read_bytes() == shipped.read_bytes()
    for g in circle_obstructions():
        assert g == graph_from_key(graph_canonical_key(g))


# ----------------------------------------------------------------------
# command surface


def test_apply_catalog(capsys):
    assert main(["apply", "catalog:S3", "+e1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {
        "ground": ["e1", "e2", "e3"],
        "feasible": [[], ["e1"], ["e1", "e2", "e3"]],
    }


def test_apply_sequence_tokens(capsys):
    assert main(["apply", "catalog:T5", "+d", "con:d"]) == 0
    assert json.loads(capsys.readouterr().out) == formats.set_system_to_dict(catalog.get("T1"))


def test_apply_file_and_graph_input(tmp_path, capsys):
    p = tmp_path / "sys.json"
    p.write_text(formats.dumps(catalog.get("S3")))
    assert main(["apply", str(p), "*e1"]) == 0
    assert "e1" in capsys.readouterr().out
    gp = tmp_path / "graph.json"
    gp.write_text('{"vertices":["a","b"],"edges":[["a","b"]],"loops":[]}')
    assert main(["check", str(gp)]) == 0
    out = capsys.readouterr().out
    assert "binary: yes" in out and "ribbon-graphic: yes" in out


def test_check_b1(capsys):
    assert main(["check", "catalog:B1"]) == 0
    out = capsys.readouterr().out
    assert "delta-matroid: yes" in out
    assert "binary: no" in out
    assert "vf-safe: yes" in out
    assert "ribbon-graphic: no" in out


def test_check_s7(capsys):
    assert main(["check", "catalog:S7"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ground: e1 e2 e3 e4 e5 e6 e7",
        "proper: yes",
        "delta-matroid: no (X={} Y={e1,e2,e3,e4,e5,e6,e7} u=e1)",
        "even: no",
        "normal: yes",
        "basic-binary: no",
        "binary: no",
        "vf-safe: no",
        "ribbon-graphic: no",
    ]


def test_check_ribbon_at_its_guard(tmp_path, capsys):
    """Eight-element verdicts that come from the circle-obstruction
    classes, not from a B1 or S3 minor: both inputs are binary."""
    c8 = tmp_path / "c8.txt"
    c8.write_text("a-b, b-c, c-d, d-e, e-f, f-g, g-h, h-a, a-e")
    g8 = tmp_path / "g8.json"
    g8.write_text(formats.dumps(next(g for g in circle_obstructions() if g.size == 8)))
    for path, verdict in ((c8, "yes"), (g8, "no")):
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "binary: yes" in out and out[-1] == f"ribbon-graphic: {verdict}"


def test_check_reconstructs_the_basic_matrix_once(tmp_path, monkeypatch, capsys):
    """The basic-binary, binary and ribbon-graphic lines share one
    reconstruction of a normal input."""
    path = tmp_path / "p5.txt"
    path.write_text("a-b, b-c, c-d, d-e")
    calls = []
    real = gf2.reconstruct_basic_matrix
    monkeypatch.setattr(gf2, "reconstruct_basic_matrix", lambda system: calls.append(system) or real(system))
    gf2.is_basic_binary.cache_clear()
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-4:] == ["basic-binary: yes", "binary: yes", "vf-safe: yes", "ribbon-graphic: yes"]
    assert len(calls) == 1


def _cli_process(argv):
    """`python -m deltamatroids argv` in a fresh interpreter, on this
    checkout's library, with stdout block-buffered as in a shell pipe."""
    src = str(Path(deltamatroids.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "deltamatroids", *argv], text=True, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _run_cli(argv, seconds=120):
    """Exit code, stdout and stderr of `python -m deltamatroids argv`,
    which fails if the run takes longer than seconds."""
    proc = _cli_process(argv)
    try:
        out, err = proc.communicate(timeout=seconds)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise AssertionError(f"{argv} ran over {seconds} s") from None
    return proc.returncode, out, err


def test_python_m_runs_the_cli(capsys):
    code, out, err = _run_cli(["check", "catalog:B1"])
    assert code == 0, err
    assert main(["check", "catalog:B1"]) == 0
    assert out == capsys.readouterr().out


def test_one_parser_serves_many_calls(capsys):
    """main reuses one parser; each call answers as a fresh process does."""
    assert build_parser() is build_parser()
    for argv in (["check", "catalog:S3"], ["verify", "tables"], ["orbit", "catalog:S2", "--labeled"],
                 ["check", "catalog:NOPE"], ["check", "catalog:B1"], ["verify", "bogus-suite"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == _run_cli(argv)[:2], argv
    assert code == 2


# (argv, lines read before the reader closes or None to read all, exit code, stdout read,
#  text stderr names or None, seconds the run may take)
_NO_TRACEBACK_CASES = (
    (["check", "{tmp}"], None, 2, "", None, 120),  # a directory
    (["obstructions", "circle", "--write", "{tmp}/missing/x.json"], None, 2, "", None, 120),
    (["check", "catalog:B1"], 0, 0, "", None, 120),  # closed before the buffered output is flushed
    (["orbit", "catalog:S5", "--labeled"], 1, 0, "orbit size (labeled): 3888\n", None, 120),  # far over a pipe buffer
    *((["check", "{tmp}/" + file], None, 2, "", name, 120) for file, (_, name) in _NAMED_PAYLOADS.items()),
    # a refusal by the library, one per subcommand
    (["apply", "catalog:S3", "del:zz"], None, 2, "", "'zz'", 120),
    (["classify-element", "catalog:S3", "zz"], None, 2, "", "'zz'", 120),
    (["orbit", "{tmp}/nine.json"], None, 2, "", "orbit guard: ground sets over 8 elements", 120),
    # up to isomorphism the orbit guard is 7 elements; labeled it stays 8
    (["orbit", "{tmp}/eight.json"], None, 2, "", "orbit guard: ground sets over 7 elements", 120),
    (["orbit", "{tmp}/eight.json", "--labeled"], 1, 0, "orbit size (labeled): 6561\n", None, 120),
    (["orbit", "{tmp}/nine.json", "--labeled"], None, 2, "", "orbit guard: ground sets over 8 elements", 120),
    (["obstructions", "circle", "--rederive", "--max-n", "9"], None, 2, "", "obstruction search guard", 120),
    (["verify", "main-theorem", "--max-n", "5"], None, 2, "", "exhaustive suite guard", 120),
    (["check", "{tmp}/isolated25.txt"], None, 2, "", "error: ground set larger than 24 elements", 120),
    (["check", "{tmp}/looped22.txt"], None, 2, "", "error: family guard", 5),
    # every line of check is bounded: under and over the exchange guard, at the binary guard
    (["check", "{tmp}/path15.txt"], None, 0,
     _check_out(15, "yes", "yes", "yes", "yes", "yes", "yes", *[_OVER_GROUND] * 2), None, 5),
    (["check", "{tmp}/path20.txt"], None, 0,
     _check_out(20, "yes", _OVER_EXCHANGE, "yes", "yes", *[_OVER_GROUND] * 4), None, 5),
    (["check", "{tmp}/looped16.txt"], None, 0,
     _check_out(16, "yes", _OVER_EXCHANGE, "no", "yes", "yes", "yes", *[_OVER_GROUND] * 2), None, 5),
    # at the vf guard a binary input is answered from its binary line
    (["check", "{tmp}/binary12.json"], None, 0,
     _check_out(12, "yes", _OVER_EXCHANGE, "no", "yes", "yes", "yes", "yes", _OVER_GROUND), None, 5),
)


def test_cli_input_and_output_failures_are_not_tracebacks(tmp_path):
    for file, (text, _) in _NAMED_PAYLOADS.items():
        (tmp_path / file).write_text(text)
    for file, text in _GUARD_INPUTS.items():
        (tmp_path / file).write_text(text)
    for argv, lines, expected_code, expected_out, named, seconds in _NO_TRACEBACK_CASES:
        argv = [a.format(tmp=tmp_path) for a in argv]
        if lines is None:
            code, out, err = _run_cli(argv, seconds)
        else:
            proc = _cli_process(argv)
            out = "".join(proc.stdout.readline() for _ in range(lines))
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=seconds)
        assert (code, out) == (expected_code, expected_out), (argv, err)
        assert "Traceback" not in err, (argv, err)
        assert err.startswith("error: ") == (code == 2), (argv, err)
        assert named is None or named in err, (argv, err)
    assert not (tmp_path / "missing").exists()


def _check_queries_pool():
    """(name, JSON text) of every check-queries benchmark input, read from
    perfbench/queries.py without importing perfbench as a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "queries.py"
    spec = importlib.util.spec_from_file_location("perfbench_queries", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.pool()


def test_check_vf_safe_line_is_the_obstruction_walk(tmp_path, capsys):
    """check answers vf-safe from `binary: yes` without walking the minors;
    on every catalog entry up to the vf guard and every check-queries
    input, its line is the walk's verdict, and each check-queries output
    has the digest recorded in perfbench/query_digests.json."""
    digests_path = Path(__file__).resolve().parents[1] / "perfbench" / "query_digests.json"
    expected = json.loads(digests_path.read_text())["digests"]
    refs = {f"catalog:{name}": None for name in catalog.names() if catalog.get(name).size <= 12}
    for name, text in _check_queries_pool():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        refs[str(path)] = expected[name]
    assert len(refs) == 21 + 540 and len(expected) == 540
    seen = set()
    for ref, digest in refs.items():
        rc = main(["check", ref])
        assert rc == 0
        out = capsys.readouterr().out
        if digest is not None:
            assert hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest() == digest, ref
        lines = out.splitlines()
        system = cli._load_system(ref)
        if not system.is_proper:
            assert not any(line.startswith("vf-safe:") for line in lines), ref
            continue
        walk = is_vf_safe_via_obstruction(system)
        assert f"vf-safe: {'yes' if walk else 'no'}" in lines, ref
        seen.add(("binary: yes" in lines, walk))
    assert seen == {(True, True), (False, True), (False, False)}


def test_check_witness_line(capsys):
    assert main(["check", "catalog:S3"]) == 0
    out = capsys.readouterr().out
    assert "delta-matroid: no (X={} Y={e1,e2,e3} u=e1)" in out


def test_check_exchange_guard_counts_feasible_sets(monkeypatch, capsys):
    """The exchange line runs up to the guard and is skipped just over it;
    the other lines do not change."""
    lines = {}
    for guard in (5, 4):  # B1 has 5 feasible sets
        monkeypatch.setattr(cli, "_CHECK_EXCHANGE_GUARD", guard)
        assert main(["check", "catalog:B1"]) == 0
        lines[guard] = capsys.readouterr().out.splitlines()
    assert lines[5][2] == "delta-matroid: yes"
    assert lines[4][2] == "delta-matroid: skipped (feasible sets over guard)"
    assert lines[5][:2] + lines[5][3:] == lines[4][:2] + lines[4][3:]


def test_classify_element(capsys):
    assert main(["classify-element", "catalog:S3", "e1"]) == 0
    assert capsys.readouterr().out.strip() == "Ordinary"
    assert main(["classify-element", "catalog:S3", "zz"]) == 2


def test_orbit_command(capsys):
    assert main(["orbit", "catalog:S3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("orbit size (up to isomorphism): 28")
    assert out.count('"ground"') == 28
    assert main(["orbit", "catalog:S2", "--labeled"]) == 0
    out2 = capsys.readouterr().out
    assert out2.startswith("orbit size (labeled):")


# sha256 of the stdout of orbit in both modes: the printed members and
# their order must not depend on how the closure is computed
_ORBIT_DIGESTS = {
    ("catalog:S5",): "c3af4742bed9e62d6336e0140713051771c99e4d21349b6e6af6c9ddedec2864",
    ("catalog:S5", "--labeled"): "5c948e4da4f990314bc29bf029a7f72eae4f376b4601ad4ace48b859d389f7ec",
    ("catalog:T8",): "10f73044f0c131fb818d91b7cf713fc0859d5daf76308b42c20b1a863d520530",
    ("catalog:T8", "--labeled"): "ef3019be6f9daff715d87ecc812a40b97e8a4f020b5b19af25af13641d9275c1",
    ("catalog:B4",): "a37cb6147d6430f85b927c546f050204d8dd32f2f9e2014c89cc06256d52a3ae",
    ("catalog:B4", "--labeled"): "72a9948bc8f3a92f4ee42e1e2520436224e5effea3eddd18ce416067b7269100",
    ("catalog:S6",): "06a5645014149c2b4d670b92c3159d425d2bed738887288a22d8a99f38dea4e4",
}


def test_orbit_stdout_is_pinned(capsys):
    for argv, digest in _ORBIT_DIGESTS.items():
        assert main(["orbit", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


def test_usage_errors(tmp_path, capsys):
    assert main(["apply", "catalog:NOPE", "+a"]) == 2
    assert main(["apply", "catalog:S3", "frob:e1"]) == 2
    assert main(["apply", "/no/such/file.json", "+a"]) == 2
    p = tmp_path / "bad.json"
    named = tuple(text for text, _ in _NAMED_PAYLOADS.values())
    for text in _WRONG_TYPE_PAYLOADS + _BAD_MATRIX_PAYLOADS + _BAD_EDGE_TEXTS + named:
        p.write_text(text)
        assert main(["check", str(p)]) == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus-suite"])
    assert exc.value.code == 2


def test_repeated_labels_are_named_by_their_whole(tmp_path, capsys):
    for text, whole in (('{"labels":["1","1"],"rows":["00","00"]}', "matrix"),
                        ('{"vertices":["a","a"],"edges":[],"loops":[]}', "graph")):
        p = tmp_path / "repeated.json"
        p.write_text(text)
        assert main(["check", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot parse {p}: {whole} labels must be distinct\n"


def test_verify_identities_cli(capsys):
    assert main(["verify", "identities"]) == 0
    out = capsys.readouterr().out
    assert "PASS identities: 18 instances, 0 failures" in out


def test_verify_deterministic_output(capsys):
    assert main(["verify", "interactions", "--trials", "40", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "interactions", "--trials", "40", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_verify_without_seed_uses_suite_default(capsys):
    assert main(["verify", "ppt", "--trials", "5"]) == 0
    assert "seed=11" in capsys.readouterr().out


def test_verify_rejects_options_the_suite_does_not_take(capsys):
    assert main(["verify", "identities", "--seed", "3", "--trials", "5", "--max-n", "9"]) == 2
    err = capsys.readouterr().err
    assert "error: suite 'identities' does not take --max-n, --trials, --seed" in err
    for argv in (["main-theorem", "--seed", "2"], ["binary-corollary", "--seed", "1"],
                 ["circle-obstructions", "--trials", "4"], ["all", "--max-n", "3"]):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"does not take {argv[1]}" in captured.err


def test_verify_all_runs_each_registered_suite_once_in_order(monkeypatch):
    calls = []

    def fake(name):
        def suite(*args, **kwargs):
            calls.append((name, args, kwargs))
            return name
        return suite

    names = list(verify.SUITES)
    assert names == ["main-theorem", "tables", "identities", "interactions", "ppt",
                     "graph-bridge", "binary-corollary", "circle-obstructions", "rg-consistency"]
    monkeypatch.setattr(verify, "SUITES", {name: fake(name) for name in names})
    assert verify.verify_all() == names
    assert calls == [(name, (), {}) for name in names]


def test_verify_has_no_jobs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ppt", "--jobs", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 3" in capsys.readouterr().err


def test_check_skips_over_guard_fields(tmp_path, capsys):
    """13 elements are over the vf-safe and ribbon guards only; 17 are
    over the 2^n guard of basic-binary and binary too."""
    skipped = "skipped (ground set over guard)"
    for n, binary in ((13, "yes"), (17, skipped)):
        labels = [f"x{i}" for i in range(n)]
        p = tmp_path / f"big{n}.json"
        p.write_text(json.dumps({"ground": labels, "feasible": [[]]}))
        assert main(["check", str(p)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"ground: {' '.join(labels)}",
            "proper: yes",
            "delta-matroid: yes",
            "even: yes",
            "normal: yes",
            f"basic-binary: {binary}",
            f"binary: {binary}",
            f"vf-safe: {skipped}",
            f"ribbon-graphic: {skipped}",
        ]


def test_orbit_guard_exit_code(tmp_path, capsys):
    labels = [f"x{i}" for i in range(9)]
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"ground": labels, "feasible": [[]]}))
    assert main(["orbit", str(p)]) == 2
    assert main(["orbit", str(p), "--labeled"]) == 2
    assert capsys.readouterr().out == ""


def test_obstructions_command(capsys):
    assert main(["obstructions", "circle"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 3
    assert all('"vertices"' in l for l in lines)
    assert main(["obstructions", "nonsense"]) == 2
    assert main(["obstructions", "circle", "--max-n", "3"]) == 2
    assert main(["obstructions", "circle", "--rederive", "--max-n", "0"]) == 2
    assert capsys.readouterr().out == ""
