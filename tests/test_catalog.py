import ast
from pathlib import Path

import pytest

from deltamatroids import catalog
from deltamatroids.duality import is_vf_safe
from deltamatroids.exchange import is_delta_matroid
from deltamatroids.setsystem import UnrealizableMinorError, canonical_key

from _helpers import sysf


def test_exact_families():
    assert catalog.get("D3") == sysf("abc", "", "a", "b", "c", "ab", "ac", "bc")
    assert catalog.get("S3") == sysf(("e1", "e2", "e3"), "", ("e1", "e2", "e3"))
    assert catalog.get("T2") == sysf("abc", "", "ab", "ac", "abc")
    assert catalog.get("T8") == sysf("abcd", "", "a", "ab", "ac", "ad", "abcd")
    assert catalog.get("B1") == sysf("abc", "", "ab", "ac", "bc", "abc")
    assert catalog.get("B5") == sysf("abcd", "", "ab", "ad", "bc", "cd", "abcd")
    assert catalog.get("B2") == catalog.get("D3")


def test_unknown_name():
    with pytest.raises(KeyError):
        catalog.get("Q7")


def test_names_cover_catalog():
    expected = {"D3"} | {f"S{i}" for i in range(2, 9)} | {f"T{i}" for i in range(1, 9)} \
        | {f"B{i}" for i in range(1, 6)}
    assert set(catalog.names()) == expected


def test_s3_twisted_duals():
    duals = catalog.s3_twisted_duals()
    assert len(duals) == 28
    keys = {canonical_key(s) for s in duals}
    assert len(keys) == 28
    s3 = sysf("abc", "", "abc")
    assert canonical_key(s3.loop_complement(["a"])) in keys
    assert canonical_key(s3.twist(["a"])) in keys


def test_identity_suite_all_hold():
    checks = catalog.identity_suite()
    assert len(checks) == 18
    for c in checks:
        assert c.holds, c.name


def all_proper_minors(s):
    """Every minor of s other than s itself (over all disjoint pairs)."""
    n = s.size
    for x_bits in range(1 << n):
        for y_bits in range(1 << n):
            if x_bits & y_bits or not (x_bits | y_bits):
                continue
            try:
                yield s.three_minor(x_bits, y_bits, 0)
            except UnrealizableMinorError:
                continue


def test_excluded_minor_minimality():
    # each catalog obstruction fails the exchange axiom while every proper
    # minor of it satisfies the axiom
    names = [f"S{i}" for i in range(3, 9)] + [f"T{i}" for i in range(1, 9)]
    for name in names:
        s = catalog.get(name)
        assert not is_delta_matroid(s), name
        for m in all_proper_minors(s):
            assert is_delta_matroid(m), (name, str(m))


def test_b_family_are_delta_matroids():
    for i in range(1, 6):
        assert is_delta_matroid(catalog.get(f"B{i}")), i


def test_b2_not_vf_safe():
    assert not is_vf_safe(catalog.get("B2"))


def _package_imports(path: Path) -> set[str]:
    """The deltamatroids modules a source file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["deltamatroids" if node.level else "", node.module]))
            # `from . import x` and `from deltamatroids import x` import modules by name
            names = [f"{module}.{a.name}" for a in node.names] if module == "deltamatroids" else [module]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("deltamatroids."))
    return found


def test_catalog_imports_only_setsystem():
    """The catalog is plain data over SetSystem: the S3 table is checked
    by `verify tables`, so catalog needs nothing from duality."""
    source = Path(__file__).resolve().parents[1] / "src" / "deltamatroids" / "catalog.py"
    assert _package_imports(source) == {"setsystem"}


def test_every_source_parses_under_the_python_3_10_grammar():
    """pyproject.toml declares requires-python >= 3.10, so no source under
    src/, tests/ or perfbench/ may use newer syntax."""
    root = Path(__file__).resolve().parents[1]
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
