"""Command-line surface.

Exit codes: 0 success, 1 property failure, 2 usage error (including
unknown names and guard violations).  Reports are deterministic on
stdout; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from . import catalog, formats
from .duality import is_vf_safe_via_obstruction, orbit
from .exchange import check_symmetric_exchange, is_even, is_normal
from .gf2 import SymmetricBinaryMatrix, is_basic_binary, is_binary
from .graphs import LoopedSimpleGraph, RIBBON_GUARD, circle_obstructions, find_circle_obstructions, is_ribbon_graphic
from .setsystem import Op, SetSystem
from . import verify as verify_mod


class UsageError(Exception):
    pass


def _load_payload(ref: str):
    if ref.startswith("catalog:"):
        name = ref.split(":", 1)[1]
        try:
            return catalog.get(name)
        except KeyError as exc:
            raise UsageError(str(exc)) from None
    path = Path(ref)
    if not path.exists():
        raise UsageError(f"no such file: {ref}")
    try:
        return formats.loads(path.read_text())
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse {ref}: {exc}") from None


def _load_system(ref: str) -> SetSystem:
    """Set-system argument; matrices and graphs stand in through their
    delta-matroids."""
    obj = _load_payload(ref)
    if isinstance(obj, SetSystem):
        return obj
    if isinstance(obj, (SymmetricBinaryMatrix, LoopedSimpleGraph)):
        return obj.delta_matroid()
    raise UsageError(f"not a set system: {ref}")


def _parse_ops(tokens: list[str]) -> list[tuple[str, Op]]:
    out = []
    for tok in tokens:
        if tok.startswith("*") and len(tok) > 1:
            out.append((tok[1:], Op.TWIST))
        elif tok.startswith("+") and len(tok) > 1:
            out.append((tok[1:], Op.LOOP_COMPLEMENT))
        elif tok.startswith("del:"):
            out.append((tok[4:], Op.DELETE))
        elif tok.startswith("con:"):
            out.append((tok[4:], Op.CONTRACT))
        elif tok.startswith("pen:"):
            out.append((tok[4:], Op.PENROSE))
        else:
            raise UsageError(f"bad operation token {tok!r} (use *e +e del:e con:e pen:e)")
    return out


def _cmd_apply(args) -> int:
    system = _load_system(args.input)
    try:
        result = system.apply_sequence(_parse_ops(args.ops))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(formats.dumps(result))
    return 0


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


_CHECK_BINARY_GUARD = 16  # 2^n principal determinants
_CHECK_VF_GUARD = 12      # 4^n minor assignments


def _cmd_check(args) -> int:
    system = _load_system(args.input)
    print(f"ground: {' '.join(system.labels) or '-'}")
    print(f"proper: {_yesno(system.is_proper)}")
    if not system.is_proper:
        return 0
    witness = check_symmetric_exchange(system)
    if witness is None:
        print("delta-matroid: yes")
    else:
        print(f"delta-matroid: no ({witness.describe(system)})")
    print(f"even: {_yesno(is_even(system))}")
    print(f"normal: {_yesno(is_normal(system))}")
    skipped = "skipped (ground set over guard)"
    if system.size <= _CHECK_BINARY_GUARD:
        print(f"basic-binary: {_yesno(is_basic_binary(system))}")
        print(f"binary: {_yesno(is_binary(system))}")
    else:
        print(f"basic-binary: {skipped}")
        print(f"binary: {skipped}")
    if system.size <= _CHECK_VF_GUARD:
        print(f"vf-safe: {_yesno(is_vf_safe_via_obstruction(system))}")
    else:
        print(f"vf-safe: {skipped}")
    if system.size <= RIBBON_GUARD:
        print(f"ribbon-graphic: {_yesno(is_ribbon_graphic(system))}")
    else:
        print(f"ribbon-graphic: {skipped}")
    return 0


def _cmd_orbit(args) -> int:
    system = _load_system(args.input)
    try:
        result = orbit(system, up_to_iso=not args.labeled)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    kind = "labeled" if args.labeled else "up to isomorphism"
    print(f"orbit size ({kind}): {result.size}")
    for member in result.members:
        print(formats.dumps(member))
    return 0


def _cmd_classify(args) -> int:
    system = _load_system(args.input)
    try:
        print(system.classify_element(args.element).value)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return 0


def _cmd_obstructions(args) -> int:
    if args.what != "circle":
        raise UsageError(f"unknown obstruction family {args.what!r}")
    if args.rederive:
        try:
            graphs = tuple(find_circle_obstructions(args.max_n))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        graphs = circle_obstructions()
    for g in graphs:
        print(formats.dumps(g))
    if args.write:
        formats.write_obstruction_cache(Path(args.write), graphs, args.max_n if args.rederive else 8)
        print(f"wrote {args.write}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    """Run a suite with the options given; an option the suite does not
    take is a usage error, and one not given keeps the suite's default."""
    suite = verify_mod.verify_all if args.suite == "all" else verify_mod.SUITES[args.suite]
    takes = inspect.signature(suite).parameters
    given = {opt: getattr(args, opt) for opt in ("max_n", "trials", "seed")
             if getattr(args, opt) is not None}
    unused = [f"--{opt.replace('_', '-')}" for opt in given if opt not in takes]
    if unused:
        raise UsageError(f"suite {args.suite!r} does not take {', '.join(unused)}")
    try:
        result = suite(**given)
    except ValueError as exc:  # a guard, raised before any instance is checked
        raise UsageError(str(exc)) from None
    reports = result if isinstance(result, list) else [result]
    failed = False
    for report in reports:
        for line in report.lines():
            print(line)
        print(f"  [{report.suite}: {report.wall_time:.2f}s]", file=sys.stderr)
        failed = failed or not report.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltamatroids",
        description="Set-system duality algebra, classification, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply a sequence of operations")
    p.add_argument("input", help="set-system JSON file or catalog:NAME")
    p.add_argument("ops", nargs="+", help="tokens: *e +e del:e con:e pen:e")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("check", help="classify a system")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("orbit", help="twisted-duality closure")
    p.add_argument("input")
    p.add_argument("--labeled", action="store_true", help="list labeled members")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("classify-element", help="loop / coloop / pseudo-loop / ordinary")
    p.add_argument("input")
    p.add_argument("element")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(verify_mod.SUITES) + ["all"])
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="default: the suite's own seed")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("obstructions", help="print derived obstruction graphs")
    p.add_argument("what", help="obstruction family (circle)")
    p.add_argument("--rederive", action="store_true", help="search instead of using the cache")
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--write", default=None, help="write the cache file to a path")
    p.set_defaults(fn=_cmd_obstructions)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
