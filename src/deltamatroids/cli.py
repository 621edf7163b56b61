"""Command-line surface.

Exit codes: 0 success, 1 property failure, 2 usage error (including
unknown names, guard violations and files that cannot be read or
written).  A reader that closes stdout early is not an error.  Reports
are deterministic on stdout; timing goes to stderr.

main is the one error boundary: every ValueError (a UsageError, or a
guard or precondition refused by the library) is one `error:` line on
stderr and exit 2.  Stdout is empty then, as commands compute before they print
(check only after loading its input, with its later lines guarded).
Any other exception from a command is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import sys
from pathlib import Path

from . import catalog, formats
from .duality import is_vf_safe_via_obstruction, orbit
from .exchange import check_symmetric_exchange, is_even, is_normal
from .gf2 import is_basic_binary, is_binary
from .graphs import RIBBON_GUARD, circle_obstructions, find_circle_obstructions, is_ribbon_graphic
from .setsystem import Op, SetSystem
from . import verify as verify_mod


class UsageError(ValueError):
    """A refusal by the CLI itself; main reports it as it reports a
    ValueError from the library."""


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
        text = path.read_text()
    except OSError as exc:  # a directory, no permission, ...
        raise UsageError(f"cannot read {ref}: {exc.strerror or exc}") from None
    try:
        return formats.loads(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot parse {ref}: {exc}") from None


def _load_system(ref: str) -> SetSystem:
    """Set-system argument; matrices and graphs stand in through their
    delta-matroids."""
    obj = _load_payload(ref)
    return obj if isinstance(obj, SetSystem) else obj.delta_matroid()


_TOKEN_OPS = {op.value: op for op in Op}


def _parse_ops(tokens: list[str]) -> list[tuple[str, Op]]:
    """Each token names an Op by its value: *e +e, or del:e con:e pen:e."""
    out = []
    for tok in tokens:
        if len(tok) > 1 and tok[0] in "*+":
            op, e = _TOKEN_OPS[tok[0]], tok[1:]
        else:
            head, colon, e = tok.partition(":")
            op = _TOKEN_OPS.get(head) if colon else None
        if op is None:
            raise UsageError(f"bad operation token {tok!r} (use *e +e del:e con:e pen:e)")
        out.append((e, op))
    return out


def _cmd_apply(args) -> int:
    system = _load_system(args.input)
    result = system.apply_sequence(_parse_ops(args.ops))
    print(formats.dumps(result))
    return 0


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# Over this many feasible sets the delta-matroid line reads `skipped`: the
# projection check costs about |F| D for D distinct move masks, and D grows
# with |F| (0.3 s at 7 302 sets, 19 s and 0.8 GB at 109 556).
_CHECK_EXCHANGE_GUARD = 1024
_CHECK_BINARY_GUARD = 16      # 2^n principal determinants
_CHECK_VF_GUARD = 12          # 4^n minor assignments


def _cmd_check(args) -> int:
    system = _load_system(args.input)
    print(f"ground: {' '.join(system.labels) or '-'}")
    print(f"proper: {_yesno(system.is_proper)}")
    if not system.is_proper:
        return 0
    if len(system.feasible) > _CHECK_EXCHANGE_GUARD:
        exchange = "skipped (feasible sets over guard)"
    else:
        witness = check_symmetric_exchange(system)
        exchange = "yes" if witness is None else f"no ({witness.describe(system)})"
    print(f"delta-matroid: {exchange}")
    print(f"even: {_yesno(is_even(system))}")
    print(f"normal: {_yesno(is_normal(system))}")
    verdicts: dict[str, bool] = {}
    for name, guard, test in (
        ("basic-binary", _CHECK_BINARY_GUARD, is_basic_binary),
        ("binary", _CHECK_BINARY_GUARD, is_binary),
        # Binary delta-matroids are vf-safe, so only the others walk their
        # minors; the binary line is never skipped where this one runs.
        ("vf-safe", _CHECK_VF_GUARD, lambda s: verdicts["binary"] or is_vf_safe_via_obstruction(s)),
        ("ribbon-graphic", RIBBON_GUARD, is_ribbon_graphic),
    ):
        if system.size > guard:
            print(f"{name}: skipped (ground set over guard)")
        else:
            verdicts[name] = test(system)
            print(f"{name}: {_yesno(verdicts[name])}")
    return 0


def _cmd_orbit(args) -> int:
    system = _load_system(args.input)
    result = orbit(system, up_to_iso=not args.labeled)
    kind = "labeled" if args.labeled else "up to isomorphism"
    print(f"orbit size ({kind}): {result.size}")
    for member in result.members:
        print(formats.dumps(member))
    return 0


def _cmd_classify(args) -> int:
    system = _load_system(args.input)
    print(system.classify_element(args.element).value)
    return 0


def _cmd_obstructions(args) -> int:
    if args.what != "circle":
        raise UsageError(f"unknown obstruction family {args.what!r}")
    if args.max_n is not None and not args.rederive:
        raise UsageError("--max-n needs --rederive")
    max_n = 8 if args.max_n is None else args.max_n
    if max_n < 1:
        raise UsageError(f"--max-n must be at least 1, got {max_n}")
    graphs = tuple(find_circle_obstructions(max_n)) if args.rederive else circle_obstructions()
    if args.write:  # before printing, so a failed write leaves stdout empty
        try:
            formats.write_obstruction_cache(Path(args.write), graphs, max_n)
        except OSError as exc:
            raise UsageError(f"cannot write {args.write}: {exc.strerror or exc}") from None
        print(f"wrote {args.write}", file=sys.stderr)
    for g in graphs:
        print(formats.dumps(g))
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
    result = suite(**given)
    reports = result if isinstance(result, list) else [result]
    failed = False
    for report in reports:
        for line in report.lines():
            print(line)
        print(f"  [{report.suite}: {report.wall_time:.2f}s]", file=sys.stderr)
        failed = failed or not report.passed
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args makes a fresh
    namespace per call, so one parser serves every call of main."""
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
    p.add_argument("--max-n", type=int, default=None, help="with --rederive; default 8")
    p.add_argument("--write", default=None, help="write the cache file to a path")
    p.set_defaults(fn=_cmd_obstructions)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except ValueError as exc:  # a UsageError, or a guard or precondition of the library
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed early, which is not an error.  Point fd 1 at
        # devnull so the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
