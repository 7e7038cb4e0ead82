"""Command-line front end.

Subcommands: validate (check a document), rep (dump the linear view),
eval (measure queries), equiv (equivalence checking).  Exit codes:
0 success/equivalent, 1 not equivalent, 2 input or validation error,
3 inconclusive, 4 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .equivalence import (Equivalent, Inconclusive, InvariantError,
                          NotEquivalent, hk, hkc_finite, hkc_inf, naive)
from .linear import build_rep, dirac
from .measure import measure, parse_query
from .model import (PtsFormatError, Word, format_rational, parse_pts,
                    validate)

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the interface reserves 2 for
    # input errors and 4 for usage
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def format_word(word: Word) -> str:
    return ".".join(word)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise PtsFormatError(f"{path}: not UTF-8 text ({exc.reason} "
                                 f"at byte {exc.start})") from None


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _cmd_validate(args) -> int:
    pts = parse_pts(_read(args.input), check=False)
    problems = validate(pts)
    if args.json:
        _emit({"ok": not problems,
               "violations": [{"kind": v.kind, "state": v.state, "message": v.message}
                              for v in problems]})
    elif problems:
        for v in problems:
            print(f"{v.state}: {v.message}")
    else:
        print("ok")
    return EXIT_INPUT if problems else EXIT_OK


def _cmd_rep(args) -> int:
    rep = build_rep(parse_pts(_read(args.input)))
    _emit({
        "l_one": [format_rational(c) for c in rep.l_one],
        "l_star": [format_rational(c) for c in rep.l_star],
        "mats": {letter: [[format_rational(c) for c in row] for row in matrix]
                 for letter, matrix in rep.mats.items()},
    })
    return EXIT_OK


def _cmd_eval(args) -> int:
    pts = parse_pts(_read(args.input))
    rep = build_rep(pts)
    value = measure(rep, dirac(rep, args.state), parse_query(args.query, pts.alphabet))
    if args.json:
        _emit({"value": format_rational(value)})
    else:
        print(format_rational(value))
    return EXIT_OK


_ALGORITHMS = {
    "naive": naive,
    "hk": hk,
    "hkc-finite": hkc_finite,
    "hkc-inf": hkc_inf,
}


def _cmd_equiv(args) -> int:
    budgeted = args.algo in ("naive", "hk")
    if budgeted and args.max_steps is None:
        print(f"error: --max-steps is required for --algo {args.algo}", file=sys.stderr)
        return EXIT_USAGE
    if not budgeted and args.max_steps is not None:
        print(f"error: --max-steps is not accepted for --algo {args.algo}", file=sys.stderr)
        return EXIT_USAGE
    if budgeted and args.max_steps < 1:
        print("error: --max-steps must be at least 1", file=sys.stderr)
        return EXIT_USAGE

    rep = build_rep(parse_pts(_read(args.input)))
    algorithm = _ALGORITHMS[args.algo]
    if budgeted:
        result = algorithm(rep, args.left, args.right, args.max_steps)
    else:
        result = algorithm(rep, args.left, args.right)

    payload = {"result": None, "algorithm": args.algo}
    if isinstance(result, Equivalent):
        payload["result"] = "equivalent"
        payload["iterations"] = result.iterations
        payload["relation_size"] = result.relation_size
        status = EXIT_OK
    elif isinstance(result, NotEquivalent):
        payload["result"] = "not_equivalent"
        payload["iterations"] = result.iterations
        payload["relation_size"] = result.relation_size
        payload["witness"] = format_word(result.witness)
        payload["output"] = result.output.value
        payload["lhs"] = format_rational(result.lhs)
        payload["rhs"] = format_rational(result.rhs)
        status = EXIT_NOT_EQUIVALENT
    elif isinstance(result, Inconclusive):
        payload["result"] = "inconclusive"
        payload["iterations"] = result.steps_exhausted
        payload["relation_size"] = result.relation_size
        status = EXIT_INCONCLUSIVE
    else:
        raise InvariantError(f"{args.algo} returned {result!r}")
    _emit(payload)
    return status


@cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing never changes the parser, and argparse
    # leaves reference cycles behind for every parser it builds
    parser = _Parser(prog="ptstrace",
                     description="Exact trace measures and trace equivalence "
                                 "for probabilistic transition systems.")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("validate", help="check a system document")
    p.add_argument("input", help="path to a system JSON document")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_validate)

    p = commands.add_parser("rep", help="dump the determinized linear view as JSON")
    p.add_argument("input")
    p.add_argument("--json", action="store_true", help="accepted; output is always JSON")
    p.set_defaults(func=_cmd_rep)

    p = commands.add_parser("eval", help="evaluate a measure query from a state")
    p.add_argument("input")
    p.add_argument("--state", required=True, help="start state")
    p.add_argument("--query", required=True,
                   help="empty | word:W | cone:W | infcone:W | finite | infinite | all "
                        "(letters in W dot-separated, e.g. cone:0.2)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_eval)

    p = commands.add_parser("equiv", help="decide trace equivalence of two states")
    p.add_argument("input")
    p.add_argument("left", help="first state")
    p.add_argument("right", help="second state")
    p.add_argument("--algo", choices=sorted(_ALGORITHMS), default="hkc-inf")
    p.add_argument("--max-steps", type=int, default=None,
                   help="step budget, required for naive and hk")
    p.add_argument("--json", action="store_true", help="accepted; output is always JSON")
    p.set_defaults(func=_cmd_equiv)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PtsFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
