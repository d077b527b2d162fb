"""Command-line front end.

Subcommands:

* ``eval SPACE.json FUNCTION.json`` -- integrate a function over a
  space, print the canonical "(d, m)" value (optionally with its
  witness certificate).
* ``laws`` -- run the randomized algebra and integral law suites.
* ``defi SCENARIO.json`` -- evaluate a deficiency scenario.
* ``demo NAME`` -- replay a worked counterexample with every
  intermediate value, verifying the golden expectations.

Exit codes: 0 success, 1 law violation, 2 parse error or overlapping
pieces, 3 unsupported expression or unknown set/scenario, 4 undefined
sum, 5 golden mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from . import exprs
from .deficiency import evaluate_scenario, scenario_from_json
from .errors import (
    NonDisjointError,
    ParseError,
    UndefinedSumError,
    UnknownSetError,
    UnsupportedExpressionError,
    UnsupportedScenarioError,
)
from .hvalue import HValue, add, mul
from .integral import PiecewiseFn, SimpleFn, constant_fn, function_from_json, integrate
from .oracle import approx_gap_witness, check_algebra_laws, check_integral_laws
from .space import IntervalSet, IntervalSpace, space_from_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_UNDEFINED_SUM = 4
EXIT_GOLDEN_MISMATCH = 5


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def cmd_eval(args: argparse.Namespace) -> int:
    space = space_from_json(_load_json(args.space))
    fn = function_from_json(_load_json(args.function))
    value, cert = integrate(space, fn)
    if args.json:
        out = {"value": str(value)}
        if args.certificate:
            out["certificate"] = cert.to_json()
        print(json.dumps(out, indent=2))
    else:
        print(value)
        if args.certificate:
            print(json.dumps(cert.to_json(), indent=2))
    return EXIT_OK


def cmd_laws(args: argparse.Namespace) -> int:
    algebra = check_algebra_laws(args.trials, args.seed)
    # integral trials are an order of magnitude heavier per trial
    integral = check_integral_laws(max(args.trials // 10, 1) if args.trials else 0, args.seed)
    reports = [algebra, integral]
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            status = "ok" if r.ok else f"{len(r.violations)} violation(s)"
            print(f"{r.law}: {r.trials} trials, seeds [{r.seed_lo}, {r.seed_hi}]: {status}")
            for v in r.violations[:5]:
                print(f"  {v}")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VIOLATION


def cmd_defi(args: argparse.Namespace) -> int:
    scenario = scenario_from_json(_load_json(args.scenario))
    value, extra = evaluate_scenario(scenario)
    if args.json:
        out = {"value": str(value)}
        if extra is not None:
            out["best_line"] = f"{extra.a}*x + {extra.b}*y = {extra.c}"
        print(json.dumps(out, indent=2))
    else:
        print(value)
        if extra is not None:
            print(f"best line: {extra.a}*x + {extra.b}*y = {extra.c}")
    return EXIT_OK


def _check(label: str, got, expected) -> bool:
    marker = "ok" if got == expected else f"MISMATCH (expected {expected})"
    print(f"  {label} = {got}   [{marker}]")
    return got == expected


def demo_monotone_failure() -> int:
    """A pointwise increasing sequence whose integrals do not converge
    to the integral of the limit."""
    print("space: (0, 1) with measure (1, lebesgue)")
    space = IntervalSpace.of(0, 1, dim_offset=1)
    ok = True
    for n in (1, 2, 3):
        root = exprs.power(Fraction(1, n))
        fn = PiecewiseFn.of([(0, 1, root, root)])
        v, _ = integrate(space, fn)
        ok &= _check(f"integral of f_{n}(x) = (x^(1/{n}), x^(1/{n})))", v, HValue.of(2, 0))
    limit = constant_fn(0, 1, HValue.of(1, 1))
    v, _ = integrate(space, limit)
    ok &= _check("integral of the limit f(x) = (1, 1)", v, HValue.of(2, 1))
    return EXIT_OK if ok else EXIT_GOLDEN_MISMATCH


def demo_distributivity() -> int:
    """Distributivity fails once negative masses enter."""
    a = HValue.of(1, 1)
    b = HValue.of(0, 5)
    c = HValue.of(0, -5)
    ok = True
    ok &= _check(f"{a} * ({b} + {c})", mul(a, add(b, c)), HValue.of(0, 0))
    ok &= _check(f"{a}*{b} + {a}*{c}", add(mul(a, b), mul(a, c)), HValue.of(1, 0))
    return EXIT_OK if ok else EXIT_GOLDEN_MISMATCH


def demo_no_approx() -> int:
    """f(x) = (x, x) cannot be approximated by simple functions: any
    chain only uses countably many dimensions, so some diagonal value
    is missed by every member."""
    chain = []
    for level in (1, 2, 3):
        cells = 2**level
        pieces = []
        for k in range(1, cells):
            lo = Fraction(k, cells)
            hi = Fraction(k + 1, cells)
            pieces.append((HValue.of(lo, lo), IntervalSet.of([(lo, hi)])))
        chain.append(SimpleFn.of(pieces))
    w = approx_gap_witness(chain)
    print("chain: dyadic step minorants of f(x) = (x, x) at levels 1..3")
    print(f"witness x = {w.x}: no member enters (({w.x}, 0), ({w.x}, 1))")
    for i, (val, verdict) in enumerate(w.checks):
        print(f"  g_{i + 1}({w.x}) = {val}   [{verdict}]")
    return EXIT_OK


DEMOS = {
    "monotone-failure": demo_monotone_failure,
    "distributivity": demo_distributivity,
    "no-approx": demo_no_approx,
}


def cmd_demo(args: argparse.Namespace) -> int:
    return DEMOS[args.name]()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hintegral",
        description="Exact arithmetic for dimension/measure pairs and their integrals.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="integrate a function file over a space file")
    p_eval.add_argument("space")
    p_eval.add_argument("function")
    p_eval.add_argument("--json", action="store_true")
    p_eval.add_argument("--certificate", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_laws = sub.add_parser("laws", help="run the randomized law suites")
    p_laws.add_argument("--trials", type=int, default=1000)
    p_laws.add_argument("--seed", type=int, default=0)
    p_laws.add_argument("--json", action="store_true")
    p_laws.set_defaults(func=cmd_laws)

    p_defi = sub.add_parser("defi", help="evaluate a deficiency scenario file")
    p_defi.add_argument("scenario")
    p_defi.add_argument("--json", action="store_true")
    p_defi.set_defaults(func=cmd_defi)

    p_demo = sub.add_parser("demo", help="replay a worked counterexample")
    p_demo.add_argument("name", choices=sorted(DEMOS))
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NonDisjointError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnsupportedExpressionError, UnknownSetError, UnsupportedScenarioError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except UndefinedSumError as exc:
        print(f"undefined sum: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED_SUM


if __name__ == "__main__":
    sys.exit(main())
