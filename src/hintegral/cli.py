"""Command-line front end.

Subcommands:

* ``eval SPACE.json FUNCTION.json`` -- integrate a function over a
  space, print the canonical "(d, m)" value (optionally with its
  witness certificate).
* ``laws`` -- run the randomized algebra and integral law suites.
* ``defi SCENARIO.json`` -- evaluate a deficiency scenario.
* ``demo NAME`` -- replay a worked counterexample with every
  intermediate value, verifying the golden expectations.

Exit codes: 0 success, 1 law violation, 2 parse error (an unreadable
file included) or overlapping pieces, 3 unsupported expression or
unknown set/scenario, 4 undefined sum, 5 golden mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional

from . import exprs
from .deficiency import evaluate_scenario, scenario_from_json
from .errors import (
    HIntegralError,
    NonDisjointError,
    ParseError,
    UndefinedSumError,
    UnknownSetError,
    UnsupportedExpressionError,
    UnsupportedScenarioError,
)
from .hvalue import HValue, add, mul
from .integral import PiecewiseFn, SimpleFn, constant_fn, function_from_json, integrate
from .oracle import LawReport, approx_gap_witness, check_algebra_laws, check_integral_laws
from .space import IntervalSet, IntervalSpace, space_from_json

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_UNDEFINED_SUM = 4
EXIT_GOLDEN_MISMATCH = 5


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        # a directory, an unreadable or undecodable file, nesting too deep
        raise ParseError(f"{path}: {exc}") from exc


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


def _trial_count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
    return int(text)


def _can_fork() -> bool:
    """Whether the algebra suite may run in a forked child: the platform
    forks, this process may use at least two CPUs, and it runs one thread
    (a fork copies only the calling thread, and Python 3.12 warns)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no per-thread listing: the thread count is unknown
        return False


def _algebra_report(text: str, status: int) -> LawReport:
    """The algebra report from the child's JSON record; a recorded error is
    raised here, a package error as its own class."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(
            f"the algebra suite's child process ended with code {code} and no report"
        ) from None
    if "error" in record:
        module, name, message = record["error"]
        cls = getattr(sys.modules.get(module), name, None)
        if isinstance(cls, type) and issubclass(cls, HIntegralError):
            raise cls(message)
        raise RuntimeError(f"the algebra suite's child process raised {module}.{name}: {message}")
    r = record["report"]
    return LawReport(r["law"], r["trials"], *r["seed_range"], r["violations"])


def _laws_side_by_side(trials: int, integral_trials: int, seed: int) -> List[LawReport]:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns, and never flushes the stdio buffers it shares
        code = 1
        try:
            os.close(read_fd)
            try:
                record = {"report": check_algebra_laws(trials, seed).to_json()}
            except BaseException as exc:  # to the parent, which raises it: unwinding would run the caller here
                record = {"error": [type(exc).__module__, type(exc).__qualname__, str(exc)]}
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                pipe.write(json.dumps(record))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as pipe:
        try:
            integral = check_integral_laws(integral_trials, seed)
        finally:
            # to EOF before waitpid: a report longer than the pipe buffer
            # holds the child in its write until it is read
            text = pipe.read()
            _, status = os.waitpid(pid, 0)
    return [_algebra_report(text, status), integral]


def cmd_laws(args: argparse.Namespace) -> int:
    """Run the algebra and the integral law suites and print their reports.

    The suites share no state, so when ``os.fork`` exists,
    ``os.sched_getaffinity(0)`` exists and holds at least two CPUs, and the
    process runs one thread, the algebra suite runs in one forked child
    while this process runs the integral suite.  The child writes its
    report, or its error, as one JSON record to a pipe and leaves through
    ``os._exit``.  The parent reads the pipe to EOF, then calls
    ``waitpid``, and raises a recorded error as the sequential path would.
    Otherwise the suites run one after the other.  The output is the same
    on both paths.
    """
    # integral trials are an order of magnitude heavier per trial
    integral_trials = max(args.trials // 10, 1) if args.trials else 0
    if _can_fork():
        reports = _laws_side_by_side(args.trials, integral_trials, args.seed)
    else:
        reports = [
            check_algebra_laws(args.trials, args.seed),
            check_integral_laws(integral_trials, args.seed),
        ]
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


@functools.cache
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
    p_laws.add_argument("--trials", type=_trial_count, default=1000)
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
    """Run one command line (``sys.argv[1:]`` when argv is None) and return
    its exit code.

    The argument parser is built once per process, on the first call, and
    reused: parsing leaves it unchanged, so a caller that runs many
    commands in one process (an embedding, the test suite) pays for it
    once, as a shell user does.
    """
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values are read and printed at every size
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
