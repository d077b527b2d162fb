"""One benchmark process: set up, run a workload, check every output.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
Prints one JSON object on stdout and nothing else; the CLI's own output
is captured and checked.  A closed loop with one caller: the next
operation starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import hintegral  # noqa: E402  (the CLI cold start is part of set-up)
from hintegral import cli, integral, space  # noqa: E402
from hintegral.hvalue import ExtRat, HValue  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
from refclock import reference_time, scale, steady_reference_time  # noqa: E402

OK, REFUSED, WRONG = "ok", "refused", "wrong"

# Cycles in a run per second of --seconds: a fixed count, so a run's
# attempted and failed counts depend on the workload and --seconds only,
# never on how fast the machine happened to be.  The operations took
# 0.55-0.85 s per second of --seconds on a 2-core x86-64 VM under Python
# 3.11, as its CPU speed varied.
CYCLES_PER_S = {"laws": 0.4, "interval": 0.13, "scenarios": 0.8}
# A run on a machine this many times slower than that stops starting
# cycles once its operations have taken this many times --seconds, so it
# still ends before run.py's deadline; the report then shows fewer cycles.
SLOW_CAP = 4
# The same for the traced run, whose call counts so repeat exactly for a
# seed.  It first runs the same cycles untraced to measure the tracing
# overhead.
TRACE_CYCLES_PER_S = {"laws": 0.1, "interval": 0.05, "scenarios": 0.4}


def planned_cycles(per_s: float, seconds: float) -> int:
    return max(1, round(seconds * per_s))


def fraction_bits(text: str) -> int:
    if text in ("inf", "-inf"):
        return 0
    f = Fraction(text)
    return max(f.numerator.bit_length(), f.denominator.bit_length())


def value_bits(text: str) -> int:
    """Largest numerator or denominator bit-length in a "(d, m)" text."""
    d, m = text.strip()[1:-1].split(",")
    return max(fraction_bits(d.strip()), fraction_bits(m.strip()))


class Counters:
    """Output counters computed from what the benchmark hands over and
    receives: pieces integrated, witnesses received, largest value."""

    def __init__(self):
        self.pieces = 0
        self.witnesses = 0
        self.max_bits = 0

    def value(self, text: str):
        self.max_bits = max(self.max_bits, value_bits(text))

    def certificate(self, cert: dict):
        self.value(cert["value"])
        for w in cert["d_witnesses"] + cert["m_witnesses"]:
            self.witnesses += 1
            self.value(w["measure"])
            self.value(w["inf_bound"])


def certificate_from_json(obj) -> integral.T4Certificate:
    def witness(w):
        return integral.Witness(
            space.set_from_json(w["set"]),
            HValue.parse(w["measure"]),
            HValue.parse(w["inf_bound"]),
        )

    return integral.T4Certificate(
        HValue.parse(obj["value"]),
        tuple(witness(w) for w in obj["d_witnesses"]),
        tuple(witness(w) for w in obj["m_witnesses"]),
        obj["exact_m"],
        ExtRat.parse(obj["achieved_m"]),
    )


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# workloads: prepare(cycle ops) -> runnable ops; run(op, counters) -> outcome
# ---------------------------------------------------------------------------


def laws_run(op, counters):
    code, out = run_cli(op["argv"])
    if code not in (0, 1):
        return REFUSED
    reports = json.loads(out)
    expected_trials = [op["trials"], max(op["trials"] // 10, 1)]
    good = (
        code == 0
        and [r["law"] for r in reports] == ["algebra", "integral"]
        and [r["trials"] for r in reports] == expected_trials
        and all(not r["violations"] for r in reports)
    )
    return OK if good else WRONG


def interval_prepare(ops, workdir, cycle):
    for op in ops:
        op["text"] = (json.dumps(op.pop("space")), json.dumps(op.pop("function")))
    return ops


def interval_run(op, counters):
    sp = space.space_from_json(json.loads(op["text"][0]))
    fn = integral.function_from_json(json.loads(op["text"][1]))
    value, cert = integral.integrate(sp, fn)
    sent = json.loads(json.dumps(cert.to_json()))
    verified = integral.verify_certificate(sp, fn, certificate_from_json(sent))
    counters.pieces += len(fn.pieces)
    counters.certificate(sent)
    good = verified and str(value) == op["value"] and sent["value"] == op["value"]
    return OK if good else WRONG


def scenarios_prepare(ops, workdir, cycle):
    for i, op in enumerate(ops):
        files = op.pop("files")
        op["pieces"] = len(files[-1].get("pieces", ()))
        paths = []
        for k, obj in enumerate(files):
            path = workdir / f"c{cycle}-{i}-{k}.json"
            path.write_text(json.dumps(obj))
            paths.append(str(path))
        sub = "eval" if op["kind"].startswith("eval") else "defi"
        op["argv"] = [sub, *paths, *op["flags"]]
    return ops


def scenarios_run(op, counters):
    code, out = run_cli(op["argv"])
    if code != 0:
        return REFUSED
    res = json.loads(out)
    if "lines" in op:
        return OK if res.get("best_line") in op["lines"] else WRONG
    counters.value(res["value"])
    if "certificate" in res:
        counters.pieces += op["pieces"]
        counters.certificate(res["certificate"])
        if res["certificate"]["value"] != op["value"]:
            return WRONG
    return OK if res["value"] == op["value"] else WRONG


WORKLOADS = {
    "laws": (lambda ops, workdir, cycle: ops, laws_run),
    "interval": (interval_prepare, interval_run),
    "scenarios": (scenarios_prepare, scenarios_run),
}


class Stream:
    """The workload's operations cycle by cycle, generated between cycles
    so generation never falls inside a timed operation."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.prepare = WORKLOADS[workload][0]

    def cycle(self, c: int):
        return self.prepare(gen.CYCLES[self.workload](self.seed, c), self.workdir, c)


def run_cycles(stream: Stream, first, until, counters, recorder=None):
    """Run whole cycles, starting with the already prepared ``first``,
    until ``until(cycles_done, busy_seconds)`` holds.  Each operation is
    bracketed by the reference computation.  Returns the outcomes, the
    latencies at reference speed, each operation's scale factor to
    reference speed, and the wall-clock busy time (which ``until``
    sees)."""
    run = WORKLOADS[stream.workload][1]
    outcomes, latencies, factors = [], [], []
    busy = 0.0
    c, ops = 0, first
    ref = reference_time()
    while True:
        for op in ops:
            if recorder is not None:
                recorder.op_id = len(outcomes)
            t0 = time.perf_counter()
            try:
                outcome = run(op, counters)
            except Exception as exc:  # a crash counts as a failed operation
                print(f"operation {len(outcomes)} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                outcome = REFUSED
            elapsed = time.perf_counter() - t0
            ref_after = reference_time()
            busy += elapsed
            factors.append(scale(1.0, ref, ref_after))
            latencies.append(elapsed * factors[-1])
            outcomes.append(outcome)
            ref = ref_after
        c += 1
        if until(c, busy):
            return outcomes, latencies, factors, busy
        ops = stream.cycle(c)


def layer_metrics(summary, counters, overhead):
    def calls(name):
        return summary.get(name, (0, 0.0))[0]

    def self_s(*names):
        return sum(summary.get(n, (0, 0.0))[1] for n in names)

    metrics = {}
    for name in (
        "cli.main", "space.space_from_json", "integral.function_from_json",
        "deficiency.scenario_from_json", "space.measure", "space.nu", "exprs.sup_on",
        "integral.integrate", "integral.integrate_simple", "integral.verify_certificate",
        "integral.T4Certificate.to_json", "deficiency.defi_lineness",
        "deficiency.defi_convexity", "deficiency.defi_continuity",
        "oracle.check_algebra_laws", "oracle.check_integral_laws",
        "oracle.brute_force_integral",
    ):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["hvalue.self_s"] = (self_s(*(f"hvalue.{n}" for n in spans.TRACED["hvalue"])), "s")
    for name in (
        "space.measure", "hvalue.add", "hvalue.mul", "exprs.poly_eval",
        "exprs.poly_lipschitz_bound", "exprs.nth_root", "exprs.pow_exact",
        "integral.integrate", "deficiency.rational_distance",
    ):
        metrics[f"{name}.calls"] = (calls(name), "count")
    metrics["integral.pieces"] = (counters.pieces, "count")
    metrics["integral.witnesses"] = (counters.witnesses, "count")
    metrics["values.max_bits"] = (counters.max_bits, "bits")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="launcher's time.monotonic() at spawn")
    ap.add_argument("--ref0", type=float, required=True, help="launcher's reference time before spawn")
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(hintegral.__file__).resolve().parents:
        print(f"hintegral imported from {hintegral.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        stream = Stream(args.workload, args.seed, workdir)
        first = stream.cycle(0)
        setup_raw = time.monotonic() - args.t0
        setup_s = scale(setup_raw, args.ref0, steady_reference_time())
        if args.probe:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return 0
        counters = Counters()
        if not args.trace:
            cycles = planned_cycles(CYCLES_PER_S[args.workload], args.seconds)
            per_cycle = len(first)
            outcomes, latencies, _, busy = run_cycles(
                stream, first, lambda c, busy: c >= cycles or busy >= SLOW_CAP * args.seconds,
                counters,
            )
            ran = len(outcomes) // per_cycle
            if ran < cycles:
                print(f"stopped after {ran} of {cycles} cycles: machine too slow", file=sys.stderr)
            result = {"outcomes": outcomes, "latencies": latencies, "busy_s": sum(latencies),
                      "raw_busy_s": busy, "cycles": ran, "cycles_planned": cycles}
        else:
            cycles = planned_cycles(TRACE_CYCLES_PER_S[args.workload], args.seconds)
            until = lambda c, busy: c >= cycles  # noqa: E731
            plain = sum(run_cycles(stream, first, until, Counters())[1])
            recorder = spans.SpanRecorder()
            installed = spans.Installed(recorder)
            try:
                outcomes, latencies, factors, _ = run_cycles(
                    stream, stream.cycle(0), until, counters, recorder
                )
            finally:
                installed.remove()
            recorder.write(ROOT / ".perfbench_out" / f"spans-{args.workload}.bin")
            metrics = layer_metrics(recorder.summary(factors), counters, sum(latencies) / plain)
            result = {"outcomes": outcomes, "cycles": cycles, "spans": len(recorder), "layers": metrics}
        result.update(setup_s=setup_s, setup_raw_s=setup_raw)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
