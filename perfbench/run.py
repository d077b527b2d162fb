"""hintegral benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {laws,interval,scenarios} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each run starts the workload in a fresh
interpreter (``worker.py``), a single caller in a closed loop.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs a fixed number of operations untraced and then traced, and prints
the per-layer metrics.  Every operation's output is checked.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Set-up time is measured from the spawn of the worker to its first timed
operation, so it covers interpreter start, ``import hintegral`` and
input generation.  It is taken in several processes and the median is
reported.  Every timing is scaled to the reference CPU speed defined in
``refclock.py``; the report line also carries the raw wall-clock figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import steady_reference_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("laws", "interval", "scenarios")
SETUP_PROBES = 6
DEADLINE_S = 170
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
MIN_BEYOND = 10
# The highest tail percentile each workload may report: the highest with
# at least MIN_BEYOND samples beyond it in a baseline run.  The cap keeps
# the percentile fixed when a change speeds a workload up and more
# samples fit in a run, so parent and change report the same percentile.
TAIL_CAP = {"laws": 90, "interval": 75, "scenarios": 95}


def tail_latency(samples, cap=100):
    """(percentile, value, samples beyond) for the highest percentile in
    TAIL_PERCENTILES, at most ``cap``, with at least MIN_BEYOND samples
    above its nearest rank; None when even the median has fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (p for p in TAIL_PERCENTILES if p <= cap):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1], n - rank
    return None


class WorkerError(Exception):
    pass


def spawn(args, extra, deadline):
    ref0 = steady_reference_time()
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), "--ref0", repr(ref0), *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker did not finish before the deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hintegral" / "__init__.py").is_file():
        print(f"no hintegral sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        # set-up time is an end-to-end metric only; the traced run skips the probes
        probes = [] if args.trace else [spawn(args, ["--probe"], deadline) for _ in range(SETUP_PROBES)]
        res = spawn(args, [], deadline)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    raw_setups = [p["setup_raw_s"] for p in probes] + [res["setup_raw_s"]]

    outcomes = res["outcomes"]
    attempted = len(outcomes)
    completed = outcomes.count("ok")
    wrong = outcomes.count("wrong")
    failed = attempted - completed
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "attempted": attempted,
        "completed": completed, "refused": failed - wrong, "wrong": wrong,
        "fail_ratio": failed / attempted,
        "setup_s_samples": setups, "setup_raw_s_samples": raw_setups,
        "peak_rss_mb": res["peak_rss_mb"],
    }

    if args.trace:
        report.update(cycles=res["cycles"], spans=res["spans"])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        ok_latencies = [t for t, o in zip(res["latencies"], outcomes) if o == "ok"]
        tail = tail_latency(ok_latencies, TAIL_CAP[args.workload])
        report.update(
            cycles=res["cycles"], cycles_planned=res["cycles_planned"],
            busy_s=res["busy_s"], raw_busy_s=res["raw_busy_s"],
            raw_ops_per_s=completed / res["raw_busy_s"], latency_samples=len(ok_latencies),
        )
        if tail is None:
            report["latency_tail"] = (
                f"unavailable: {len(ok_latencies)} completed samples, fewer than "
                f"{MIN_BEYOND} beyond the median"
            )
        else:
            report["latency_tail"] = {"percentile": tail[0], "samples": len(ok_latencies), "beyond": tail[2]}
        metrics = {
            "ops_per_s": {"value": completed / res["busy_s"], "unit": "1/s"},
            "latency_p50_ms": {
                "value": statistics.median(ok_latencies) * 1e3 if ok_latencies else None,
                "unit": "ms",
            },
            "latency_tail_ms": {"value": tail[1] * 1e3 if tail else None, "unit": "ms"},
            "ok_ratio": {"value": completed / attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }

    for name, m in metrics.items():
        print(f"{args.workload:>9}  {name:<40} {m['value']!s:>24} {m['unit']}")
    if not args.trace:
        print(f"{args.workload:>9}  {'fail_ratio':<40} {report['fail_ratio']!s:>24} ratio")
        print(f"{args.workload:>9}  latency_tail: {report['latency_tail']}")
    print(json.dumps({"report": report}))
    missing = [k for k, m in metrics.items() if m["value"] is None]
    if missing:
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
