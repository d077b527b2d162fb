"""Self-tests of the benchmark: generators, checks, spans and percentiles.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def inputs(workload, seed, cycles=2):
    return json.dumps(gen.workload_ops(workload, seed, cycles), sort_keys=True).encode()


@pytest.mark.parametrize("workload", sorted(gen.CYCLES))
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    assert inputs(workload, 7) == inputs(workload, 7)
    assert inputs(workload, 7) != inputs(workload, 8)


def test_generators_never_import_hintegral():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gen\n"
        "for w in gen.CYCLES: gen.workload_ops(w, 3, 1)\n"
        "assert not any(m.startswith('hintegral') for m in sys.modules), sorted(sys.modules)\n"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE)], check=True, timeout=120)


def test_interval_mix_is_the_same_for_every_seed():
    def shape(seed):
        return sorted(
            (op["pieces"], len(op["function"]["pieces"]), op["space"]["bounds"][1], len(op["space"]["density"]))
            for op in gen.interval_cycle(seed, 0)
        )

    assert shape(1) == shape(2)
    assert [n for n, *_ in shape(1)] == sorted(n for n, *_ in gen.INTERVAL_SLOTS)


def test_scenario_mix_has_one_scaled_convexity_request_per_cycle():
    ops = gen.scenario_cycle(5, 0)
    kinds = [op["kind"] for op in ops]
    assert kinds.count("convexity-scaled") == 1
    scaled = ops[kinds.index("convexity-scaled")]
    assert len(scaled["files"][0]["points"]) >= 12
    assert len(kinds) == sum(n for _, n in gen.SCENARIO_MIX)


def test_laws_ladder_matches_the_suites_own_draws(monkeypatch):
    sys.path.insert(0, str(HERE.parent / "src"))
    from hintegral import oracle

    sizes = []
    real = oracle.random_atom_space

    def recording(rng, n=4):
        sizes.append(n)
        return real(rng, n)

    monkeypatch.setattr(oracle, "random_atom_space", recording)
    ops = gen.laws_cycle(3, 0)
    seeds = [int(op["argv"][op["argv"].index("--seed") + 1]) for op in ops]
    trials = gen.LAWS_TRIALS // 10
    for k in seeds[:3]:
        sizes.clear()
        oracle.check_integral_laws(trials, k)
        assert sizes.count(6) == gen.six_atom_trials(k, trials)
    assert sorted(gen.six_atom_trials(k, trials) for k in seeds) == sorted(gen.LAWS_SIX_ATOM_LADDER)


def test_closed_forms():
    one = (gen.Fraction(1), gen.Fraction(1))
    assert gen.v_str(gen.v_add((gen.Fraction(1), gen.Fraction(2)), one)) == "(1, 3)"
    assert gen.v_str(gen.v_mul((gen.Fraction(0), gen.INF), gen.v_zero())) == "(0, 0)"
    origin, left = (gen.Fraction(0), gen.Fraction(0)), (gen.Fraction(-2), gen.Fraction(0))
    assert gen.normalized_line(origin, left) == "0*x + 1*y = 0"
    scenario, value = gen.convexity_case(gen.random.Random(0), 2, scaled=False)
    (x1, y1), (x2, y2) = [[gen.Fraction(c) for c in p] for p in scenario["points"]]
    d2 = (x1 - x2) ** 2 + (y1 - y2) ** 2
    d = gen.Fraction(value[4:-1])
    assert d * d == 4 * d2  # both ordered pairs


def test_self_time_is_span_minus_children_coverage():
    rec = spans.SpanRecorder()
    root = rec.add("root", 0, 100)
    a = rec.add("a", 10, 40, parent=root)
    rec.add("b", 30, 60, parent=root)  # overlaps a: covered once
    rec.add("leaf", 15, 25, parent=a)
    rec.add("c", 90, 120, parent=root)  # clipped to the parent's end
    assert list(rec.self_times_ns()) == [100 - 50 - 10, 30 - 10, 30, 10, 30]
    summary = rec.summary()
    assert summary["root"] == (1, 40e-9)
    assert summary["a"] == (1, 20e-9)


def test_recorder_wraps_every_namespace_and_restores_them():
    sys.path.insert(0, str(HERE.parent / "src"))
    from hintegral import cli, hvalue, integral, oracle, space

    original, original_add = integral.integrate, hvalue.add
    rec = spans.SpanRecorder()
    installed = spans.Installed(rec)
    try:
        assert cli.integrate is integral.integrate is oracle.integrate
        assert cli.integrate is not original
        assert oracle.check_algebra_laws.__wrapped__.__defaults__[1] is hvalue.add
        assert hvalue.add is not original_add
        sp = space.AtomSpace.of({"a": hvalue.HValue.of(1, 2)})
        fn = integral.SimpleFn.of([(hvalue.HValue.of(0, 3), space.AtomSet.of("a"))])
        rec.op_id = 4
        value, _ = cli.integrate(sp, fn)
        assert str(value) == "(1, 6)"
    finally:
        installed.remove()
    assert cli.integrate is original and oracle.integrate is original
    assert oracle.check_algebra_laws.__defaults__[1] is original_add is hvalue.add
    names = [rec.names[i] for i in rec.name]
    assert names[0] == "integral.integrate" and "space.measure" in names
    assert set(rec.op) == {4}
    assert rec.parent[0] == -1 and all(p == 0 for p in rec.parent[1:2])


@pytest.mark.parametrize(
    "n, cap, expected",
    [(19, 100, None), (20, 100, 50), (39, 100, 50), (40, 100, 75), (100, 100, 90),
     (1000, 100, 99), (1000, 95, 95), (100, 75, 75)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, cap, expected):
    tail = run.tail_latency([float(i) for i in range(n)], cap)
    if expected is None:
        assert tail is None
    else:
        p, value, beyond = tail
        assert p == expected and beyond >= run.MIN_BEYOND
        assert sum(1 for i in range(n) if i > value) == beyond


def test_wrong_answers_and_refusals_are_told_apart():
    import worker

    op = gen.interval_cycle(1, 0)[0]
    good = worker.interval_prepare([dict(op)], None, 0)[0]
    assert worker.interval_run(good, worker.Counters()) == worker.OK
    bad = worker.interval_prepare([dict(op, value="(0, 0)")], None, 0)[0]
    assert worker.interval_run(bad, worker.Counters()) == worker.WRONG
    laws = {"argv": ["laws", "--trials", "10", "--seed", "1", "--json"], "trials": 20}
    assert worker.laws_run(laws, worker.Counters()) == worker.WRONG
    missing = {"argv": ["defi", str(HERE / "no-such-file.json"), "--json"], "value": "(0, 0)"}
    assert worker.scenarios_run(missing, worker.Counters()) == worker.REFUSED
