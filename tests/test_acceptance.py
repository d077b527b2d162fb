"""Acceptance criteria.

Each test enforces one criterion exactly (zero tolerance) and prints a
single PASS line on success; timing bounds are asserted where stated.
"""

import random
import time
from fractions import Fraction as F

from hintegral.cli import main
from hintegral.hvalue import HValue
from hintegral.oracle import (
    check_algebra_laws,
    check_integral_laws,
    minorant_sample_check,
    mutant_add_drops_dominance,
    mutant_integrate_drops_atom,
    mutant_measure_non_additive,
    random_hvalue,
)
from hintegral.space import AtomSet, AtomSpace
from hintegral.integral import SimpleFn

H = HValue.of


def test_criterion_1_worked_example_reproduction(capsys):
    t0 = time.monotonic()
    assert main(["demo", "monotone-failure"]) == 0
    assert main(["demo", "distributivity"]) == 0
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert out.count("(2, 0)") == 3
    assert "(2, 1)" in out
    assert "(0, 0)" in out and "(1, 0)" in out
    assert "MISMATCH" not in out
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: demo values (2,0)x3, (2,1), (0,0) vs (1,0) in {elapsed:.2f}s")


def test_criterion_2_algebra_suite():
    t0 = time.monotonic()
    report = check_algebra_laws(10_000, seed=0)
    elapsed = time.monotonic() - t0
    assert report.ok, report.violations[:3]
    assert report.trials == 10_000
    assert elapsed < 30.0
    print(f"\nPASS criterion 2: 10000 algebra trials (seed 0), 0 violations in {elapsed:.2f}s")


def test_criterion_3_integral_suite():
    t0 = time.monotonic()
    report = check_integral_laws(1_000, seed=0)
    elapsed = time.monotonic() - t0
    assert report.ok, report.violations[:3]
    assert report.trials == 1_000
    assert elapsed < 60.0
    print(f"\nPASS criterion 3: 1000 integral-law spaces (seed 0), 0 violations in {elapsed:.2f}s")


def test_criterion_4_deficiency_goldens():
    # hand weighted-sum oracle derivations: see the header of test_deficiency.py
    from hintegral.deficiency import (
        ClusterScenario,
        ConvexityScenario,
        Line2,
        LinenessScenario,
        Point2,
        defi_continuity,
        defi_convexity,
        defi_lineness,
    )

    P = Point2.of
    x_axis = Line2.through(P(0, 0), P(1, 0))

    seg = ConvexityScenario.of(segment=(P(0, 0), P(1, 0)))
    assert defi_convexity(seg) == H(0, 0)
    assert defi_convexity(ConvexityScenario.of([P(0, 0), P(1, 0)])) == H(1, 2)
    assert defi_convexity(ConvexityScenario.of([P(0, 0), P(1, 0), P(2, 0)])) == H(1, 8)
    assert defi_continuity(ClusterScenario.of([(F(1, 2), H(0, 1))])) == H(0, 1)
    dirichlet = ClusterScenario.of([], ("R", H(1, "inf"), H(0, 1)))
    assert defi_continuity(dirichlet) == H(1, "inf")
    line_point = LinenessScenario.of(lines=[(P(0, 0), P(1, 0))], points=[P(0, 1)], candidates=[x_axis])
    assert defi_lineness(line_point) == (H(0, 1), x_axis)
    print(
        "\nPASS criterion 4: deficiency goldens (0,0) (1,2) (1,8) (0,1) (1,inf) (0,1)"
    )


def test_criterion_5_mutant_detection():
    r1 = check_algebra_laws(500, seed=0, add_fn=mutant_add_drops_dominance)
    assert not r1.ok and all("seed" in v for v in r1.violations)

    r2 = check_integral_laws(20, seed=0, measure_fn=mutant_measure_non_additive)
    bad = [v for v in r2.violations if v["law"] == "measure-sigma-additivity"]
    assert bad and all("seed" in v for v in bad)

    sp = AtomSpace.of({"a": H(2, 1), "b": H(0, 1)})
    f = SimpleFn.of([(H(0, 1), AtomSet.of("a")), (H(0, 1), AtomSet.of("b"))])
    r3 = minorant_sample_check(sp, f, 50, seed=0, integrate_fn=mutant_integrate_drops_atom)
    assert not r3.ok and all("seed" in v for v in r3.violations)
    print(
        "\nPASS criterion 5: 3 mutants detected "
        f"({len(r1.violations)}, {len(bad)}, {len(r3.violations)} violations with seeds)"
    )


def test_criterion_6_round_trip():
    rng = random.Random(0)
    for i in range(10_000):
        v = random_hvalue(rng, "signed")
        assert HValue.parse(str(v)) == v
    print("\nPASS criterion 6: 10000 render/parse round trips, all equal")
