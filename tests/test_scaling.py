"""Call-count ladder: an entry point's work grows linearly with its input.

cProfile's ``total_calls`` repeats exactly for a fixed input, so the
ratio of the counts at 2n and at n measures growth without timing
noise: a linear path gives about 2, a quadratic one about 4.  Each row
builds its input outside the profiled call, and each doubling is
asserted as soon as it is counted, so a quadratic row stops at the
second size instead of profiling the largest.
"""

import cProfile
import pstats
from fractions import Fraction as F

import pytest

from hintegral import exprs, integral
from hintegral.deficiency import (
    ClusterScenario,
    ConvexityScenario,
    Line2,
    LinenessScenario,
    Point2,
    defi_continuity,
    defi_convexity,
    defi_lineness,
    scenario_from_json,
)
from hintegral.hvalue import HValue
from hintegral.integral import (
    PiecewiseFn,
    SimpleFn,
    function_from_json,
    integrate,
    pointwise_add_fn,
    restrict,
    sublevel_set,
    verify_certificate,
)
from hintegral.space import AtomSet, AtomSpace, IntervalSet, IntervalSpace

SIZES = (200, 400, 800, 1600)
RATIO = 2.3


def total_calls(run) -> int:
    profile = cProfile.Profile()
    profile.runcall(run)
    return pstats.Stats(profile).total_calls


def assert_growth(entry, ratio):
    small = total_calls(entry(SIZES[0]))
    for n in SIZES[1:]:
        big = total_calls(entry(n))
        assert big / small <= ratio, (n, small, big, big / small)
        small = big


def steps(n):
    """n touching pieces (k, k + 1) on (0, n), pi1 = k % 2 and pi2 = 1."""
    pieces = [(k, k + 1, exprs.const(k % 2), exprs.const(1)) for k in range(n)]
    return IntervalSpace.of(0, n), PiecewiseFn.of(pieces)


def spread(n, shift=0):
    """n intervals (2k, 2k + 1) and the n points 2k + 3/2, moved by shift.
    By shift 3/4 each interval holds a point of the other set."""
    ivs = [(2 * k + shift, 2 * k + 1 + shift) for k in range(n)]
    return IntervalSet.of(ivs, [2 * k + F(3, 2) + shift for k in range(n)])


def atoms(n):
    """An atom space of n atoms, and a simple function with one piece on each."""
    names = [f"a{k}" for k in range(n)]
    f = SimpleFn.of([(HValue.of(1, k + 1), AtomSet.of(a)) for k, a in enumerate(names)])
    return AtomSpace.of({a: HValue.of(1, 1) for a in names}), f


def sublevel(n):
    """sublevel_set of n touching pieces, every other one below the
    level: about n/2 intervals and the n - 1 piece ends as points."""
    space, f = steps(n)
    return lambda: sublevel_set(space, f, HValue.of(1, 1))


def simple_on_intervals(n):
    """A simple function of n interval pieces that each hold a point."""
    pieces = [(HValue.of(1, 1), IntervalSet.of([(2 * k, 2 * k + 1)], [2 * k + F(3, 2)])) for k in range(n)]
    return lambda: SimpleFn.of(pieces)


def steps_json(n):
    """The JSON of steps(n)'s n touching pieces."""
    const = lambda e: {"kind": "const", "value": str(e.coeffs[0])}
    return {"pieces": [
        {"set": {"intervals": [[str(p.lo), str(p.hi)]]}, "pi1": const(p.pi1), "pi2": const(p.pi2)}
        for p in steps(n)[1].pieces
    ]}


def read_steps(n):
    """function_from_json on the JSON of steps(n)'s n touching pieces."""
    obj = steps_json(n)
    return lambda: function_from_json(obj)


def read_steps_reversed(n):
    """function_from_json on steps(n) written last piece first, which it sorts."""
    obj = {"pieces": steps_json(n)["pieces"][::-1]}
    return lambda: function_from_json(obj)


def read_shared_poly(n):
    """function_from_json on n touching pieces that share one polynomial mass."""
    obj = {"pieces": [
        {
            "set": {"intervals": [[str(k), str(k + 1)]]},
            "pi1": {"kind": "const", "value": "1"},
            "pi2": {"kind": "poly", "coeffs": ["1", "-1", "1/2"]},
        }
        for k in range(n)
    ]}
    return lambda: function_from_json(obj)


def nu_spread(n):
    """IntervalSpace.nu on spread(n)'s n intervals and n points."""
    space, s = IntervalSpace.of(0, 2 * n), spread(n)
    return lambda: space.nu(s)


def interval_in(n):
    s, probes = spread(n), [F(3 * k, 4) for k in range(n)]
    return lambda: [x in s for x in probes]


def restrict_simple_on_intervals(n):
    f = simple_on_intervals(n)()
    L = spread(n, F(3, 4))
    return lambda: restrict(f, L)


def integrate_piecewise(n):
    space, f = steps(n)
    return lambda: integrate(space, f)


def verify_piecewise(n):
    space, f = steps(n)
    cert = integrate(space, f)[1]
    return lambda: verify_certificate(space, f, cert)


def restrict_piecewise(n):
    f, L = steps(2 * n)[1], spread(n, F(1, 4))
    return lambda: restrict(f, L)


def add_piecewise(n):
    f = steps(n)[1]
    g = PiecewiseFn.of([(p.lo + F(1, 2), p.hi + F(1, 2), p.pi2, p.pi1) for p in f.pieces])
    return lambda: pointwise_add_fn(f, g)


def integrate_atoms(n):
    space, f = atoms(n)
    return lambda: integrate(space, f)


def restrict_atoms(n):
    space, f = atoms(n)
    L = AtomSet(frozenset(space.atoms[::2]))
    return lambda: restrict(f, L)


def verify_atoms(n):
    space, f = atoms(n)
    cert = integrate(space, f)[1]
    return lambda: verify_certificate(space, f, cert)


def sublevel_atoms(n):
    space, f = atoms(n)
    return lambda: sublevel_set(space, f, HValue.of(1, n // 2))


def add_atoms(n):
    f = atoms(n)[1]
    return lambda: pointwise_add_fn(f, f)


def continuity(n):
    s = ClusterScenario.of([(k, HValue.of(0, k + 1)) for k in range(n)])
    return lambda: defi_continuity(s)


def lineness(n):
    """n primitives off the x-axis, the one candidate: points and unit
    segments perpendicular to it."""
    points = [Point2.of(k, 1) for k in range(0, n, 2)]
    segments = [(Point2.of(k, 1), Point2.of(k, 2)) for k in range(1, n, 2)]
    x_axis = Line2.through(Point2.of(0, 0), Point2.of(1, 0))
    s = LinenessScenario.of(segments=segments, points=points, candidates=[x_axis])
    return lambda: defi_lineness(s)


def read_lineness(n):
    """scenario_from_json on lineness(n)'s n primitives and candidate, as JSON."""
    point = lambda x, y: [str(x), str(y)]
    prims = [{"type": "point", "p": point(k, 1)} for k in range(0, n, 2)]
    prims += [{"type": "segment", "p": point(k, 1), "q": point(k, 2)} for k in range(1, n, 2)]
    obj = {"kind": "lineness", "primitives": prims, "candidates": [{"p": point(0, 0), "q": point(1, 0)}]}
    return lambda: scenario_from_json(obj)


def read_continuity(n):
    """scenario_from_json on continuity(n)'s n jumps, as JSON."""
    obj = {"kind": "continuity", "jumps": [{"x": str(k), "remainder": f"(0, {k + 1})"} for k in range(n)]}
    return lambda: scenario_from_json(obj)


def convexity(n):
    s = ConvexityScenario.of([Point2.of(k, 0) for k in range(n)])
    return lambda: defi_convexity(s)


@pytest.mark.parametrize("entry", [
    pytest.param(sublevel, id="sublevel_set"),
    pytest.param(simple_on_intervals, id="SimpleFn"),
    pytest.param(interval_in, id="IntervalSet_in"),
    pytest.param(read_steps, id="function_from_json"),
    pytest.param(read_steps_reversed, id="function_from_json_reversed"),
    pytest.param(read_shared_poly, id="function_from_json_shared_poly"),
    pytest.param(nu_spread, id="IntervalSpace_nu"),
    pytest.param(restrict_simple_on_intervals, id="restrict_simple_on_intervals"),
    pytest.param(integrate_piecewise, id="integrate_piecewise"),
    pytest.param(verify_piecewise, id="verify_certificate_piecewise"),
    pytest.param(restrict_piecewise, id="restrict_piecewise"),
    pytest.param(add_piecewise, id="pointwise_add_fn_piecewise"),
    pytest.param(integrate_atoms, id="integrate_atoms"),
    pytest.param(restrict_atoms, id="restrict_atoms"),
    pytest.param(continuity, id="defi_continuity"),
    pytest.param(lineness, id="defi_lineness"),
    pytest.param(read_lineness, id="scenario_from_json_lineness"),
    pytest.param(read_continuity, id="scenario_from_json_continuity"),
    pytest.param(verify_atoms, id="verify_certificate_atoms"),
    pytest.param(sublevel_atoms, id="sublevel_set_atoms"),
    pytest.param(add_atoms, id="pointwise_add_fn_atoms"),
])
def test_calls_at_most_double_with_the_input(entry):
    assert_growth(entry, RATIO)


def test_convexity_sums_over_pairs():
    # n points have n(n - 1)/2 pairs: about 4 per doubling, and no more
    assert_growth(convexity, 4.2)


def test_pieces_given_out_of_order_are_each_checked_once(monkeypatch):
    # a neighbour with a smaller lo is refused before any piece is checked,
    # so sorting costs no second check; pieces in order compare ends 2n - 1 times
    calls = {"check_piece": 0, "frac_cmp": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(exprs, "check_piece", counted("check_piece", exprs.check_piece))
    monkeypatch.setattr(integral, "frac_cmp", counted("frac_cmp", integral.frac_cmp))
    for read in (read_steps_reversed, read_steps):
        run = read(200)
        calls.update(check_piece=0, frac_cmp=0)
        run()
        assert calls["check_piece"] == 200
    assert calls["frac_cmp"] == 2 * 200 - 1
