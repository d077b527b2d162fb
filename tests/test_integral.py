"""Integral engine tests: simple sums, the closed-form evaluation,
certificates, sublevel sets, pointwise sums, and the worked examples."""

import hashlib
import importlib.util
import json
import random
from collections import Counter
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from hintegral import exprs
from hintegral.errors import (
    HIntegralError,
    NonDisjointError,
    UnknownSetError,
    UnsupportedExpressionError,
)
from hintegral.hvalue import INF, ZERO, ExtRat, HValue, add, mul, sum_finite
from hintegral.space import (
    AtomSet,
    AtomSpace,
    IntervalSet,
    IntervalSpace,
    set_from_json,
    space_from_json,
)
from hintegral.integral import (
    PiecewiseFn,
    PiecewisePiece,
    SimpleFn,
    T4Certificate,
    Witness,
    constant_fn,
    function_from_json,
    integrate,
    integrate_simple,
    pointwise_add_fn,
    restrict,
    sublevel_set,
    verify_certificate,
)
from hintegral.oracle import graded_integral, integrate_ordinary, scaled_embedding

H = HValue.of

UNIT = IntervalSpace.of(0, 1, dim_offset=1)


def piecewise(*pieces):
    return PiecewiseFn.of(list(pieces))


def value_at(f: PiecewiseFn, x: F) -> HValue:
    """The exact value of f, whose coordinates are polynomials, at a
    rational point x; (0, 0) off every piece."""
    return next(
        (
            HValue(exprs.poly_eval(p.pi1.coeffs, x), ExtRat(exprs.poly_eval(p.pi2.coeffs, x)))
            for p in f.pieces
            if p.lo < x < p.hi
        ),
        ZERO,
    )


class TestSimpleIntegral:
    def test_weighted_sum(self):
        sp = AtomSpace.of({"a": H(1, 2), "b": H(0, 3)})
        f = SimpleFn.of([(H(0, 5), AtomSet.of("a")), (H(2, 1), AtomSet.of("b"))])
        # (0,5)(1,2) + (2,1)(0,3) = (1,10) + (2,3) = (2,3)
        assert integrate_simple(sp, f) == H(2, 3)

    def test_refinement_invariance(self):
        sp = AtomSpace.of({"a": H(1, 2), "b": H(1, 3)})
        coarse = SimpleFn.of([(H(1, 1), AtomSet.of("a", "b"))])
        fine = SimpleFn.of(
            [(H(1, 1), AtomSet.of("a")), (H(1, 1), AtomSet.of("b"))]
        )
        assert integrate_simple(sp, coarse) == integrate_simple(sp, fine)

    def test_disjointness_enforced(self):
        # the constructor checks, so no function with overlapping pieces exists
        with pytest.raises(NonDisjointError):
            SimpleFn(((H(1, 1), AtomSet.of("a")), (H(2, 1), AtomSet.of("a"))), False)

    def test_piecewise_disjointness_enforced(self):
        def direct(*bounds):
            one = exprs.const(1)
            return PiecewiseFn(tuple(PiecewisePiece(F(a), F(b), one, one) for a, b in bounds))

        with pytest.raises(NonDisjointError):
            direct((0, F(1, 2)), (F(1, 4), 1))
        with pytest.raises(NonDisjointError):  # disjoint, but out of order
            direct((F(1, 2), 1), (0, F(1, 2)))
        with pytest.raises(ValueError):
            direct((F(1, 2), F(1, 2)))
        assert value_at(direct((0, F(1, 2)), (F(1, 2), 1)), F(3, 4)) == H(1, 1)

    def test_simple_rejects_infinite_coeff(self):
        with pytest.raises(ValueError):
            SimpleFn.of([(HValue(F(1), INF), AtomSet.of("a"))])
        # but i-simple functions allow it
        SimpleFn.of([(HValue(F(1), INF), AtomSet.of("a"))], i_simple=True)

    def test_empty_function(self):
        sp = AtomSpace.of({"a": H(1, 2)})
        assert integrate_simple(sp, SimpleFn.of([])) == ZERO

    @pytest.mark.parametrize(
        "sp, sets, then",
        [
            (AtomSpace.of({"a": H(0, 1), "b": H(1, 2), "c": H(1, 1)}),
             [AtomSet.of("a"), AtomSet.of("b"), AtomSet.of("c")], []),
            # the membership check measures the three piece sets, then the
            # lowered function's closed form measures the union of its three runs
            (IntervalSpace.of(0, 1),
             [IntervalSet.of([(0, F(1, 4))]), IntervalSet.of([(F(1, 4), F(1, 2))]),
              IntervalSet.of([(F(1, 2), 1)])],
             [IntervalSet.of([(0, F(1, 4)), (F(1, 4), F(1, 2)), (F(1, 2), 1)])]),
        ],
        ids=["atoms", "interval"],
    )
    def test_integrate_measures_each_piece_once(self, monkeypatch, sp, sets, then):
        # the value and the witnesses come from one pass over the pieces
        calls = []
        for cls in (AtomSpace, IntervalSpace):
            measure = cls.measure
            monkeypatch.setattr(
                cls, "measure", lambda self, s, measure=measure: calls.append(s) or measure(self, s)
            )
        f = SimpleFn.of([(H(1, k + 1), s) for k, s in enumerate(sets)])
        value, cert = integrate(sp, f)
        assert value != ZERO and cert.m_witnesses
        assert calls == sets + then


class TestWorkedExamples:
    def test_root_sequence_has_mass_zero(self):
        # f_n(x) = (x^(1/n), x^(1/n)): dimension sup 1 unattained
        for n in (1, 2, 3):
            root = exprs.power(F(1, n))
            v, cert = integrate(UNIT, piecewise((0, 1, root, root)))
            assert v == H(2, 0)
            assert verify_certificate(UNIT, piecewise((0, 1, root, root)), cert)

    def test_limit_constant(self):
        f = constant_fn(0, 1, H(1, 1))
        v, cert = integrate(UNIT, f)
        assert v == H(2, 1)
        assert verify_certificate(UNIT, f, cert)

    def test_minorant_value_below_sup(self):
        # s(x) = (1-eps, 0) near the right end integrates to (2-eps, 0)
        eps = F(1, 4)
        f = piecewise((1 - eps, 1, exprs.const(1 - eps), exprs.const(0)))
        v, _ = integrate(UNIT, f)
        assert v == H(2 - eps, 0)

    def test_zero_function(self):
        v, _ = integrate(UNIT, piecewise((0, 1, exprs.const(0), exprs.const(0))))
        assert v == ZERO


class TestIntervalEvaluation:
    def test_mass_integral_with_density(self):
        # constant (0, 1) against density 2x: mass = int_0^1 2x dx = 1
        sp = IntervalSpace.of(0, 1, dim_offset=1, density=(0, 2))
        v, _ = integrate(sp, constant_fn(0, 1, H(0, 1)))
        assert v == H(1, 1)

    def test_top_pieces_only(self):
        f = piecewise(
            (0, F(1, 2), exprs.const(1), exprs.const(3)),
            (F(1, 2), 1, exprs.const(2), exprs.const(5)),
        )
        v, cert = integrate(UNIT, f)
        # only the dimension-2 piece contributes mass: 5 * 1/2
        assert v == H(3, "5/2")
        assert verify_certificate(UNIT, f, cert)

    def test_polynomial_mass(self):
        f = piecewise((0, 1, exprs.const(1), exprs.poly([0, 0, 3])))
        v, cert = integrate(UNIT, f)
        assert v == H(2, 1)  # int 3x^2 = 1
        # one witness carries the piece's exact mass, 1 over the measure 1
        (w,) = cert.m_witnesses
        assert w.inf_bound == H(1, 1)
        assert cert.exact_m and cert.achieved_m == v.m
        assert verify_certificate(UNIT, f, cert)

    def test_power_mass(self):
        # pi2 = x^(1/2) on (0,1): mass = 2/3
        f = piecewise((0, 1, exprs.const(1), exprs.power(F(1, 2))))
        v, _ = integrate(UNIT, f)
        assert v == H(2, "2/3")

    def test_zero_dimension_with_positive_mass(self):
        sp = IntervalSpace.of(0, 1)
        v, cert = integrate(sp, constant_fn(0, 1, H(0, 2)))
        assert v == H(0, 2)
        assert verify_certificate(sp, constant_fn(0, 1, H(0, 2)), cert)

    def test_restriction(self):
        f = constant_fn(0, 1, H(1, 1))
        v, _ = integrate(UNIT, restrict(f, IntervalSet.of([(0, F(1, 2))])))
        assert v == H(2, "1/2")

    def test_restriction_to_null_set(self):
        f = constant_fn(0, 1, H(1, 1))
        v, _ = integrate(UNIT, restrict(f, IntervalSet.of(points=[F(1, 2)])))
        assert v == ZERO

    def test_irrational_sup_raises(self):
        sp = IntervalSpace.of(0, 2, dim_offset=1)
        f = piecewise((0, 2, exprs.power(F(1, 2)), exprs.const(1)))
        with pytest.raises(UnsupportedExpressionError):
            integrate(sp, f)

    def test_a_null_space_is_decided_before_any_supremum(self):
        # under the zero density every set is null, so the irrational
        # supremum of x**(1/2) on (0, 2) never enters; under density 1 it does
        root = exprs.power(F(1, 2))
        f = piecewise((0, 2, root, root))
        null = IntervalSpace.of(0, 2, density=(0,))
        value, cert = integrate(null, f)
        assert (value, cert) == (ZERO, T4Certificate(ZERO))
        assert verify_certificate(null, f, cert)
        with pytest.raises(UnsupportedExpressionError, match=r"^sup of pi1 on \(0, 2\) is irrational$"):
            integrate(IntervalSpace.of(0, 2), f)

    def test_dominated_irrational_sup(self):
        # sqrt(2) on (0, 2) stays below 5 on (2, 4), so the value is rational
        sp = IntervalSpace.of(0, 4)
        root, one = exprs.power(F(1, 2)), exprs.const(1)
        f = piecewise((0, 2, root, one), (2, 4, exprs.const(5), one))
        v, cert = integrate(sp, f)
        assert v == H(5, 2)
        # the run (2, 4) certifies both coordinates: mass 2 over the measure 2
        (w,) = cert.d_witnesses
        assert (w.where, w.inf_bound) == (IntervalSet.of([(2, 4)]), H(5, 1))
        assert cert.m_witnesses == (w,)
        assert verify_certificate(sp, f, cert)
        # but not below 1: the supremum of f's dimension is sqrt(2)
        with pytest.raises(UnsupportedExpressionError):
            integrate(sp, piecewise((0, 2, root, one), (2, 4, one, one)))


points = st.fractions(min_value=0, max_value=4, max_denominator=8)
inner = points.filter(lambda x: 0 < x < 4)


def _through(lo, hi, u, w):
    """The affine map with the values u at lo and w at hi."""
    b = (w - u) / (hi - lo)
    return exprs.affine(u - b * lo, b)


@st.composite
def densities(draw):
    """On (0, 4): a positive constant times (x - r)**2 for up to two
    interior r, and maybe x and 4 - x; or the zero density."""
    if draw(st.integers(0, 4)) == 0:
        return (0,)
    coeffs = (draw(st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)),)
    for r in draw(st.lists(inner, max_size=2)):
        coeffs = exprs.poly_mul(coeffs, (r * r, -2 * r, 1))
    for end in ((0, 1), (4, -1)):
        if draw(st.booleans()):
            coeffs = exprs.poly_mul(coeffs, end)
    return coeffs


@st.composite
def functions(draw):
    """Pieces of (0, 4), some left as gaps, with a constant or affine
    dimension and a mass of degree <= 2, both nonnegative."""
    ends = sorted({F(0), F(4)} | set(draw(st.lists(inner, max_size=4))))
    nonneg = st.fractions(min_value=0, max_value=3, max_denominator=4)
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        if draw(st.booleans()):
            continue
        u = draw(nonneg)
        pi1 = _through(lo, hi, u, draw(st.one_of(st.just(u), nonneg)))
        if draw(st.booleans()):
            pi2 = _through(lo, hi, draw(nonneg), draw(nonneg))
        else:  # k * (x - r)**2 + m
            k, r, m = draw(nonneg), draw(points), draw(nonneg)
            pi2 = exprs.poly([k * r * r + m, -2 * k * r, k])
        pieces.append((lo, hi, pi1, pi2))
    return PiecewiseFn.of(pieces)


class TestPositiveDensity:
    """A nonnegative density that is not the zero polynomial gives every
    open interval positive measure, so the integral ignores no piece."""

    @settings(max_examples=150, deadline=None)
    @given(densities(), functions(), st.data())
    def test_no_piece_is_null(self, density, f, data):
        sp = IntervalSpace.of(0, 4, density=density)
        a, b = sorted(data.draw(st.lists(points, min_size=2, max_size=2, unique=True)))
        measure = sp.measure(IntervalSet.of([(a, b)]))
        v, cert = integrate(sp, f)
        if any(density):
            assert measure > ZERO
            assert all(w.measure > ZERO for w in cert.d_witnesses + cert.m_witnesses)
        else:
            assert measure == ZERO
            assert (v, cert) == (ZERO, T4Certificate(ZERO))
        assert verify_certificate(sp, f, cert)
        c = data.draw(inner)
        halves = [integrate(sp, restrict(f, IntervalSet.of([iv])))[0] for iv in ((0, c), (c, 4))]
        assert add(*halves) == v


class TestLowerDimensionFails:
    """Every certificate proves the value's dimension from below exactly,
    whether or not the supremum is attained."""

    @settings(max_examples=150, deadline=None)
    @given(densities(), functions(), st.fractions(min_value=F(1, 64), max_value=1, max_denominator=64))
    def test_lowered_dimension_is_rejected(self, density, f, delta):
        sp = IntervalSpace.of(0, 4, dim_offset=1, density=density)
        v, cert = integrate(sp, f)
        assume(v != ZERO)
        assert verify_certificate(sp, f, cert)
        assert not verify_certificate(sp, f, replace(cert, value=HValue(v.d - delta, v.m)))


class TestExactMass:
    """Every certificate carries the value's mass exactly: its mass
    witnesses add up to that mass, so any other mass fails."""

    @settings(max_examples=150, deadline=None)
    @given(
        densities(),
        functions(),
        st.fractions(min_value=-4, max_value=4, max_denominator=64).filter(lambda x: x != 0),
    )
    def test_moved_mass_is_rejected(self, density, f, delta):
        sp = IntervalSpace.of(0, 4, dim_offset=1, density=density)
        v, cert = integrate(sp, f)
        assert cert.exact_m and cert.achieved_m == v.m
        assert verify_certificate(sp, f, cert)
        moved = HValue(v.d, v.m + ExtRat(delta))
        assert not verify_certificate(sp, f, replace(cert, value=moved))
        assert not verify_certificate(sp, f, replace(cert, value=moved, achieved_m=moved.m))


def ref_closed_form(sp, f):
    """The closed form as a value alone: (0, 0) without a piece or a
    density, and when s = 0 and the mass is 0; else (o + s, the sum of
    the masses of the pieces where pi1 is the constant s)."""
    if not f.pieces or not any(sp.density.coeffs):
        return ZERO
    s = max(exprs.sup_on(p.pi1, p.lo, p.hi) for p in f.pieces)
    mass = sum(
        (exprs.weighted_integral(p.pi2, sp.density, p.lo, p.hi)
         for p in f.pieces if p.pi1 == exprs.const(s)),
        F(0),
    )
    if s == 0 and mass == 0:
        return ZERO
    return HValue(sp.dim_offset + s, ExtRat(mass))


# two runs at the top dimension 2, apart; and at s = 0 a run of mass 0
# beside a run of mass 3, whose term alone is nonzero
TWO_RUNS = piecewise(
    (0, 1, exprs.const(2), exprs.const(1)), (2, 3, exprs.const(2), exprs.affine(0, 1))
)
ZERO_BESIDE_MASS = piecewise(
    (0, 1, exprs.const(0), exprs.const(0)), (1, 2, exprs.const(0), exprs.const(3))
)


class TestTopTerms:
    """A piecewise function's value is the sum of its top terms, and the
    nonzero ones at its dimension are its witnesses, in both lists."""

    @settings(max_examples=200, deadline=None)
    @given(densities(), functions(), st.sampled_from([0, 1]))
    @example((1,), TWO_RUNS, 1)
    @example((1,), ZERO_BESIDE_MASS, 0)
    def test_value_and_witnesses_are_the_top_terms(self, density, f, offset):
        sp = IntervalSpace.of(0, 4, dim_offset=offset, density=density)
        v, cert = integrate(sp, f)
        assert v == ref_closed_form(sp, f)
        assert cert.d_witnesses == cert.m_witnesses
        for w in cert.m_witnesses:
            term = mul(w.inf_bound, w.measure)
            assert not term.is_zero and term.d == v.d
        assert verify_certificate(sp, f, cert)


@st.composite
def powered(draw):
    """functions(), with x**q in place of some pieces' coordinates."""
    powers = st.sampled_from([F(1, 2), F(3, 2), F(2, 3)]).map(exprs.power)
    pieces = []
    for p in draw(functions()).pieces:
        pi1, pi2 = (draw(powers) if draw(st.booleans()) else e for e in (p.pi1, p.pi2))
        pieces.append((p.lo, p.hi, pi1, pi2))
    return PiecewiseFn.of(pieces)


def _root(x, r):
    """The rational r-th root of x >= 0, or None."""
    n, d = (round(k ** (1 / r)) for k in (x.numerator, x.denominator))
    return F(n, d) if F(n, d) ** r == x else None


def _pow(x, q):
    """x**q for x >= 0 and a rational q > 0, or None where it is irrational."""
    root = _root(x, F(q).denominator)
    return None if root is None else root ** F(q).numerator


def _value(e, x):
    """e(x), or None where it is irrational."""
    if isinstance(e, exprs.Power):
        return _pow(x, e.q)
    return sum(k * x**i for i, k in enumerate(e.coeffs))


def _sign_at(e, x, c):
    """The sign of e(x) - c for c >= 0: x**(p/r) against c as x**p against c**r."""
    if isinstance(e, exprs.Power):
        lhs, rhs = x ** e.q.numerator, c ** e.q.denominator
    else:
        lhs, rhs = _value(e, x), c
    return (lhs > rhs) - (lhs < rhs)


def _mass(cells, density):
    """The integral of e * density over the cells (e, a, c), from the
    antiderivative of each term at the cells' ends, or None where it is
    irrational.  Equal terms at a shared end cancel first, so a piece
    cut in two keeps the rational mass of the whole."""
    ends = Counter()  # (x, r) -> the coefficient of x**r
    for e, a, c in cells:
        terms = [(e.q, F(1))] if isinstance(e, exprs.Power) else list(enumerate(e.coeffs))
        for n, coeff in terms:
            for k, w in enumerate(density):
                r = n + k + 1
                ends[c, r] += coeff * w / r
                ends[a, r] -= coeff * w / r
    total = F(0)
    for (x, r), coeff in ends.items():
        if coeff:
            value = _pow(x, r)
            if value is None:
                return None
            total += coeff * value
    return total


def _dec(x):
    return Decimal(x.numerator) / Decimal(x.denominator)


def _approx_mass(e, density, a, c):
    """The integral of e * density over (a, c), in the current Decimal context."""
    terms = [(e.q, F(1))] if isinstance(e, exprs.Power) else list(enumerate(e.coeffs))
    return sum(
        _dec(coeff * w) * (_dec(c) ** _dec(r) - _dec(a) ** _dec(r)) / _dec(r)
        for n, coeff in terms
        for k, w in enumerate(density)
        for r in [F(n + k + 1)]
    )


def _cells(f, ivs):
    """The cells (p, a, c) where the intervals ivs meet the pieces p of f."""
    return [
        (p, max(p.lo, a), min(p.hi, c))
        for a, c in ivs
        for p in f.pieces
        if max(p.lo, a) < min(p.hi, c)
    ]


def _claim(cells, b, density, nu):
    """Whether the integral of f over a set of ordinary measure nu, which
    meets the pieces in the given cells, reaches b times the set's
    measure.  An irrational mass is compared to 80 digits, and a claim
    within 1e-50 of it is None, undecided.  The set's points are null.
    The dimension's supremum on a cell is its larger end value; where
    the largest of those is b.d, the mass is that of pi2 * density over
    the cells where pi1 is the constant b.d."""
    signs = [[_sign_at(p.pi1, x, b.d) for x in (a, c)] for p, a, c in cells]
    top = max((max(s) for s in signs), default=-1)
    if top != 0 or b.m.sign() <= 0:
        return top >= 0
    if not b.m.is_finite:
        return False
    tops = [(p.pi2, a, c) for (p, a, c), s in zip(cells, signs) if s == [0, 0]]
    mass = _mass(tops, density)
    if mass is not None:
        return mass >= b.m.frac * nu
    with localcontext() as ctx:
        ctx.prec = 80
        gap = sum(_approx_mass(e, density, a, c) for e, a, c in tops) - _dec(b.m.frac * nu)
    return None if abs(gap) < Decimal(10) ** -50 else gap > 0


@st.composite
def witness_sets(draw, f):
    """One to four intervals of (0, 4) between neighbouring cuts, some of
    them touching, with cuts drawn among eighths, the ends of f's pieces
    and the sevenths inside them, so that they cross piece ends and gaps
    and cut pieces in two; sometimes a point."""
    ends = sorted({x for p in f.pieces for x in (p.lo, p.hi)})
    sevenths = st.sampled_from(f.pieces).flatmap(
        lambda p: st.integers(1, 6).map(lambda k: p.lo + (p.hi - p.lo) * k / 7)
    )
    cut = st.one_of(points, st.sampled_from(ends), sevenths)
    cuts = sorted(draw(st.lists(cut, min_size=2, max_size=5, unique=True)))
    keep = draw(st.lists(st.booleans(), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    assume(any(keep))
    ivs = [iv for iv, k in zip(zip(cuts, cuts[1:]), keep) if k]
    pts = [x for x in draw(st.lists(inner, max_size=1)) if not any(a < x < c for a, c in ivs)]
    return IntervalSet.of(ivs, pts)


class TestWitnessClaims:
    """A one-witness certificate verifies exactly when its claim holds,
    decided from the closed form of the integral summed over the cells
    where the witness set meets the pieces."""

    @settings(max_examples=200, deadline=None)
    @given(densities().filter(any), powered(), st.sampled_from([0, 1]), st.data())
    def test_verifies_exactly_when_the_claim_holds(self, density, f, offset, data):
        assume(f.pieces)
        sp = IntervalSpace.of(0, 4, dim_offset=offset, density=density)
        where = data.draw(witness_sets(f))
        cells = _cells(f, where.intervals)
        nu = _mass([(exprs.const(1), a, c) for a, c in where.intervals], density)
        # the dimension's end values, the largest most often, and the
        # mass's average make the ties
        at_ends = [v for p, a, c in cells for x in (a, c) if (v := _value(p.pi1, x)) is not None]
        d = data.draw(st.fractions(min_value=0, max_value=4, max_denominator=8))
        d = data.draw(st.sampled_from([d, *at_ends, *[max(at_ends, default=d)] * len(at_ends)]))
        level = _mass([(p.pi2, a, c) for p, a, c in cells if p.pi1 == exprs.const(d)], density)
        average = [] if level is None else [ExtRat(level / nu)]
        m = ExtRat(data.draw(st.fractions(min_value=-1, max_value=4, max_denominator=8)))
        m = data.draw(st.sampled_from([m, m, INF, -INF, *average * 2]))
        b = HValue(d, m)
        assume(b > ZERO)
        holds = _claim(cells, b, density, nu)
        assume(holds is not None)
        w = Witness(where, sp.measure(where), b)
        cert = T4Certificate(HValue(b.d + w.measure.d, ExtRat(0)), (w,), (), True, ExtRat(0))
        assert verify_certificate(sp, f, cert) == holds


class TestCutPieces:
    """Cutting a piece in two at a rational inner point changes neither
    the function nor its integral: the halves of a top piece join into
    one run, so an irrational power at the cut cancels."""

    @settings(max_examples=200, deadline=None)
    @given(densities(), powered(), st.sampled_from([0, 1]), st.data())
    def test_a_cut_piece_keeps_the_value(self, density, f, offset, data):
        assume(f.pieces)
        sp = IntervalSpace.of(0, 4, dim_offset=offset, density=density)
        try:
            v, _ = integrate(sp, f)
        except UnsupportedExpressionError:
            reject()
        k = data.draw(st.integers(0, len(f.pieces) - 1))
        p = f.pieces[k]
        t = p.lo + (p.hi - p.lo) * data.draw(st.integers(1, 6)) / 7
        cut = PiecewiseFn(f.pieces[:k] + (replace(p, hi=t), replace(p, lo=t)) + f.pieces[k + 1 :])
        u, cert = integrate(sp, cut)
        assert u == v
        assert verify_certificate(sp, cut, cert)


values = st.builds(
    HValue.of, st.sampled_from([0, F(1, 2), 1, 2]), st.sampled_from([0, F(1, 2), 1, 3, "inf"])
)


class TestAtomWitnessClaims:
    """On an atom space a one-witness certificate verifies exactly when
    the defining sum over the witness set reaches the bound times the
    set's measure."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_verifies_exactly_when_the_sum_reaches_the_bound(self, data):
        atoms = "abcd"
        sp = AtomSpace.of({a: data.draw(values) for a in atoms})
        # each atom lies in one of three pieces or in none
        piece_of = {a: data.draw(st.sampled_from([0, 1, 2, None])) for a in atoms}
        coeffs = [data.draw(values) for _ in range(3)]
        sets = [AtomSet(frozenset(a for a in atoms if piece_of[a] == k)) for k in range(3)]
        f = SimpleFn.of([(c, s) for c, s in zip(coeffs, sets) if s.atoms], i_simple=True)
        where = AtomSet(frozenset(data.draw(st.sets(st.sampled_from(atoms), min_size=1))))
        mu = sp.measure(where)
        total = sum_finite(mul(f.value_at(a), sp.weights[a]) for a in where.atoms)
        m = data.draw(st.sampled_from([ExtRat(-1), -INF, ExtRat(F(1, 2))]))
        bounds = [data.draw(values), HValue(F(1, 2), m), *coeffs]
        if total.d >= mu.d and total.m.is_finite and mu.m.is_finite and mu.m.sign() > 0:
            # the bound that makes the claim an equality
            bounds.append(HValue(total.d - mu.d, ExtRat(total.m.frac / mu.m.frac)))
        b = data.draw(st.sampled_from(bounds))
        assume(b > ZERO and mu != ZERO)
        w = Witness(where, mu, b)
        cert = T4Certificate(HValue(b.d + mu.d, ExtRat(0)), (w,), (), True, ExtRat(0))
        assert verify_certificate(sp, f, cert) == (total >= mul(b, mu))


class TestSimpleCertificates:
    """A simple function's witnesses are the terms of its sum that reach
    the value: each piece, in order, with a nonzero coefficient and a
    nonzero measure whose dimensions add up to the value's, in both lists."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_witnesses_are_the_top_terms(self, data):
        atoms = "abcdef"[: data.draw(st.integers(1, 6))]
        sp = AtomSpace.of({a: data.draw(values) for a in atoms})
        # each atom lies in one of four pieces or in none
        piece_of = {a: data.draw(st.sampled_from([0, 1, 2, 3, None])) for a in atoms}
        sets = [AtomSet(frozenset(a for a in atoms if piece_of[a] == k)) for k in range(4)]
        f = SimpleFn.of([(data.draw(values), s) for s in sets if s.atoms], i_simple=True)
        value, cert = integrate(sp, f)
        assert value == integrate_simple(sp, f)
        if value == ZERO:
            assert cert == T4Certificate(ZERO)
        top = tuple(
            Witness(s, mu, c)
            for c, s in f.pieces
            if not c.is_zero and (mu := sp.measure(s)) != ZERO and c.d + mu.d == value.d
        )
        assert cert.d_witnesses == cert.m_witnesses == top
        assert cert.value == value and cert.achieved_m == value.m
        assert verify_certificate(sp, f, cert)


HALF_SQUARE = exprs.poly([F(1, 4), -1, 1])  # (x - 1/2)**2, whose double root 1/2 is inside (0, 1)
TOP = exprs.const(2)
# Each function, on (0, 1) with dimension offset 1, is integrated under the
# densities 1, 1/2 + x and (x - 1/2)**2 (degrees 0-2); every mass is rational.
CERT_DENSITIES = [(1,), (F(1, 2), 1), (F(1, 4), -1, 1)]
CERT_FUNCTIONS = {
    "const": [(0, 1, TOP, exprs.const(F(3, 2)))],
    "affine": [(0, F(1, 2), TOP, exprs.affine(F(1, 4), 2)), (F(1, 2), 1, exprs.affine(0, 1), exprs.const(1))],
    "root": [(F(1, 4), 1, TOP, exprs.power(F(1, 2))), (0, F(1, 4), exprs.power(F(1, 2)), exprs.const(3))],
    "square": [(0, F(1, 2), TOP, exprs.poly([1, 0, 1])), (F(1, 2), 1, exprs.power(F(1, 2)), HALF_SQUARE)],
    "across_root": [
        (0, F(1, 3), TOP, HALF_SQUARE),
        (F(1, 3), F(2, 3), TOP, HALF_SQUARE),
        (F(3, 4), 1, TOP, exprs.affine(1, -1)),
    ],
}
# SHA-256 of the lines json.dumps(cert.to_json(), sort_keys=True), one per
# density in CERT_DENSITIES order: a change to reading, the sign tests, the
# suprema or the mass integrals that alters a certificate fails here.
CERT_SHA256 = {
    "const": "21ab0af499d17d2b988328777635e67e1874c020a8dee74f9fd30989ed62ccb9",
    "affine": "dfb21c066233780b2e26a11f2ca0ee1bb5a33c641cb0304a76467ccc84811f87",
    "root": "f0d5ffd6105167bc665a901ff4ece621c58c5d9d90c22e2920a23e4ca7ba8341",
    "square": "62e37371fbc72c83f2ca2ecf72b71645c1575ead4258d80183bb3f1010520be5",
    "across_root": "9c16a0891fc5309cd9326c18cf70f24909157cbb03faedc7ddaece887aa757d0",
}

INTERVAL_SHA256 = "88a0ef89b991cc2186603e716467a87053380185f4627b366f62183aada01693"
ROOT = Path(__file__).resolve().parent.parent


class TestPinnedCertificates:
    @pytest.mark.parametrize("name", CERT_FUNCTIONS)
    def test_certificates_are_byte_identical(self, name):
        f = PiecewiseFn.of(CERT_FUNCTIONS[name])
        digest = hashlib.sha256()
        for density in CERT_DENSITIES:
            sp = IntervalSpace.of(0, 1, dim_offset=1, density=density)
            _, cert = integrate(sp, f)
            assert verify_certificate(sp, f, cert)
            digest.update(json.dumps(cert.to_json(), sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == CERT_SHA256[name]

    def test_interval_workload_certificates_are_byte_identical(self):
        # the benchmark's 180 interval operations (seeds 101-103, cycles 0-3),
        # read from JSON text as the benchmark reads them; its generator
        # imports nothing from hintegral
        spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        digest = hashlib.sha256()
        ops = [op for seed in (101, 102, 103) for cycle in range(4) for op in gen.interval_cycle(seed, cycle)]
        for op in ops:
            sp = space_from_json(json.loads(json.dumps(op["space"])))
            f = function_from_json(json.loads(json.dumps(op["function"])))
            value, cert = integrate(sp, f)
            assert str(value) == op["value"] and verify_certificate(sp, f, cert)
            digest.update(json.dumps(cert.to_json(), sort_keys=True).encode())
        assert len(ops) == 180
        assert digest.hexdigest() == INTERVAL_SHA256


class TestWitnessLists:
    """Hand-built witness lists on TWO_RUNS, whose runs (0, 1) and (2, 3)
    reach dimension 3 over the space (0, 3) with masses 1 and 5/2: every
    claim is checked once, and the mass is added up over m_witnesses.
    :func:`integrate` writes the one witness on their union; these are the
    witnesses of the two runs apart."""

    SPACE = IntervalSpace.of(0, 3, dim_offset=1)
    RUNS = (
        Witness(IntervalSet.of([(0, 1)]), H(1, 1), H(2, 1)),
        Witness(IntervalSet.of([(2, 3)]), H(1, 1), H(2, F(5, 2))),
    )

    @pytest.mark.parametrize("pick, mass, verdict", [
        pytest.param(lambda d: tuple(replace(w) for w in d), F(7, 2), True, id="equal"),
        pytest.param(lambda d: d[::-1], F(7, 2), True, id="reordered"),
        pytest.param(lambda d: d[:1], F(7, 2), False, id="subset-missing-mass"),
        pytest.param(lambda d: d[1:], F(5, 2), True, id="subset-of-its-mass"),
        # the masses add up to 9/2, so only the disjointness of the union refuses it
        pytest.param(lambda d: d + d[:1], F(9, 2), False, id="listed-twice"),
        # (0, 1) has measure (1, 1), not (1, 2): a claim of m_witnesses alone is checked too
        pytest.param(lambda d: (replace(d[0], measure=H(1, 2), inf_bound=H(2, F(7, 4))),), F(7, 2), False,
                     id="mass-claim-not-in-d"),
    ])
    def test_verdict(self, pick, mass, verdict):
        m_witnesses = pick(self.RUNS)
        forged = T4Certificate(H(3, mass), self.RUNS, m_witnesses, True, ExtRat(mass))
        assert verify_certificate(self.SPACE, TWO_RUNS, forged) is verdict

    def test_a_false_claim_in_equal_lists_fails(self):
        # each list holds a witness whose measure is doubled
        wits = (replace(self.RUNS[0], measure=H(1, 2)),) + self.RUNS[1:]
        forged = T4Certificate(H(3, F(7, 2)), wits, wits, True, ExtRat(F(7, 2)))
        assert not verify_certificate(self.SPACE, TWO_RUNS, forged)


def _top_runs(rng, s, zero_mass=False):
    """A piecewise function on (0, 16) with two to four runs of pieces where pi1 is
    the constant s, each run one or two touching pieces with one pi2 of its own (the
    constant 0 under ``zero_mass``), apart by gaps or, when s > 0, by pieces whose
    pi1 stays below s; with the runs as (lo, hi, pi2)."""
    top, pieces, runs, x = exprs.const(s), [], [], F(0)

    def step():
        return rng.choice([F(1, 4), F(1, 2), F(1)])

    for k in range(rng.randint(2, 4)):
        # a separator before every run but the first, and maybe before that one too
        if k or rng.random() < 0.5:
            hi = x + step()
            if s > 0 and rng.random() < 0.5:
                pi1 = rng.choice([exprs.const(s / 2), _through(x, hi, F(0), s / 2)])
                pieces.append((x, hi, pi1, exprs.const(rng.randint(0, 5))))
            x = hi
        pi2 = exprs.const(0) if zero_mass else exprs.affine(k + 1, rng.choice([0, F(1, 2), 1]))
        lo = x
        for _ in range(rng.randint(1, 2)):
            pieces.append((x, x + step(), top, pi2))
            x = pieces[-1][1]
        runs.append((lo, x, pi2))
    return PiecewiseFn.of(pieces), runs


class TestOneWitness:
    """On an interval space every top run has the bound dimension s and the
    measure dimension of the space's offset, so :func:`integrate` writes one
    witness on their union, with the sum of their masses."""

    DENSITIES = [(1,), (F(1, 2), 1), (4, -4, 1)]  # 1, 1/2 + x and (x - 2)**2 on (0, 16)

    @pytest.mark.parametrize("seed", range(40))
    def test_the_top_runs_are_one_witness(self, seed):
        rng = random.Random(seed)
        sp = IntervalSpace.of(0, 16, dim_offset=rng.randint(0, 1), density=rng.choice(self.DENSITIES))
        s = rng.choice([F(0), F(1, 2), F(1), F(2)])
        f, runs = _top_runs(rng, s)
        masses = [exprs.weighted_integral(pi2, sp.density, lo, hi) for lo, hi, pi2 in runs]
        v, cert = integrate(sp, f)
        assert v == HValue(sp.dim_offset + s, ExtRat(sum(masses)))
        (w,) = cert.d_witnesses
        assert cert.m_witnesses == cert.d_witnesses
        assert w.where == IntervalSet.of([(lo, hi) for lo, hi, _ in runs])
        assert w.inf_bound.d == s and w.inf_bound.m * ExtRat(sp.nu(w.where)) == v.m
        assert verify_certificate(sp, f, cert)
        # the same certificate with one witness per run, each with its run's exact mass
        split = []
        for (lo, hi, _), m in zip(runs, masses):
            where = IntervalSet.of([(lo, hi)])
            split.append(Witness(where, sp.measure(where), HValue(s, ExtRat(m / sp.nu(where)))))
        split = tuple(split)
        assert verify_certificate(sp, f, replace(cert, d_witnesses=split, m_witnesses=split))
        # a merged bound whose mass is raised by 10**-20 is a false claim
        raised = replace(w, inf_bound=HValue(s, w.inf_bound.m + ExtRat(F(1, 10**20))))
        assert not f.claim_holds(sp, raised)
        mass = raised.inf_bound.m * w.measure.m
        forged = T4Certificate(HValue(v.d, mass), (raised,), (raised,), True, mass)
        assert not verify_certificate(sp, f, forged)

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_mass_runs_at_dimension_zero_give_no_witness(self, seed):
        rng = random.Random(seed)
        f, _ = _top_runs(rng, F(0), zero_mass=True)
        sp = IntervalSpace.of(0, 16, density=rng.choice(self.DENSITIES))
        v, cert = integrate(sp, f)
        assert v == ZERO and cert.d_witnesses == cert.m_witnesses == ()
        assert verify_certificate(sp, f, cert)


class TestCertificates:
    def test_unattained_sup_has_one_exact_witness(self):
        # x and 1 - x tend to 1 at one end of (0, 1); x**(3/2) tends to 8
        # at 4, and crosses every rational level below 8 at an irrational x
        cases = [
            (UNIT, exprs.affine(0, 1), H(2, 0)),
            (UNIT, exprs.affine(1, -1), H(2, 0)),
            (IntervalSpace.of(0, 4, dim_offset=1), exprs.power(F(3, 2)), H(9, 0)),
        ]
        for sp, pi1, value in cases:
            f = piecewise((sp.lo, sp.hi, pi1, exprs.const(1)))
            v, cert = integrate(sp, f)
            assert v == value
            (w,) = cert.d_witnesses
            assert w.where == IntervalSet.of([(sp.lo, sp.hi)])
            assert w.inf_bound == HValue(v.d - 1, ExtRat(0))
            assert w.inf_bound.d + w.measure.d == v.d
            assert verify_certificate(sp, f, cert)

    @pytest.mark.parametrize("d", [F(15, 8), F(19, 10)])
    def test_dimension_below_an_unattained_sup_fails(self, d):
        f = piecewise((0, 1, exprs.affine(0, 1), exprs.const(1)))
        _, cert = integrate(UNIT, f)
        assert not verify_certificate(UNIT, f, replace(cert, value=H(d, 0)))

    def test_forged_values_fail(self):
        # f = (x, 1) has the value (2, 0), and g = (0, x**2) the value (1, 1/3)
        f = piecewise((0, 1, exprs.affine(0, 1), exprs.const(1)))
        g = piecewise((0, 1, exprs.const(0), exprs.poly([0, 0, 1])))
        (v, f_cert), (w, g_cert) = integrate(UNIT, f), integrate(UNIT, g)
        assert (v, w) == (H(2, 0), H(1, F(1, 3)))
        assert verify_certificate(UNIT, f, f_cert) and verify_certificate(UNIT, g, g_cert)
        forgeries = [
            (f, replace(f_cert, value=H(100, 0))),
            (f, T4Certificate(H(7, 0))),
            (g, replace(g_cert, value=H(1, 50), exact_m=True)),
            (g, replace(g_cert, value=H(1, 50), exact_m=False)),
        ]
        for fn, cert in forgeries:
            assert not verify_certificate(UNIT, fn, cert)

    def test_forged_dimension_bound_fails(self):
        # f = (x, 1) stays below dimension 1 on (0, 1/2), its closure included
        f = piecewise((0, 1, exprs.affine(0, 1), exprs.const(1)))
        w = Witness(IntervalSet.of([(0, F(1, 2))]), H(1, F(1, 2)), H(1, 0))
        assert not verify_certificate(UNIT, f, T4Certificate(H(2, 0), (w,), (), True, ExtRat(0)))

    def test_dimension_witness_for_mass_with_an_interior_zero(self):
        sp = IntervalSpace.of(0, 1)
        f = piecewise((0, 1, exprs.const(0), exprs.poly([F(1, 4), -1, 1])))
        v, cert = integrate(sp, f)
        assert v == H(0, F(1, 12))  # int (x - 1/2)^2 = 1/12
        assert len(cert.d_witnesses) == 1
        assert cert.d_witnesses[0].inf_bound > ZERO
        assert verify_certificate(sp, f, cert)

    def test_zero_mass_piece_gives_no_witness(self):
        # a top piece whose mass is 0 at dimension 0 bounds f by (0, 0) only
        sp = IntervalSpace.of(0, 1)
        f = piecewise(
            (0, F(1, 2), exprs.const(0), exprs.const(0)),
            (F(1, 2), 1, exprs.const(0), exprs.const(1)),
        )
        v, cert = integrate(sp, f)
        assert v == H(0, F(1, 2))
        assert all(w.inf_bound > ZERO for w in cert.m_witnesses)
        assert verify_certificate(sp, f, cert)

    def test_constant_mass_on_a_density_is_exact(self):
        sp = IntervalSpace.of(0, 1, density=(1, 2))
        f = piecewise((0, 1, exprs.const(1), exprs.const(3)))
        v, cert = integrate(sp, f)
        assert v == H(1, 6)
        assert cert.achieved_m == ExtRat(6) and cert.exact_m
        assert verify_certificate(sp, f, cert)

    def test_tampered_certificate_fails(self):
        f = constant_fn(0, 1, H(1, 1))
        v, cert = integrate(UNIT, f)
        bad = replace(cert, value=H(2, 2), achieved_m=ExtRat(2))
        assert not verify_certificate(UNIT, f, bad)

    @pytest.mark.parametrize("value_m, exact_m, achieved_m", [(100, True, 100), (100, False, 5)])
    def test_achieved_mass_without_mass_witnesses_fails(self, value_m, exact_m, achieved_m):
        # f = (1, 1) has the value (2, 1); no mass witness sums to 0, not achieved_m
        f = constant_fn(0, 1, H(1, 1))
        cert = T4Certificate(H(2, value_m), (), (), exact_m, ExtRat(achieved_m))
        assert not verify_certificate(UNIT, f, cert)

    def test_a_zero_bound_or_a_mass_witness_below_the_value_fails(self):
        # the honest certificate of (1, 1) on (0, 1), then its witness bound (0, 0), then
        # an extra witness in both lists whose claim holds but reaches dimension 0 only
        sp = IntervalSpace.of(0, 1)
        f = constant_fn(0, 1, H(1, 1))
        v, cert = integrate(sp, f)
        assert v == H(1, 1) and verify_certificate(sp, f, cert)
        (w,) = cert.d_witnesses
        zero = (replace(w, inf_bound=ZERO),)
        assert not verify_certificate(sp, f, replace(cert, d_witnesses=zero, m_witnesses=zero))
        half = IntervalSet.of([(0, F(1, 2))])
        extra = cert.d_witnesses + (Witness(half, H(0, F(1, 2)), H(0, 1)),)
        assert f.claim_holds(sp, extra[1])
        assert not verify_certificate(sp, f, replace(cert, d_witnesses=extra, m_witnesses=extra))

    def test_a_claim_between_the_bounds_of_an_irrational_mass_raises(self):
        # the mass of x**(1/2) on (0, 2) is (2/3) * 2**(3/2); a bound whose claim is
        # the midpoint of its two rational bounds is neither proved nor refuted
        sp = IntervalSpace.of(0, 2)
        root = exprs.power(F(1, 2))
        f = piecewise((0, 2, exprs.const(1), root))
        where = IntervalSet.of([(0, 2)])
        low, high = sp.integral_bounds(root, F(0), F(2))
        assert low < high
        w = Witness(where, sp.measure(where), H(1, (low + high) / 2 / sp.nu(where)))
        with pytest.raises(UnsupportedExpressionError, match="^the witness claim turns on an irrational mass$"):
            f.claim_holds(sp, w)

    def test_interval_witness_must_lie_in_pieces(self):
        # a witness reaching past the only piece is false though its midpoint is in it
        sp = IntervalSpace.of(0, 1)
        f = SimpleFn.of([(H(0, 1), IntervalSet.of([(0, F(1, 2))]))])
        w = Witness(IntervalSet.of([(0, F(7, 8))]), H(0, F(7, 8)), H(0, F(6, 7)))
        cert = T4Certificate(H(0, F(3, 4)), (w,), (w,), True, ExtRat(F(3, 4)))
        assert not verify_certificate(sp, f, cert)

    def test_witness_points_are_checked(self):
        # the point 3/4 is null, so whatever f is there, the claim is
        # that f integrates to (1, 1/2) = (1, 1) x (0, 1/2) over (0, 1/2)
        sp = IntervalSpace.of(0, 1)
        w = Witness(IntervalSet.of([(0, F(1, 2))], [F(3, 4)]), H(0, F(1, 2)), H(1, 1))
        cert = T4Certificate(H(1, F(1, 2)), (w,), (w,), True, ExtRat(F(1, 2)))
        assert verify_certificate(sp, constant_fn(0, F(1, 2), H(1, 1)), cert)
        assert verify_certificate(sp, constant_fn(0, 1, H(1, 1)), cert)
        # (1, 1) on (0, 1/4) integrates to (1, 1/4) only
        assert not verify_certificate(sp, constant_fn(0, F(1, 4), H(1, 1)), cert)

    def test_witness_point_compares_an_irrational_power_exactly(self):
        # at the cell end 2, sqrt(2) > 7/5 and sqrt(2) < 3/2, though
        # sqrt(2) is irrational
        sp = IntervalSpace.of(0, 3)
        root = exprs.power(F(1, 2))
        f = piecewise((0, 3, root, exprs.const(1)))

        def cert(bound):
            # the claimed value is the one the witness reaches
            w = Witness(IntervalSet.of([(1, 2)]), H(0, 1), bound)
            return T4Certificate(bound, (w,), (), True, ExtRat(0))

        assert verify_certificate(sp, f, cert(H(F(7, 5), 0)))
        assert not verify_certificate(sp, f, cert(H(F(3, 2), 0)))

    def test_mass_bound_above_the_bernstein_bound(self):
        # (x - 1/3)**2 + 1/50 averages 1/9 + 1/50 on (0, 1), though its
        # smallest Bernstein coefficient there is 1/9 + 1/50 - 1/3 < 0
        sp = IntervalSpace.of(0, 1)
        mass = F(1, 9) + F(1, 50)
        f = piecewise((0, 1, exprs.const(0), exprs.poly([mass, F(-2, 3), 1])))

        def cert(bound):
            w = Witness(IntervalSet.of([(0, 1)]), H(0, 1), H(0, bound))
            return T4Certificate(H(0, bound), (w,), (w,), True, ExtRat(bound))

        assert integrate(sp, f) == (H(0, mass), cert(mass))
        assert verify_certificate(sp, f, cert(mass))
        assert not verify_certificate(sp, f, cert(mass + F(1, 10**9)))
        # the bound 1/100 holds, but its mass falls short of the value
        inexact = replace(cert(F(1, 100)), value=H(0, mass), exact_m=False)
        assert not verify_certificate(sp, f, inexact)

    def test_infinite_mass_bound_fails_on_a_piecewise_function(self):
        sp = IntervalSpace.of(0, 1)
        f = constant_fn(0, 1, H(1, 1))
        w = Witness(IntervalSet.of([(0, 1)]), H(0, 1), HValue(F(1), INF))
        cert = T4Certificate(HValue(F(1), INF), (w,), (w,), True, INF)
        assert not verify_certificate(sp, f, cert)

    def test_negative_infinite_mass_bound_holds(self):
        # f = (1, 1) >= (1, -inf) on the whole piece, its points included
        sp = IntervalSpace.of(0, 1)
        f = constant_fn(0, 1, H(1, 1))
        w = Witness(IntervalSet.of([(0, F(1, 2))], [F(3, 4)]), H(0, F(1, 2)), HValue(F(1), -INF))
        assert verify_certificate(sp, f, T4Certificate(H(1, 0), (w,), (), True, ExtRat(0)))

    @pytest.mark.parametrize("bound, holds", [(H(F(1, 2), 1), True), (H(1, 1), False)])
    def test_cell_claim_decided_by_the_supremum(self, bound, holds):
        # f = (x, 1) integrates to (2, 0) over W = (1/4, 1), past (3/2, 3/4)
        # though f(1/4) is below the bound (1/2, 1); the dimension 1 is
        # reached only at the end 1, so the mass 0 falls short of 1 * 3/4
        f = piecewise((0, 1, exprs.affine(0, 1), exprs.const(1)))
        w = Witness(IntervalSet.of([(F(1, 4), 1)]), H(1, F(3, 4)), bound)
        cert = T4Certificate(HValue(bound.d + 1, ExtRat(0)), (w,), (), True, ExtRat(0))
        assert verify_certificate(UNIT, f, cert) == holds

    def test_cell_claim_over_an_irrational_integral(self):
        # x**(1/2) integrates to (2/3)(2 sqrt(2) - 1) ~ 1.219 over (1, 2);
        # a bound it reaches everywhere on the cell it reaches on average
        sp = IntervalSpace.of(0, 4)

        def verify(pi1, bound):
            f = piecewise((0, 4, pi1, exprs.power(F(1, 2))))
            w = Witness(IntervalSet.of([(1, 2)]), H(0, 1), bound)
            cert = T4Certificate(HValue(bound.d, ExtRat(0)), (w,), (), True, ExtRat(0))
            return verify_certificate(sp, f, cert)

        assert verify(exprs.const(0), H(0, F(1, 2)))
        assert verify(exprs.const(0), H(0, 1))
        # 1.219 lies above 6/5 and below 5/4 by far more than the rounding
        assert verify(exprs.const(0), H(0, F(6, 5)))
        assert not verify(exprs.const(0), H(0, F(5, 4)))
        # an infinite mass bound fails before any integral is taken
        assert not verify(exprs.const(1), HValue(F(1), INF))

    def test_witness_point_where_the_dimension_meets_the_bound(self):
        # f = (x, 1) meets the bound's dimension 1/4 at the point 1/4 and
        # passes it at 3/8, but a point is null and never decides: on
        # (1/2, 3/4) the dimension passes 1/4, so the claim holds; on
        # (1/8, 1/4) it reaches 1/4 only at the end, so the mass there is
        # 0 and falls short of 2 x 1/8
        sp = IntervalSpace.of(0, 1)
        f = piecewise((0, 1, exprs.affine(0, 1), exprs.const(1)))

        def cert(lo, hi, point):
            # the claimed value is the one the witness reaches
            w = Witness(IntervalSet.of([(lo, hi)], [point]), H(0, hi - lo), H(F(1, 4), 2))
            return T4Certificate(H(F(1, 4), 0), (w,), (), True, ExtRat(0))

        for point in (F(1, 4), F(3, 8)):
            assert verify_certificate(sp, f, cert(F(1, 2), F(3, 4), point))
            assert not verify_certificate(sp, f, cert(F(1, 8), F(1, 4), point))

    def test_witness_point_on_a_piece_boundary_fails(self):
        sp = IntervalSpace.of(0, 1)
        f = piecewise(
            (0, F(1, 2), exprs.const(1), exprs.const(1)),
            (F(1, 2), 1, exprs.const(1), exprs.const(1)),
        )
        w = Witness(IntervalSet.of([(0, F(1, 4))], [F(1, 2)]), H(0, F(1, 4)), H(1, 1))
        cert = T4Certificate(H(1, 1), (w,), (w,), False, ExtRat(F(1, 4)))
        assert not verify_certificate(sp, f, cert)

    def test_interval_witness_across_adjacent_pieces(self):
        # the shared endpoint 1/2 is null: with or without it, f
        # integrates to (0, 1) over (0, 1), and to no more
        sp = IntervalSpace.of(0, 1)
        halves = [IntervalSet.of([(0, F(1, 2))]), IntervalSet.of([(F(1, 2), 1)])]
        middle = IntervalSet.of(points=[F(1, 2)])
        joined = SimpleFn.of([(H(0, 1), s) for s in halves] + [(H(0, 2), middle)])
        split = SimpleFn.of([(H(0, 1), s) for s in halves])

        def cert(m):
            w = Witness(IntervalSet.of([(0, 1)]), H(0, 1), H(0, m))
            return T4Certificate(H(0, m), (w,), (w,), True, ExtRat(m))

        for f in (joined, split):
            assert verify_certificate(sp, f, cert(1))
            assert not verify_certificate(sp, f, cert(2))

    def test_witness_across_pieces_of_different_dimensions(self):
        # W = (0, 1/2) u (1/2, 1) integrates f to (1, 1/2) >= (1/2, 0) x (0, 1),
        # though f's dimension 0 on (1/2, 1) is below the bound's 1/2
        sp = IntervalSpace.of(0, 1)
        f = piecewise(
            (0, F(1, 2), exprs.const(1), exprs.const(1)),
            (F(1, 2), 1, exprs.const(0), exprs.const(1)),
        )
        w = Witness(IntervalSet.of([(0, F(1, 2)), (F(1, 2), 1)]), H(0, 1), H(F(1, 2), 0))
        assert verify_certificate(sp, f, T4Certificate(H(F(1, 2), 0), (w,), (), True, ExtRat(0)))

    def test_false_claim_over_an_irrational_mass_fails(self):
        # f = (0, x**(1/2)) on (0, 2) has the mass (2/3)(2 sqrt 2 - 1) ~ 1.22
        # on W = (1, 2) u (2, 3), which the bound (0, 1) puts at nu(W) = 2
        sp = IntervalSpace.of(0, 4)
        f = piecewise((0, 2, exprs.const(0), exprs.power(F(1, 2))))

        def claim(where, m):
            w = Witness(where, sp.measure(where), H(0, m))
            return T4Certificate(H(0, 0), (w,), (), True, ExtRat(0))

        where = IntervalSet.of([(1, 2), (2, 3)])
        assert not verify_certificate(sp, f, claim(where, 1))
        assert not verify_certificate(sp, f, claim(where, F(62, 100)))  # the mass 1.24
        assert verify_certificate(sp, f, claim(where, F(1, 2)))  # the mass 1
        assert verify_certificate(sp, f, claim(IntervalSet.of([(1, 2)]), 1))  # sqrt x >= 1

    @pytest.mark.parametrize(
        "q, lo, hi, m",
        [
            # its root rounds within 2**-327, as a finer scale would pass the bit bound
            (F(1, 200), F(1, 3), F(2, 3), F(1, 2)),
            # rounded within 2**-13, too coarse for the mass 1 - 1.4e-4 over
            # 1 - 1/4000, which x**(1/5000) >= 0.99978 on the cell decides
            (F(1, 5000), F(1, 3), F(2, 3), F(3999, 4000)),
            # lo**(1001/1000) would pass the bit bound, so only that decides
            (F(1, 1000), F(10**20 + 1, 3 * 10**20), F(2, 3), F(1, 2)),
        ],
    )
    def test_a_root_of_high_degree_decides_a_true_claim(self, q, lo, hi, m):
        sp = IntervalSpace.of(0, 1)
        f = piecewise((lo, hi, exprs.const(0), exprs.power(q)))
        where = IntervalSet.of([(lo, hi)])
        w = Witness(where, sp.measure(where), H(0, m))
        assert verify_certificate(sp, f, T4Certificate(H(0, 0), (w,), (), True, ExtRat(0)))

    @pytest.mark.parametrize("ends", [[0, 4], [0, 2, 4]])
    def test_a_split_piece_telescopes_to_its_exact_mass(self, ends):
        # f = (0, x**(1/2)) integrates to (2/3)(4**(3/2) - 1) = 14/3 over
        # W = (1, 2) u (2, 4), so the bound (0, 14/9) is an equality at
        # nu(W) = 3, on one piece or two; sqrt(2) at the inner end cancels
        sp = IntervalSpace.of(0, 4)
        root = exprs.power(F(1, 2))
        f = piecewise(*((a, c, exprs.const(0), root) for a, c in zip(ends, ends[1:])))
        where = IntervalSet.of([(1, 2), (2, 4)])

        def verify(m):
            w = Witness(where, sp.measure(where), H(0, m))
            return verify_certificate(sp, f, T4Certificate(H(0, 0), (w,), (), True, ExtRat(0)))

        assert verify(F(14, 9))
        assert not verify(F(14, 9) + F(1, 10**30))

    def test_a_split_top_piece_is_one_mass_witness(self):
        # (1, x**(1/2)) cut at 1/4 and 1/2 integrates as the uncut piece,
        # though x**(3/2) is irrational at 1/2: its three pieces are one run
        root = exprs.power(F(1, 2))
        ends = [0, F(1, 4), F(1, 2), 1]
        f = piecewise(*((a, c, exprs.const(1), root) for a, c in zip(ends, ends[1:])))
        v, cert = integrate(UNIT, f)
        assert v == H(2, F(2, 3))
        [w] = cert.m_witnesses
        assert (w.where, w.inf_bound) == (IntervalSet.of([(0, 1)]), H(1, F(2, 3)))
        assert verify_certificate(UNIT, f, cert)

    @pytest.mark.parametrize("d, holds", [(1, True), (F(13, 10), False)])
    def test_a_long_dimension_bound_is_decided_by_a_rounded_root(self, d, holds):
        # b.d**3 would pass the bit bound, so 2**(1/3) = 1.2599... is
        # compared with b.d through its rounded root, not decided by cubes
        sp = IntervalSpace.of(0, 4)
        f = piecewise((1, 2, exprs.power(F(1, 3)), exprs.const(1)))
        where = IntervalSet.of([(1, 2)])
        b = H(d + F(1, 3**30000), 0)
        w = Witness(where, sp.measure(where), b)
        assert verify_certificate(sp, f, T4Certificate(b, (w,), (), True, ExtRat(0))) == holds

    def test_each_distinct_witness_is_decided_once(self, monkeypatch):
        # a simple function's witnesses stand in both lists, and an interval
        # certificate of dimension 0 repeats its first mass witness
        decided = []
        for shape in (SimpleFn, PiecewiseFn):
            decide = shape.claim_holds
            monkeypatch.setattr(
                shape, "claim_holds", lambda f, sp, w, decide=decide: decided.append(w) or decide(f, sp, w)
            )
        zero, one, two = (exprs.const(c) for c in (0, 1, 2))
        cases = [
            (IntervalSpace.of(0, 1), piecewise((0, F(1, 2), zero, one), (F(1, 2), 1, zero, two))),
            (
                AtomSpace.of({"a": H(0, 1), "b": H(0, 2)}),
                SimpleFn.of([(H(0, 1), AtomSet.of("a")), (H(0, 3), AtomSet.of("b"))]),
            ),
        ]
        for sp, f in cases:
            decided.clear()
            _, cert = integrate(sp, f)
            assert verify_certificate(sp, f, cert)
            assert len(cert.d_witnesses) + len(cert.m_witnesses) > len(set(decided))
            assert sorted(map(repr, decided)) == sorted({repr(w) for w in cert.d_witnesses + cert.m_witnesses})

    def test_atom_witness_across_coefficients(self):
        # {a, b} integrates f to (0, 5) + (2, 1) = (2, 1) = (1, 1) x (1, 1),
        # though f(a) = (0, 5) is below the bound (1, 1)
        sp = AtomSpace.of({"a": H(0, 1), "b": H(1, 1)})
        f = SimpleFn.of([(H(0, 5), AtomSet.of("a")), (H(1, 1), AtomSet.of("b"))])
        assert integrate(sp, f)[0] == H(2, 1)
        w = Witness(AtomSet.of("a", "b"), H(1, 1), H(1, 1))
        assert verify_certificate(sp, f, T4Certificate(H(2, 1), (w,), (w,), True, ExtRat(1)))

    def test_piecewise_function_on_an_atom_space_is_refused(self):
        sp = AtomSpace.of({"a": H(0, 1)})
        w = Witness(AtomSet.of("a"), H(0, 1), H(0, 1))
        cert = T4Certificate(H(0, 1), (w,), (w,), True, ExtRat(1))
        with pytest.raises(HIntegralError):
            verify_certificate(sp, constant_fn(0, 1, H(0, 1)), cert)

    def test_catalog_witness_must_lie_in_pieces(self):
        sets = [{"name": "A", "hvalue": "(1, 1)"}, {"name": "B", "hvalue": "(1, 5)"}]
        sp = space_from_json({"kind": "catalog", "sets": sets})
        f = SimpleFn.of([(H(0, 1), set_from_json({"catalog": ["A"]}))])
        w = Witness(set_from_json({"catalog": ["A", "B"]}), H(1, 6), H(0, 1))
        cert = T4Certificate(H(1, 6), (w,), (w,), True, ExtRat(6))
        assert not verify_certificate(sp, f, cert)

    def test_atom_certificate(self):
        sp = AtomSpace.of({"a": H(1, "inf"), "b": H(0, 3)})
        f = SimpleFn.of([(H(1, 2), AtomSet.of("a")), (H(0, 1), AtomSet.of("b"))])
        v, cert = integrate(sp, f)
        assert v == H(2, "inf")
        assert cert.exact_m
        assert verify_certificate(sp, f, cert)

    def test_duplicate_interval_m_witness_fails(self):
        # f = (0, 1) on (0, 1/2) integrates to (1, 1/2); its own witness
        # listed twice would certify the mass 1
        f = constant_fn(0, F(1, 2), H(0, 1))
        v, cert = integrate(UNIT, f)
        assert v == H(1, F(1, 2)) and verify_certificate(UNIT, f, cert)
        (w,) = cert.m_witnesses
        bad = T4Certificate(H(1, 1), cert.d_witnesses, (w, w), True, ExtRat(1))
        assert not verify_certificate(UNIT, f, bad)

    def test_duplicate_atom_m_witness_fails(self):
        sp = AtomSpace.of({"a": H(0, 1), "b": H(0, 1)})
        f = SimpleFn.of([(H(0, 1), AtomSet.of("a"))])
        v, cert = integrate(sp, f)
        assert v == H(0, 1) and verify_certificate(sp, f, cert)
        (w,) = cert.m_witnesses
        bad = T4Certificate(H(0, 2), (w,), (w, w), True, ExtRat(2))
        assert not verify_certificate(sp, f, bad)

    def test_duplicate_m_witness_of_a_bundled_function_fails(self):
        import json
        from pathlib import Path

        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        sp = space_from_json(json.loads((scenarios / "space_unit_interval.json").read_text()))
        tried = 0
        for name in ("function_root2.json", "function_const_1_1.json"):
            f = function_from_json(json.loads((scenarios / name).read_text()))
            v, cert = integrate(sp, f)
            assert verify_certificate(sp, f, cert)
            for w in cert.m_witnesses:
                # the extra mass is accounted for, so only the overlap is wrong
                extra = w.inf_bound.m * w.measure.m
                bad = replace(
                    cert,
                    value=HValue(v.d, v.m + extra),
                    m_witnesses=cert.m_witnesses + (w,),
                    achieved_m=cert.achieved_m + extra,
                )
                assert not verify_certificate(sp, f, bad)
                tried += 1
        assert tried > 0

    def test_certificate_json(self):
        f = constant_fn(0, 1, H(1, 1))
        _, cert = integrate(UNIT, f)
        out = cert.to_json()
        assert out["value"] == "(2, 1)"
        assert out["exact_m"] is True


class TestSublevel:
    def test_atoms(self):
        sp = AtomSpace.of({"a": H(1, 2), "b": H(0, 3)})
        f = SimpleFn.of([(H(1, 1), AtomSet.of("a"))])
        assert sublevel_set(sp, f, H(1, 1)) == AtomSet.of("b")
        assert sublevel_set(sp, f, H(2, 0)) == AtomSet.of("a", "b")

    def test_interval_dimension_cut(self):
        f = piecewise((0, 1, exprs.affine(0, 1), exprs.const(0)))
        s = sublevel_set(UNIT, f, H(F(1, 2), 0))
        assert s == IntervalSet.of([(0, F(1, 2))])

    def test_equality_region_mass_decides(self):
        # f = (1/2, x): below (1/2, 1/3) exactly where x < 1/3
        f = piecewise((0, 1, exprs.const(F(1, 2)), exprs.affine(0, 1)))
        s = sublevel_set(UNIT, f, H(F(1, 2), F(1, 3)))
        assert s == IntervalSet.of([(0, F(1, 3))])

    def test_uncovered_region_is_zero(self):
        f = piecewise((F(1, 4), F(1, 2), exprs.const(1), exprs.const(1)))
        s = sublevel_set(UNIT, f, H(0, 1))
        # the piece is open, so f is (0, 0) at its ends too
        assert s == IntervalSet.of([(0, F(1, 4)), (F(1, 2), 1)], [F(1, 4), F(1, 2)])

    def test_infinite_threshold(self):
        f = piecewise((0, 1, exprs.const(1), exprs.affine(0, 1)))
        s = sublevel_set(UNIT, f, HValue(F(1), INF))
        assert s == IntervalSet.of([(0, 1)])

    @pytest.mark.parametrize("lo, hi", [(5, 6), (F(1, 2), 2), (-1, F(1, 2))])
    def test_piece_outside_the_space_is_refused(self, lo, hi):
        # as integrate does: the gaps around such a piece would reach
        # past the space, where its measure is not defined
        f = piecewise((lo, hi, exprs.const(1), exprs.const(1)))
        with pytest.raises(UnknownSetError) as by_sublevel:
            sublevel_set(UNIT, f, H(0, 1))
        with pytest.raises(UnknownSetError) as by_integral:
            integrate(UNIT, f)
        assert str(by_sublevel.value) == str(by_integral.value)


class TestMembership:
    """integrate, sublevel_set and verify_certificate refuse a function
    off its space alike, and verify_certificate refuses it even when
    every witness lies on the space."""

    def test_certificate_for_an_atom_off_the_space(self):
        sp = AtomSpace.of({"a": H(0, 1)})
        on = SimpleFn.of([(H(1, 1), AtomSet.of("a"))])
        value, cert = integrate(sp, on)
        assert value == H(1, 1) and verify_certificate(sp, on, cert)
        off = SimpleFn.of([(H(1, 1), AtomSet.of("a")), (H(5, 1), AtomSet.of("z"))])
        with pytest.raises(UnknownSetError, match=r"unknown atoms: \['z'\]"):
            verify_certificate(sp, off, cert)

    def test_certificate_for_a_piece_past_the_end(self):
        sp = IntervalSpace.of(0, 1)
        _, cert = integrate(sp, constant_fn(0, 1, H(1, 1)))
        with pytest.raises(UnknownSetError, match=r"piece \(0, 2\) is not inside"):
            verify_certificate(sp, constant_fn(0, 2, H(1, 1)), cert)

    @pytest.mark.parametrize(
        "space, f, error, message",
        [
            (  # sublevel_set used to skip z and return {a}
                AtomSpace.of({"a": H(0, 1)}),
                SimpleFn.of([(H(1, 1), AtomSet.of("a", "z"))]),
                UnknownSetError,
                "unknown atoms: ['z']",
            ),
            (
                UNIT,
                SimpleFn.of([(H(1, 1), IntervalSet.of([(0, 2)]))]),
                UnknownSetError,
                "(0, 2) is not inside the space (0, 1)",
            ),
            (
                UNIT,
                SimpleFn.of([(H(1, 1), IntervalSet.of([], [2]))]),
                UnknownSetError,
                "point 2 outside the space",
            ),
            (
                UNIT,
                piecewise((0, F(1, 2), exprs.const(1), exprs.const(1)),
                          (F(1, 2), 2, exprs.const(1), exprs.const(1))),
                UnknownSetError,
                "piece (1/2, 2) is not inside the space (0, 1)",
            ),
            (  # the first piece past the end is named, not the last
                UNIT,
                piecewise((0, F(1, 2), exprs.const(1), exprs.const(1)),
                          (2, 3, exprs.const(1), exprs.const(1)),
                          (4, 5, exprs.const(1), exprs.const(1))),
                UnknownSetError,
                "piece (2, 3) is not inside the space (0, 1)",
            ),
            (
                AtomSpace.of({"a": H(0, 1)}),
                constant_fn(0, 1, H(1, 1)),
                UnsupportedExpressionError,
                "cannot integrate PiecewiseFn over AtomSpace",
            ),
            (
                AtomSpace.of({"a": H(0, 1)}),
                SimpleFn.of([(H(1, 1), IntervalSet.of([(0, 1)]))]),
                UnknownSetError,
                "IntervalSet is not a set of an atom space",
            ),
        ],
        ids=["unknown-atom", "interval-past-end", "point-outside",
             "piece-past-end", "middle-piece-past-end", "piecewise-on-atoms",
             "simple-on-intervals-on-atoms"],
    )
    def test_one_refusal_through_every_entry_point(self, space, f, error, message):
        entry_points = [
            lambda: integrate(space, f),
            lambda: sublevel_set(space, f, H(2, 0)),
            lambda: verify_certificate(space, f, T4Certificate(ZERO)),
        ]
        for call in entry_points:
            with pytest.raises(error) as refused:
                call()
            assert type(refused.value) is error and str(refused.value) == message


class TestPointwiseAdd:
    def test_atoms(self):
        f = SimpleFn.of([(H(1, 2), AtomSet.of("a"))])
        g = SimpleFn.of([(H(1, 3), AtomSet.of("a")), (H(0, 1), AtomSet.of("b"))])
        h = pointwise_add_fn(f, g)
        assert h.value_at("a") == H(1, 5)
        assert h.value_at("b") == H(0, 1)

    def test_piecewise_dominance_split(self):
        f = piecewise((0, 1, exprs.affine(0, 1), exprs.const(1)))
        g = piecewise((0, 1, exprs.const(F(1, 2)), exprs.const(2)))
        h = pointwise_add_fn(f, g)
        v, _ = integrate(UNIT, h)
        # right half dominated by (x, 1), left half by (1/2, 2)
        lo = value_at(h, F(1, 4))
        hi = value_at(h, F(3, 4))
        assert lo == H(F(1, 2), 2) and hi == H(F(3, 4), 1)

    def test_equal_dims_add_masses(self):
        f = piecewise((0, 1, exprs.const(1), exprs.affine(0, 1)))
        g = piecewise((0, 1, exprs.const(1), exprs.const(2)))
        h = pointwise_add_fn(f, g)
        assert value_at(h, F(1, 2)) == H(1, "5/2")

    def test_additivity_law(self):
        f = piecewise((0, 1, exprs.const(1), exprs.affine(0, 1)))
        g = piecewise((0, F(1, 2), exprs.const(1), exprs.const(2)))
        from hintegral.hvalue import add

        lhs, _ = integrate(UNIT, pointwise_add_fn(f, g))
        a, _ = integrate(UNIT, f)
        b, _ = integrate(UNIT, g)
        assert lhs == add(a, b)

    def test_the_zero_function_adds_to_a_piecewise_function(self):
        # a function without pieces has no shape: the sum is the other one
        empty, f = SimpleFn.of([]), constant_fn(0, 1, H(1, 1))
        assert pointwise_add_fn(empty, f) is f
        assert pointwise_add_fn(f, empty) is f

    def test_the_zero_function_adds_to_a_simple_function_on_intervals(self):
        empty = SimpleFn.of([])
        f = SimpleFn.of([(H(1, 1), IntervalSet.of([(0, F(1, 2))], [F(3, 4)]))])
        assert pointwise_add_fn(empty, f) is f
        assert pointwise_add_fn(f, empty) is f

    @pytest.mark.parametrize(
        "other",
        [
            constant_fn(0, 1, H(1, 1)),
            # lowered to constant pieces, so a piecewise function too
            SimpleFn.of([(H(1, 1), IntervalSet.of([(0, F(1, 2))], [F(3, 4)]))]),
        ],
        ids=["piecewise", "simple-on-intervals"],
    )
    def test_functions_of_different_shapes_are_refused(self, other):
        atoms = SimpleFn.of([(H(1, 2), AtomSet.of("a"))])
        for f, g in ((atoms, other), (other, atoms)):
            with pytest.raises(UnsupportedExpressionError, match="^cannot add functions of different shapes$"):
                pointwise_add_fn(f, g)


finite_values = st.builds(
    HValue.of, st.sampled_from([0, F(1, 2), 1, 2]), st.sampled_from([0, F(1, 2), 1, 3])
)


@st.composite
def interval_simple_functions(draw):
    """A simple function on (0, 4) with one to three pieces: each cell
    between sorted ends, and each end inside (0, 4) as a point, lies in
    one piece or in none."""
    ends = sorted({F(0), F(4)} | set(draw(st.lists(inner, max_size=4))))
    owner = st.sampled_from([0, 1, 2, None])
    cells = [(c, draw(owner)) for c in zip(ends, ends[1:])]
    points = [(e, draw(owner)) for e in ends[1:-1]]
    sets = [
        IntervalSet.of([c for c, k in cells if k == j], [e for e, k in points if k == j])
        for j in range(3)
    ]
    assume(any(s.intervals or s.points for s in sets))
    return SimpleFn.of([(draw(finite_values), s) for s in sets if s.intervals or s.points])


def _ends(f: SimpleFn) -> set:
    """The piece ends and isolated points of f."""
    return {x for _, s in f.pieces for x in (*s.points, *(e for iv in s.intervals for e in iv))}


class TestSimpleOnIntervals:
    """On an interval space a simple function is lowered to constant
    pieces: its integral is its defining sum, and its sublevel
    sets and sums are those of its lowering, whose points are null."""

    @settings(max_examples=200, deadline=None)
    @given(densities(), st.sampled_from([0, 1]), interval_simple_functions(),
           interval_simple_functions(), values, st.lists(inner, max_size=4))
    def test_agrees_with_the_coefficients(self, density, offset, f, g, v, xs):
        sp = IntervalSpace.of(0, 4, dim_offset=offset, density=density)
        value, cert = integrate(sp, f)
        assert value == integrate_simple(sp, f)
        assert verify_certificate(sp, f, cert)
        below = sublevel_set(sp, f, v)
        total = pointwise_add_fn(f, g)
        for x in set(xs) - _ends(f) - _ends(g):
            assert (x in below) == (f.value_at(x) < v)
            assert value_at(total, x) == add(f.value_at(x), g.value_at(x))
        for x in _ends(f) - {F(0), F(4)}:
            assert (x in below) == (ZERO < v)  # f counts as (0, 0) at each end and point

    def test_points_are_null_in_sublevel_sets_and_sums(self):
        # ROADMAP item 16's reproducer: (1, 1) on (0, 1/2) and at 3/4
        sp = IntervalSpace.of(0, 1)
        f = SimpleFn.of([(H(1, 1), IntervalSet.of([(0, F(1, 2))], [F(3, 4)]))])
        # f is (0, 0) at 3/4 and at 1/2, below (1, 1), and (1, 1) on (0, 1/2)
        assert sublevel_set(sp, f, H(1, 1)) == IntervalSet.of([(F(1, 2), 1)], [F(1, 2)])
        assert pointwise_add_fn(f, f) == piecewise((0, F(1, 2), exprs.const(1), exprs.const(2)))

    def test_empty_function(self):
        sp = IntervalSpace.of(0, 1)
        empty = SimpleFn.of([])
        assert integrate(sp, empty) == (ZERO, T4Certificate(ZERO))
        assert sublevel_set(sp, empty, H(0, 1)) == IntervalSet.of([(0, 1)])
        assert sublevel_set(sp, empty, ZERO) == IntervalSet.of()
        assert verify_certificate(sp, empty, T4Certificate(ZERO))
        # it stays simple, so it adds to an empty function on atoms
        assert pointwise_add_fn(empty, SimpleFn.of([])) == empty

    def test_a_certificate_whose_witness_holds_a_point_still_verifies(self):
        import json
        from pathlib import Path

        scenarios = Path(__file__).resolve().parents[1] / "scenarios"
        sp = space_from_json(json.loads((scenarios / "space_unit_interval.json").read_text()))
        f = function_from_json(
            json.loads((scenarios / "function_simple_interval_point.json").read_text())
        )
        value, cert = integrate(sp, f)
        (w,) = cert.m_witnesses
        assert value == H(2, F(1, 2)) and w.where == IntervalSet.of([(0, F(1, 2))])
        # a witness that also holds f's point 3/4 claims the same, as the point is null
        w = Witness(IntervalSet.of([(0, F(1, 2))], [F(3, 4)]), H(1, F(1, 2)), H(1, 1))
        assert verify_certificate(sp, f, T4Certificate(value, (w,), (w,), True, value.m))

    def test_an_infinite_coefficient_is_refused(self, tmp_path, capsys):
        import json
        from pathlib import Path

        from hintegral.cli import main

        f = SimpleFn.of([(H(1, "inf"), IntervalSet.of([(0, F(1, 2))]))], i_simple=True)
        message = "infinite coefficient (1, inf) needs an atom space"
        for call in (
            lambda: integrate(UNIT, f),
            lambda: sublevel_set(UNIT, f, H(1, 1)),
            lambda: verify_certificate(UNIT, f, T4Certificate(ZERO)),
            lambda: pointwise_add_fn(f, f),
            lambda: restrict(f, IntervalSet.of([(0, 1)])),
        ):
            with pytest.raises(UnsupportedExpressionError) as refused:
                call()
            assert str(refused.value) == message
        fn = {"simple": [{"coeff": "(1, inf)", "set": {"intervals": [["0", "1/2"]]}}], "i_simple": True}
        (tmp_path / "f.json").write_text(json.dumps(fn))
        space = Path(__file__).resolve().parents[1] / "scenarios" / "space_unit_interval.json"
        assert main(["eval", str(space), str(tmp_path / "f.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"unsupported: {message}\n"


class TestGradedAndOrdinary:
    def test_graded_matches_general(self):
        f = piecewise((0, 1, exprs.const(F(1, 2)), exprs.poly([0, 2])))
        assert graded_integral(UNIT, f) == integrate(UNIT, f)[0]

    def test_graded_rejects_varying_dim(self):
        f = piecewise((0, 1, exprs.affine(0, 1), exprs.const(1)))
        with pytest.raises(ValueError):
            graded_integral(UNIT, f)

    def test_graded_atoms(self):
        sp = AtomSpace.of({"a": H(1, 2), "b": H(0, 3)})
        f = SimpleFn.of([(H(1, 1), AtomSet.of("a")), (H(1, 2), AtomSet.of("b"))])
        assert graded_integral(sp, f) == integrate(sp, f)[0]

    def test_ordinary_agreement_atoms(self):
        sp = scaled_embedding(0, {"a": 2, "b": 3})
        f = SimpleFn.of([(H(1, 1), AtomSet.of("a")), (H(1, 4), AtomSet.of("b"))])
        assert integrate_ordinary(sp, f) == integrate(sp, f)[0] == H(1, 14)

    def test_ordinary_needs_dim0(self):
        sp = scaled_embedding(1, {"a": 2})
        with pytest.raises(ValueError):
            integrate_ordinary(sp, SimpleFn.of([(H(1, 1), AtomSet.of("a"))]))


class TestIndefinite:
    """The indefinite integral L |-> integral of f over L is an h-measure."""

    def test_is_additive(self):
        from hintegral.hvalue import add

        f = constant_fn(0, 1, H(1, 1))
        nu = lambda L: integrate(UNIT, restrict(f, L))[0]
        left = IntervalSet.of([(0, F(1, 3))])
        right = IntervalSet.of([(F(1, 3), 1)])
        whole = IntervalSet.of([(0, 1)])
        assert nu(whole) == add(nu(left), nu(right))

    def test_empty_is_zero(self):
        f = constant_fn(0, 1, H(1, 1))
        assert integrate(UNIT, restrict(f, IntervalSet.of()))[0] == ZERO


@st.composite
def interval_sets(draw):
    """Open intervals between sorted ends in [-1, 5] and some of the ends
    as points, so part of the set may lie off the space (0, 4)."""
    ends = sorted(set(draw(st.lists(st.fractions(-1, 5, max_denominator=8), max_size=6))))
    ivs = [(a, b) for a, b in zip(ends, ends[1:]) if draw(st.booleans())]
    return IntervalSet.of(ivs, [e for e in ends if draw(st.booleans())])


def _clipped_sum(sp, f: SimpleFn, L: IntervalSet) -> HValue:
    """The defining sum of f * 1_L: each coefficient times the measure of
    each of its piece's intervals clipped to each of L's, found by a plain
    scan of both; points are null."""
    return sum_finite(
        mul(c, sp.measure(IntervalSet.of([(max(a, p), min(b, q))])))
        for c, s in f.pieces
        for a, b in s.intervals
        for p, q in L.intervals
        if max(a, p) < min(b, q)
    )


class TestRestrict:
    def test_atoms(self):
        sp = AtomSpace.of({"a": H(1, 2), "b": H(0, 3), "c": H(1, 1)})
        f = SimpleFn.of([(H(1, 1), AtomSet.of("a", "b")), (H(0, 5), AtomSet.of("c"))])
        g = restrict(f, AtomSet.of("b", "c", "z"))
        assert g == SimpleFn.of([(H(1, 1), AtomSet.of("b")), (H(0, 5), AtomSet.of("c"))])
        assert integrate(sp, g)[0] == H(1, 8)  # (1,1)(0,3) + (0,5)(1,1)
        assert restrict(f, AtomSet.of()) == SimpleFn.of([])

    def test_intervals_with_points(self):
        f = piecewise(
            (0, F(1, 2), exprs.const(1), exprs.const(2)),
            (F(1, 2), 1, exprs.affine(0, 1), exprs.const(1)),
        )
        L = IntervalSet.of([(F(1, 4), F(3, 4)), (F(7, 8), 2)], [F(1, 8), F(13, 16)])
        g = restrict(f, L)
        # the points of L are dropped; the part of L past the space is cut off
        assert g == piecewise(
            (F(1, 4), F(1, 2), exprs.const(1), exprs.const(2)),
            (F(1, 2), F(3, 4), exprs.affine(0, 1), exprs.const(1)),
            (F(7, 8), 1, exprs.affine(0, 1), exprs.const(1)),
        )
        assert value_at(g, F(1, 8)) == ZERO and value_at(g, F(13, 16)) == ZERO
        assert integrate(UNIT, g)[0] == H(2, F(1, 2))  # the constant piece, 2 * 1/4

    def test_simple_function_on_intervals(self):
        sp = IntervalSpace.of(0, 1)
        f = SimpleFn.of([(H(0, 1), IntervalSet.of([(0, F(1, 2))], [F(3, 4)]))])
        g = restrict(f, IntervalSet.of([(F(1, 4), 1)]))
        # restricted as its constant pieces, so the null point 3/4 is dropped
        assert g == piecewise((F(1, 4), F(1, 2), exprs.const(0), exprs.const(1)))
        assert integrate(sp, g)[0] == H(0, F(1, 4))

    def test_a_point_off_the_space_is_dropped(self):
        # f's point 2 lies in L but not in the space (0, 1): restrict drops it as a
        # null point, so integrate does not refuse it
        f = SimpleFn.of([(H(0, 1), IntervalSet.of([(0, F(1, 2))], [2]))])
        g = restrict(f, IntervalSet.of([(F(1, 4), 1)], [2]))
        assert integrate(IntervalSpace.of(0, 1), g)[0] == H(0, F(1, 4))

    @settings(max_examples=200, deadline=None)
    @given(densities(), st.sampled_from([0, 1]), interval_simple_functions(), interval_sets())
    def test_simple_function_on_intervals_agrees_with_the_clipped_sum(self, density, offset, f, L):
        sp = IntervalSpace.of(0, 4, dim_offset=offset, density=density)
        assert integrate(sp, restrict(f, L))[0] == _clipped_sum(sp, f, L)

    @settings(max_examples=300)
    @given(
        st.dictionaries(st.sampled_from("abcdef"), st.integers(0, 3)),
        st.lists(
            st.builds(
                HValue,
                st.fractions(min_value=0, max_value=3, max_denominator=4),
                st.one_of(st.fractions(min_value=0, max_value=9, max_denominator=4).map(ExtRat), st.just(INF)),
            ),
            min_size=4,
            max_size=4,
        ),
        st.booleans(),
        st.frozensets(st.sampled_from("abcdefz")),
    )
    def test_atoms_as_the_constructor_restricts(self, piece_of, coeffs, i_simple, L):
        # the pieces of f cut by L, the empty ones dropped: what SimpleFn.of builds from them
        groups = [frozenset(a for a, k in piece_of.items() if k == j) for j in range(4)]
        pieces = [(c, AtomSet(g)) for c, g in zip(coeffs, groups) if g and (i_simple or c.m.is_finite)]
        f = SimpleFn.of(pieces, i_simple=i_simple)
        g = restrict(f, AtomSet(L))
        expected = SimpleFn.of([(c, AtomSet(s.atoms & L)) for c, s in pieces if s.atoms & L], i_simple=i_simple)
        assert type(g) is SimpleFn and g == expected and hash(g) == hash(expected)
        assert g.i_simple == i_simple and (g.pieces == ()) == (not expected.pieces)
        for a in "abcdefz":
            assert g.value_at(a) == (f.value_at(a) if a in L else ZERO)

    def test_kind_mismatch(self):
        with pytest.raises(UnknownSetError):
            restrict(constant_fn(0, 1, H(1, 1)), AtomSet.of("a"))
        with pytest.raises(UnknownSetError):
            restrict(SimpleFn.of([(H(0, 1), AtomSet.of("a"))]), IntervalSet.of([(0, 1)]))


class TestFunctionJson:
    def test_simple_parse(self):
        f = SimpleFn.of([(H(1, "inf"), AtomSet.of("a"))], i_simple=True)
        obj = {"simple": [{"coeff": "(1, inf)", "set": {"atoms": ["a"]}}], "i_simple": True}
        assert function_from_json(obj) == f

    def test_piecewise_parse(self):
        f = PiecewiseFn.of(
            [(0, F(1, 2), exprs.power(F(1, 2)), exprs.poly([0, 1, 1]))]
        )
        obj = {
            "pieces": [
                {
                    "set": {"intervals": [["0", "1/2"]]},
                    "pi1": {"kind": "pow", "q": "1/2"},
                    "pi2": {"kind": "poly", "coeffs": ["0", "1", "1"]},
                }
            ]
        }
        assert function_from_json(obj) == f


def _spellings(q):
    """JSON strings of the rational q: reduced, unreduced, padded and, where
    its denominator divides 100, decimal."""
    out = [str(q), f"{2 * q.numerator}/{2 * q.denominator}", f" {q} "]
    if 100 % q.denominator == 0:
        out.append(str(Decimal(q.numerator) / Decimal(q.denominator)))
    return out


# nonnegative on (0, 4); all but the polynomial may be a dimension coordinate
_POOL = [
    ("const", [F(3, 4)]),
    ("const", [F(0)]),
    ("affine", [F(1, 2), F(1, 4)]),
    ("pow", [F(1, 2)]),
    ("poly", [F(1), F(0), F(1, 2)]),
]
_DIMENSIONS = {"const", "affine", "pow"}
_POOL_KINDS = _DIMENSIONS | {"poly"}


@st.composite
def _piece_lists(draw):
    """A piecewise function's JSON: touching or gapped pieces on a grid of
    quarters, maybe shuffled; numbers in several spellings; expressions
    from a small pool, a drawn JSON object often reused as it is; and
    maybe one injected overlap, degenerate piece or negative mass."""
    cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=2, max_size=8, unique=True)))
    spans = [(F(a, 4), F(b, 4)) for a, b in zip(cuts, cuts[1:])]
    spans = [s for s in spans if s == spans[0] or draw(st.booleans())]
    num = lambda q: draw(st.sampled_from(_spellings(q)))

    def expr(kind, values):
        if kind == "affine":
            return {"kind": kind, "a": num(values[0]), "b": num(values[1])}
        if kind == "poly":
            return {"kind": kind, "coeffs": [num(c) for c in values]}
        return {"kind": kind, ("q" if kind == "pow" else "value"): num(values[0])}

    made = []  # the expressions drawn so far

    def pick(kinds):
        reuse = [e for e in made if e["kind"] in kinds]
        if reuse and draw(st.booleans()):
            return draw(st.sampled_from(reuse))
        made.append(expr(*draw(st.sampled_from([e for e in _POOL if e[0] in kinds]))))
        return made[-1]

    pieces = [
        {"set": {"intervals": [[num(lo), num(hi)]]}, "pi1": pick(_DIMENSIONS), "pi2": pick(_POOL_KINDS)}
        for lo, hi in spans
    ]
    fault = draw(st.sampled_from([None, "overlap", "degenerate", "negative"]))
    k = draw(st.integers(0, len(pieces) - 1))
    lo, hi = spans[k]
    if fault == "overlap":
        shifted = {"intervals": [[num(lo + F(1, 8)), num(hi + F(1, 8))]]}
        pieces.insert(k, {**pieces[k], "set": shifted})
    elif fault == "degenerate":
        pieces[k] = {**pieces[k], "set": {"intervals": [[num(hi), num(draw(st.sampled_from([lo, hi])))]]}}
    elif fault == "negative":
        pieces[k] = {**pieces[k], "pi2": expr("const", [F(-1, 2)])}
    return {"pieces": draw(st.permutations(pieces)) if draw(st.booleans()) else pieces}


def _outcome(read):
    try:
        return read()
    except (HIntegralError, ValueError) as exc:
        return type(exc), str(exc)


class TestOnePassReader:
    @settings(max_examples=300, deadline=None)
    @given(_piece_lists())
    def test_the_reader_matches_a_piece_by_piece_read(self, obj):
        # the reference reads every set and expression anew, without a memo,
        # and orders the pieces with PiecewiseFn.of, whose pieces are in
        # turn those of the constructor after a sort by lo
        def reference():
            pieces = []
            for p in obj["pieces"]:
                ((lo, hi),) = set_from_json(p["set"]).intervals
                pieces.append((lo, hi, exprs.expr_from_json(p["pi1"]), exprs.expr_from_json(p["pi2"])))
            assert _outcome(lambda: PiecewiseFn.of(pieces)) == _outcome(
                lambda: PiecewiseFn(tuple(sorted((PiecewisePiece(*p) for p in pieces), key=lambda p: p.lo)))
            )
            return PiecewiseFn.of(pieces)

        assert _outcome(lambda: function_from_json(obj)) == _outcome(reference)
