"""Expression grammar tests: exact roots, comparisons, dominance cells."""

from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction as F
from itertools import zip_longest
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import example, given, reject
from hypothesis import strategies as st

from hintegral import exprs
from hintegral.errors import ParseError, UnsupportedExpressionError
from hintegral.exprs import (
    MAX_DEGREE,
    MAX_POWER_BITS,
    affine,
    at_least,
    cmp_pow,
    cmp_sup,
    const,
    expr_from_json,
    int_nth_root,
    nth_root,
    poly,
    pow_exact,
    power,
    split_dominance,
    sup_on,
    try_add,
)
from hintegral.hvalue import INF, NEG_INF, ZERO, HValue, as_fraction
from hintegral.integral import PiecewiseFn, sublevel_set
from hintegral.space import IntervalSet, IntervalSpace


class TestPolyHelpers:
    def test_eval(self):
        assert exprs.poly_eval((F(1), F(2), F(3)), F(2)) == 1 + 4 + 12

    def test_mul(self):
        assert exprs.poly_mul((F(1), F(1)), (F(1), F(-1))) == (F(1), F(0), F(-1))

    def test_integral(self):
        # int_0^1 x^2 dx = 1/3
        assert exprs.poly_integral(poly([0, 0, 1]), F(0), F(1)) == F(1, 3)

    @given(
        st.lists(
            st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
            min_size=1,
            max_size=9,
        ),
        st.builds(F, st.integers(-(2**40), 2**40), st.integers(1, 2**40)),
        st.builds(F, st.integers(-(2**40), 2**40), st.integers(1, 2**40)),
        st.booleans(),
    )
    def test_integral_is_the_sum_of_its_terms(self, coeffs, a, b, empty):
        # degree 0-8, 200-bit coefficients, ends of either sign, and a == b
        b = a if empty else b
        terms = sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
        assert exprs.poly_integral(poly(coeffs), a, b) == terms

    def test_lipschitz_is_a_bound(self):
        coeffs = (F(1), F(-3), F(2), F(5))
        bound = exprs.poly_lipschitz_bound(coeffs, F(0), F(1))
        deriv = exprs.poly_deriv(coeffs)
        for k in range(11):
            assert abs(exprs.poly_eval(deriv, F(k, 10))) <= bound


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=20)
widths = st.fractions(min_value=F(1, 20), max_value=5, max_denominator=20)


def _bernstein_min(coeffs, lo, hi):
    """The smallest Bernstein coefficient of p on [lo, hi] from the
    integer kernel of `at_least`: `_bernstein` scales each coefficient
    of the integer polynomial D * p by n! * (b*d)**n, where lo = a/b and
    hi = c/d.  The integer form is built here, untrimmed, so that n is
    the length of ``coeffs`` less one, as in the Fraction reference."""
    den = lcm(*[F(c).denominator for c in coeffs])
    ints = [int(c * den) for c in coeffs]
    n = len(ints) - 1
    scale = factorial(n) * den * (lo.denominator * hi.denominator) ** n
    return F(min(exprs._bernstein(ints, lo, hi)), scale)


class TestPolyLowerBound:
    """p on [lo, hi] is a convex combination of its Bernstein
    coefficients, so the smallest one bounds p from below; the first and
    last are p(lo) and p(hi) (Farouki & Rajan, CAGD 5, 1988)."""

    @given(
        st.lists(rationals, min_size=1, max_size=6),
        rationals,
        widths,
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=50), max_size=5),
    )
    def test_never_exceeds_p_on_the_cell(self, coeffs, lo, width, ts):
        bound = _bernstein_min(coeffs, lo, lo + width)
        for x in [lo, lo + width] + [lo + t * width for t in ts]:
            assert bound <= exprs.poly_eval(coeffs, x)

    @given(st.fractions(min_value=0, max_value=100, max_denominator=50), widths)
    def test_exact_for_increasing_square(self, lo, width):
        assert _bernstein_min((F(1), F(0), F(1)), lo, lo + width) == 1 + lo * lo

    @given(
        st.lists(st.fractions(max_denominator=10**6).filter(lambda c: abs(c) < 10**6), min_size=1, max_size=13),
        st.integers(-(10**40), 10**40),
        st.integers(1, 10**40),
        st.integers(1, 10**40),
        st.integers(1, 10**40),
    )
    def test_equals_a_fraction_reference(self, coeffs, lo_num, lo_den, w_num, w_den):
        # degrees 0-12, signed coefficients, ends of up to 40 digits
        lo = F(lo_num, lo_den)
        hi = lo + F(w_num, w_den)
        assert _bernstein_min(coeffs, lo, hi) == _fraction_bernstein_min(coeffs, lo, hi)


def _fraction_bernstein_min(coeffs, lo, hi):
    """The smallest Bernstein coefficient in Fractions: a Taylor shift to
    lo, a scaling by hi - lo, then the binomial sums."""
    cs = [F(c) for c in coeffs]
    n = len(cs) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            cs[k] += lo * cs[k + 1]
    scaled = [c * (hi - lo) ** k / comb(n, k) for k, c in enumerate(cs)]
    return min(sum(comb(i, k) * scaled[k] for k in range(i + 1)) for i in range(n + 1))


def _sqrt_above(m, x):
    """sqrt(m) > x, exactly, for a rational m > 0."""
    return x < 0 or x * x < m


def _merged(factors):
    out = Counter()
    for f, k in factors:
        out[F(f)] += k
    return out


def _known_sign_nonnegative(sign, roots, squares, lo, hi):
    """p >= 0 on (lo, hi) for p = sign * prod (x - r)**k * prod (x**2 - m)**l,
    read off the factors: no root of odd multiplicity lies inside, and the
    factors of odd multiplicity are positive at the midpoint together.  A
    factor listed twice counts with the sum of its multiplicities."""
    roots, squares = _merged(roots).items(), _merged(squares).items()
    mid = (lo + hi) / 2
    for r, k in roots:
        if k % 2:
            if lo < r < hi:
                return False
            sign *= 1 if mid > r else -1
    for m, l in squares:
        if l % 2:
            for root_above in (lambda x: _sqrt_above(m, x), lambda x: not _sqrt_above(m, -x)):
                # +sqrt(m) and -sqrt(m): is the root above lo and below hi?
                if root_above(lo) and not root_above(hi):
                    return False
            sign *= 1 if mid * mid > m else -1
    return sign > 0


class TestAtLeast:
    def test_zero_on_the_end_checked_inputs(self):
        def nonneg(e):
            return at_least(e, F(0), F(0), F(1))

        assert not nonneg(const(-1)) and nonneg(const(0))
        # an affine map is checked at its lower end, whichever side that is
        assert not nonneg(affine(1, -2)) and nonneg(affine(1, -1))
        assert not nonneg(affine(-1, 2)) and nonneg(affine(0, 2))
        assert not nonneg(poly([-1, 0, 1])) and not nonneg(poly([0, 0, -1]))
        assert nonneg(power(F(1, 2)))
        # x**2 - x + 1/20 is 1/20 at both ends and -1/5 at 1/2
        assert not nonneg(poly([F(1, 20), -1, 1]))
        # (x - 1/3)**2: its smallest Bernstein coefficient on (0, 1) is -2/9
        assert _bernstein_min(poly([F(1, 9), F(-2, 3), 1]).coeffs, F(0), F(1)) == F(-2, 9)
        assert nonneg(poly([F(1, 9), F(-2, 3), 1]))

    def test_a_bound_above_the_bernstein_bound(self):
        e = poly([F(1, 9) + F(1, 50), F(-2, 3), 1])  # (x - 1/3)**2 + 1/50
        assert at_least(e, F(1, 50), F(0), F(1))
        assert not at_least(e, F(1, 50) + F(1, 10**9), F(0), F(1))

    @given(
        st.sampled_from([-1, 1]),
        st.lists(st.tuples(st.fractions(-4, 4, max_denominator=6), st.integers(1, 3)), max_size=3),
        st.lists(st.tuples(st.sampled_from([2, 3, 5, F(1, 2), F(8, 9), F(7, 4)]), st.integers(1, 2)), max_size=2),
        st.fractions(-5, 5, max_denominator=12),
        st.fractions(F(1, 12), 6, max_denominator=12),
    )
    @example(1, [(F(1, 3), 2)], [], F(0), F(1))
    @example(1, [(F(1, 2), 1), (F(1, 2), 2)], [], F(1, 2), F(1, 2))
    @example(-1, [], [(2, 1)], F(-1), F(2))
    # (x - 1/3)**2 * (x + 2): a cubic tie at an interior double root bisects its odd part
    @example(1, [(F(1, 3), 2), (-2, 1)], [], F(0), F(1))
    def test_matches_the_sign_of_known_factors(self, sign, roots, squares, lo, width):
        coeffs = (F(sign),)
        for r, k in roots:
            for _ in range(k):
                coeffs = exprs.poly_mul(coeffs, (-r, F(1)))
        for m, l in squares:
            for _ in range(l):
                coeffs = exprs.poly_mul(coeffs, (-F(m), F(0), F(1)))
        hi = lo + width
        expected = _known_sign_nonnegative(sign, roots, squares, lo, hi)
        assert at_least(poly(coeffs), F(0), lo, hi) == expected


class TestAtAPoint:
    """at_least and sup_on on a cell with lo == hi decide at that point,
    checked against values computed here."""

    @given(
        st.lists(rationals, min_size=1, max_size=9),
        rationals,
        rationals,
    )
    def test_a_polynomial_is_its_value(self, coeffs, x, c):
        # degrees 0-8; the reference evaluates the Fractions term by term
        e = poly(coeffs)
        value = sum(F(a) * x**k for k, a in enumerate(coeffs))
        assert at_least(e, c, x, x) == (value >= c)
        assert at_least(e, value, x, x)
        assert not at_least(e, value + F(1, 10**9), x, x)
        if e.degree <= 1:
            assert sup_on(e, x, x) == value

    @given(
        st.fractions(min_value=0, max_value=4, max_denominator=6),
        st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(5, 2), F(7, 3)]),
        rationals,
    )
    def test_a_power_is_its_value(self, y, q, c):
        # at x = y**r the power x**(p/r) is y**p
        x, value = y**q.denominator, y**q.numerator
        assert sup_on(power(q), x, x) == value
        assert at_least(power(q), c, x, x) == (value >= c)
        assert at_least(power(q), value, x, x)
        assert not at_least(power(q), value + F(1, 10**9), x, x)

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=50))
    def test_an_irrational_power_is_compared_by_squaring(self, c):
        # sqrt(2) >= c  iff  c <= 0 or c**2 <= 2
        assert sup_on(power(F(1, 2)), F(2), F(2)) is None
        assert at_least(power(F(1, 2)), c, F(2), F(2)) == (c <= 0 or c * c <= 2)


nonzero = rationals.filter(lambda c: c != 0)
signed_ends = st.fractions(min_value=-10, max_value=10, max_denominator=30)
long_rationals = st.builds(F, st.integers(-(2**100), 2**100), st.integers(1, 2**100))


def _value(coeffs, x):
    """p(x) term by term in Fractions."""
    return sum(F(a) * x**k for k, a in enumerate(coeffs))


def _fraction_at_least(coeffs, c, lo, hi):
    """p >= c on [lo, hi], which on the open (lo, hi) is the same by
    continuity, for p of degree <= 2 in Fractions: the formula the integer
    sign test replaced, p at the end its slope points away from, for
    degree <= 1, and for a quadratic its smallest value among the ends
    and, when it opens upward, the vertex -b / 2a inside the cell."""
    if len(coeffs) <= 2:
        return _value(coeffs, hi if len(coeffs) == 2 and coeffs[1] < 0 else lo) >= c
    xs = [lo, hi]
    vertex = -coeffs[1] / (2 * coeffs[2])
    if coeffs[2] > 0 and lo < vertex < hi:
        xs.append(vertex)
    return min(_value(coeffs, x) for x in xs) >= c


class TestIntegerKernel:
    """The integer kernels equal the Fraction formulas they replaced, at
    c != 0, at ends of either sign and at points (lo == hi)."""

    @given(
        st.lists(rationals, min_size=1, max_size=3),
        nonzero,
        signed_ends,
        st.one_of(st.just(F(0)), widths),
        st.one_of(st.none(), st.fractions(min_value=0, max_value=1, max_denominator=12)),
    )
    @example([F(1, 4), -1, 1], F(1, 100), F(0), F(1), None)  # (x - 1/2)**2 across its root
    @example([F(13, 4), -1, 1], F(3), F(0), F(1), None)  # ... plus 3 touches 3 at 1/2
    @example([F(1, 2), -1], F(-1, 2), F(-1), F(1), None)  # an affine map at its lower end
    @example([F(5, 4), -1, 1], F(1), F(1, 2), F(1, 2), None)  # (x - 1/2)**2 + 1, its vertex at lo
    @example([F(5, 4), -1, 1], F(1), F(0), F(1, 2), None)  # ... and at hi
    @example([F(13, 4), -1, 1], F(1), F(0), F(1), F(1, 2))  # a tie at the vertex, c = 3
    @example([0, 1, -1], F(1, 100), F(0), F(1), None)  # concave: its ends decide, not its vertex
    @example([F(1, 4), -1, 1], F(1, 100), F(1, 2), F(0), None)  # a point cell at the vertex
    @example([F(9, 4), 3, 1], F(1, 100), F(-2), F(1), None)  # (x + 3/2)**2 between negative ends
    @example([F(9, 4), 3, 1], F(-1, 100), F(-2), F(1), None)
    def test_at_least_at_degree_0_to_2(self, coeffs, c, lo, width, tie):
        # tie: c is p's value at lo + tie * width, so c sits on p's range
        e = poly(coeffs)
        hi = lo + width
        if tie is not None:
            c = _value(e.coeffs, lo + tie * width)
            if c == 0:
                reject()
        assert at_least(e, c, lo, hi) == _fraction_at_least(e.coeffs, c, lo, hi)

    @given(rationals, rationals, signed_ends, st.one_of(st.just(F(0)), widths))
    def test_sup_on_at_degree_1(self, a, b, lo, width):
        # the supremum of a + b*x on (lo, hi) is its larger end value
        hi = lo + width
        assert sup_on(affine(a, b), lo, hi) == max(a + b * lo, a + b * hi)

    @given(
        st.lists(long_rationals, min_size=1, max_size=4),
        st.lists(long_rationals, min_size=1, max_size=3),
        signed_ends,
        st.one_of(st.just(F(0)), widths),
    )
    def test_weighted_integral_of_a_polynomial(self, mass, density, a, width):
        # the reference multiplies the Fraction coefficient lists and sums
        # c_k * (b**(k+1) - a**(k+1)) / (k+1)
        b = a + width
        prod = [F(0)] * (len(mass) + len(density) - 1)
        for i, x in enumerate(mass):
            for j, y in enumerate(density):
                prod[i + j] += x * y
        expected = sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k, c in enumerate(prod))
        low, high = exprs.weighted_integral_bounds(poly(mass), poly(density), a, b)
        assert low == high == expected
        assert exprs.poly_integral(poly(exprs.poly_mul(poly(mass).coeffs, density)), a, b) == expected

    @given(st.data())
    def test_nu(self, data):
        # a space (lo, hi) of either sign with a density of degree 0-2 that
        # is nonnegative on it; touching intervals join into one run
        lo, width = data.draw(signed_ends), data.draw(widths)
        hi = lo + width
        c = data.draw(st.fractions(min_value=0, max_value=3, max_denominator=5))
        r = data.draw(signed_ends)
        density = data.draw(st.sampled_from([(c,), (-c * lo, c), (c * r * r + 1, -2 * c * r, c)]))
        sp = IntervalSpace.of(lo, hi, density=density)
        ts = data.draw(st.lists(st.fractions(0, 1, max_denominator=12), min_size=2, max_size=8))
        cuts = sorted({lo + t * width for t in ts})
        keep = data.draw(st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
        ivs = [(a, b) for (a, b), k in zip(zip(cuts, cuts[1:]), keep) if k]

        def antiderivative(x):
            return sum(w * x ** (k + 1) / (k + 1) for k, w in enumerate(density))

        expected = sum((antiderivative(b) - antiderivative(a) for a, b in ivs), F(0))
        assert sp.nu(IntervalSet.of(ivs)) == expected


class TestExactRoots:
    def test_int_nth_root(self):
        assert int_nth_root(27, 3) == 3
        assert int_nth_root(28, 3) is None
        assert int_nth_root(1, 17) == 1
        assert int_nth_root((2**60 + 3) ** 3, 3) == 2**60 + 3
        assert int_nth_root(10**400, 2) == 10**200

    @given(st.integers(0, 2**300 - 1), st.integers(2, 64))
    def test_int_nth_root_is_exact_at_every_size(self, x, k):
        assert int_nth_root(x**k, k) == x
        if x >= 2:  # x**k +- 1 lies strictly between consecutive k-th powers
            assert int_nth_root(x**k + 1, k) is None
            assert int_nth_root(x**k - 1, k) is None

    @given(
        st.sampled_from([F(1, 2), F(3, 2), F(2, 3), F(1, 3), F(5, 4)]),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        st.fractions(min_value=0, max_value=4, max_denominator=12),
        st.fractions(min_value=0, max_value=4, max_denominator=12),
    )
    @example(F(1, 2), [1, -2], F(1, 4), F(4))  # every end power is rational
    @example(F(1, 2), [1, -2], F(1, 4), F(2))
    def test_an_irrational_integral_lies_just_below_its_upper_bound(self, q, density, a, b):
        # against 80 digits of sum_k c_k (b**r - a**r) / r, r = q + k + 1, the
        # bounds enclose it within 1e-15; a negative c_k rounds its ends the
        # other way, and the bounds meet where every end power is rational
        def dec(x):
            return Decimal(x.numerator) / Decimal(x.denominator)

        def power_of(x, r):
            return dec(x) ** dec(r) if x else Decimal(0)

        a, b = min(a, b), max(a, b)
        density = [F(c) for c in density]
        low, high = exprs.weighted_integral_bounds(power(q), poly(density), a, b)
        with localcontext() as ctx:
            ctx.prec = 80
            exact = sum(
                dec(c) * (power_of(b, q + k + 1) - power_of(a, q + k + 1)) / dec(q + k + 1)
                for k, c in enumerate(density)
            )
            slack = Decimal(10) ** -60
            assert exact - Decimal(10) ** -15 <= dec(low) <= exact + slack
            assert exact - slack <= dec(high) <= exact + Decimal(10) ** -15
        rational = all(
            pow_exact(x, q + k + 1) is not None for k, c in enumerate(density) if c for x in (a, b)
        )
        assert (low == high) == rational
        if rational:
            assert low == exprs.weighted_integral(power(q), poly(density), a, b)

    @pytest.mark.parametrize("k", [200, 1000, 5000, 30000])
    def test_a_root_of_high_degree_is_bounded_within_the_bit_bound(self, k):
        # 2**-b with b = MAX_POWER_BITS // k, as (den(x**p) * 2**64)**k
        # would pass the bound; each end rounds by 2**-b, over r = q + 1
        q, a, b = F(1, k), F(1, 3), F(2, 3)
        low, high = exprs.weighted_integral_bounds(power(q), const(1), a, b)
        with localcontext() as ctx:
            ctx.prec = 80
            r = Decimal(k + 1) / k
            exact = ((Decimal(2) / 3) ** r - (Decimal(1) / 3) ** r) / r
            assert Decimal(low.numerator) / low.denominator <= exact
            assert exact <= Decimal(high.numerator) / high.denominator
        assert high - low == F(2, 2 ** (MAX_POWER_BITS // k)) / (q + 1)

    @given(st.integers(0, 2**2000), st.integers(2, 400))
    @example(2, 3)
    @example(2**64, 2**16)
    def test_floor_root_brackets_its_radicand(self, n, k):
        r = exprs._floor_root(n, k)
        assert r**k <= n < (r + 1) ** k

    def test_a_root_of_high_degree_integrates_at_rational_ends(self):
        # 0 and 1 are their own powers, so nothing is rounded: x**(1/1500)
        # integrates to 1500/1501 without a root of 2**64 to the 1500th power
        assert exprs.weighted_integral(power(F(1, 1500)), const(1), F(0), F(1)) == F(1500, 1501)

    def test_nth_root(self):
        assert nth_root(F(4, 9), 2) == F(2, 3)
        assert nth_root(F(2), 2) is None

    def test_pow_exact(self):
        assert pow_exact(F(8), F(2, 3)) == 4
        assert pow_exact(F(2), F(1, 2)) is None
        assert pow_exact(F(0), F(1, 2)) == 0

    def test_powers_stop_at_the_bit_bound(self):
        # (1/4)**10001 has 20003 bits; (1/3)**65535 and 3**65535 would
        # pass MAX_POWER_BITS, so they are refused instead of computed.
        # (1/2)**(1/65535) then lies in the bracket [1/2, 1] of its rounded
        # root: 3 is above it, and 3/4 inside it is refused
        assert pow_exact(F(1, 4), F(10001, 2)) == F(1, 2**10001)
        with pytest.raises(UnsupportedExpressionError):
            pow_exact(F(1, 3), F(65535, 2))
        assert cmp_pow(F(1, 2), F(1, 65535), F(3)) == -1
        with pytest.raises(UnsupportedExpressionError):
            cmp_pow(F(1, 2), F(1, 65535), F(3, 4))
        assert cmp_pow(F(1, 2), F(1, 65535), F(-3)) == 1

    def test_cmp_pow_exact_near_irrational(self):
        # sqrt(2) against tight rational bounds
        assert cmp_pow(F(2), F(1, 2), F(141421356, 100000000)) > 0
        assert cmp_pow(F(2), F(1, 2), F(141421357, 100000000)) < 0

    def test_cmp_pow_brackets_a_bound_past_the_bit_bound(self):
        # (1 + 3**-30000)**3 would pass MAX_POWER_BITS; 2**(1/3) = 1.2599...
        # is bracketed to 64 bits, and so is 27**(1/3) = 3 exactly
        tiny = F(1, 3**30000)
        assert cmp_pow(F(2), F(1, 3), 1 + tiny) == 1
        assert cmp_pow(F(2), F(1, 3), F(13, 10) + tiny) == -1
        assert cmp_pow(F(27), F(1, 3), 3 + tiny) == -1
        assert cmp_pow(F(27), F(1, 3), 3 - tiny) == 1
        low, high = exprs._pow_bounds(F(2), F(1, 3))
        assert high - low == F(1, 2**64)
        assert cmp_pow(F(2), F(1, 3), low) == 1 and cmp_pow(F(2), F(1, 3), high) == -1
        with pytest.raises(UnsupportedExpressionError):  # inside the bracket
            cmp_pow(F(2), F(1, 3), low + tiny)

    @given(
        st.fractions(min_value=F(0), max_value=F(50), max_denominator=40),
        st.fractions(min_value=F(1, 10), max_value=F(4), max_denominator=12),
        st.fractions(min_value=F(0), max_value=F(50), max_denominator=40),
    )
    def test_cmp_pow_matches_floats(self, x, q, c):
        got = cmp_pow(x, q, c)
        approx = float(x) ** float(q) - float(c)
        if abs(approx) > 1e-6:
            assert got == (1 if approx > 0 else -1)


class TestConstructors:
    def test_normalization(self):
        assert affine(3, 0) == const(3)
        assert power(1) == affine(0, 1)
        assert power(2) == poly([0, 0, 1])
        assert poly([1, 2, 0]) == affine(1, 2)
        assert poly([7]) == const(7)

    def test_power_rejects_nonpositive(self):
        with pytest.raises(UnsupportedExpressionError):
            power(0)

    @pytest.mark.parametrize(
        "q",
        [
            "1e5000",
            MAX_DEGREE + 1,
            F(MAX_POWER_BITS + 1, 2),
            F(1, MAX_POWER_BITS + 1),
            F(MAX_POWER_BITS + 1, MAX_POWER_BITS),
        ],
    )
    def test_power_bounds_the_exponent(self, q):
        # refused before x**q is expanded or x is raised to the numerator
        with pytest.raises(UnsupportedExpressionError):
            power(q)

    def test_power_at_the_bound(self):
        q = F(MAX_POWER_BITS - 1, MAX_POWER_BITS)
        assert power(q).q == q
        assert power(MAX_DEGREE).degree == MAX_DEGREE

    def test_poly_bounds_the_degree(self):
        assert poly([1] * (MAX_DEGREE + 1)).degree == MAX_DEGREE
        assert poly([1] + [0] * 400).degree == 0  # the degree counts after trimming
        with pytest.raises(UnsupportedExpressionError):
            poly([1] * (MAX_DEGREE + 2))


# what JSON and the library hand the reader: ints, Fractions, unreduced and
# padded strings, and decimal and exponent strings, which Fraction(str) reads
COEFFICIENTS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**12),
    st.builds(
        lambda n, d, pad: f"{pad}{n}/{d}{pad}", st.integers(-99, 99), st.integers(1, 99), st.sampled_from(["", " "])
    ),
    st.builds(lambda i, f: f"{i}.{f}", st.integers(-99, 99), st.integers(0, 99)),
    st.builds(lambda m, e: f"{m}e{e}", st.integers(-99, 99), st.integers(-3, 3)),
    st.sampled_from(["6/4", " -3/9 ", "-0", "0.5", "1e2", "+3/4", "-2.50", "3E-2"]),
)
ZEROS = st.lists(st.sampled_from([0, "0", "-0", "0/7", "0e3", "0.0", F(0)]), max_size=3)


def _fraction_route(fractions):
    """The canonical form of Fraction coefficients, built here: the trimmed
    Fractions, and their integers over the lcm of the reduced denominators."""
    cs = list(fractions)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    cs = cs or [F(0)]
    den = lcm(*[c.denominator for c in cs])
    return tuple(cs), tuple([c.numerator * (den // c.denominator) for c in cs]), den


def _is_canonical(p):
    """p is trimmed, its denominator positive and prime to its integers."""
    return (len(p.ints) == 1 or p.ints[-1] != 0) and p.den > 0 and gcd(p.den, *p.ints) == 1


class TestReader:
    """poly and const read each coefficient as a pair; the reference reads
    it as a Fraction and builds the canonical form from the trimmed Fractions."""

    @staticmethod
    def assert_same(got, fractions):
        coeffs, ints, den = _fraction_route(fractions)
        assert (got.coeffs, got.ints, got.den) == (coeffs, ints, den)
        ref = exprs.Poly(ints, den)
        assert got == ref and hash(got) == hash(ref)
        assert all(type(c) is F for c in got.coeffs)
        assert got.den > 0 and [F(n, got.den) for n in got.ints] == list(got.coeffs)

    @given(st.lists(COEFFICIENTS, max_size=5), ZEROS)
    @example([], [])
    @example(["6/4", " -3/9 ", "-0", "0.5", "1e2"], ["0", "-0"])
    def test_poly_and_const_match_the_fraction_route(self, cs, zeros):
        cs = cs + zeros
        self.assert_same(poly(cs), [as_fraction(c) for c in cs])
        for c in cs:
            self.assert_same(const(c), [as_fraction(c)])

    @pytest.mark.parametrize("bad", [True, False, 0.5, 1.0, None])
    def test_refuses_what_is_not_an_exact_rational(self, bad):
        for build in (lambda: const(bad), lambda: poly([1, bad]), lambda: poly([bad, 0])):
            with pytest.raises(ParseError):
                build()

    def test_degree_65_keeps_its_message(self):
        with pytest.raises(UnsupportedExpressionError, match=f"^a polynomial's degree must be at most {MAX_DEGREE}$"):
            poly(["1/2"] * (MAX_DEGREE + 2) + ["0"])


# few denominators and small values, so that two draws are often equal
TERMS = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=3)


class TestCanonicalForm:
    """A Poly is ints / den, trimmed, den > 0 and gcd(den, *ints) == 1, so
    equal polynomials hold equal integers."""

    @given(st.lists(COEFFICIENTS, max_size=4), ZEROS, TERMS)
    @example(["2/4", "-6/4"], ["0"], [F(1, 2), F(3, 2)])
    def test_poly_const_and_the_sum_are_canonical(self, cs, zeros, terms):
        p, q = poly(cs + zeros), poly(terms)
        built = [p, q, exprs._plus(p, q, 1), exprs._plus(p, q, -1), exprs._plus(p, p, -1)]
        for e in built + [const(c) for c in cs + zeros]:
            assert _is_canonical(e), e

    @pytest.mark.parametrize("ints, den", [((2,), 4), ((1, 0), 1), ((1,), -1), ((), 1)])
    def test_the_constructor_refuses_any_other_form(self, ints, den):
        # 2/4 would compare unequal to const("1/2"), and sup_on would return it unreduced
        with pytest.raises(ValueError, match="^a Poly is trimmed ints"):
            exprs.Poly(ints, den)

    @given(TERMS, TERMS, ZEROS)
    @example([F(1, 2)], [F(1, 2), 0], [])
    @example([F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)], [])
    def test_equal_exactly_when_the_fractions_are(self, a, b, zeros):
        p, q = poly(a + zeros), poly(b)
        fractions_equal = _fraction_route([as_fraction(c) for c in a + zeros])[0] == _fraction_route(b)[0]
        assert (p == q) == fractions_equal == (p.coeffs == q.coeffs)
        if p == q:
            assert hash(p) == hash(q)

    @given(TERMS, TERMS)
    @example([F(1, 2), F(1, 3)], [F(1, 2), F(1, 3)])
    def test_the_sum_and_difference_are_the_fraction_ones(self, a, b):
        p, q = poly(a), poly(b)
        pairs = list(zip_longest(p.coeffs, q.coeffs, fillvalue=F(0)))
        for s, total in ((1, [x + y for x, y in pairs]), (-1, [x - y for x, y in pairs])):
            got = exprs._plus(p, q, s)
            assert got == poly(total)
            assert (got.coeffs, got.ints, got.den) == _fraction_route(total)


class TestEvalAndBounds:
    def test_at_least_power_point_no_eval(self):
        # decidable even where the power value is irrational
        assert at_least(power(F(1, 2)), F(1), F(2), F(2))
        assert not at_least(power(F(1, 2)), F(2), F(2), F(2))

    def test_check_piece_rejects_negative_coordinates(self):
        for pi1, pi2 in [(affine(1, -2), const(1)), (const(1), affine(1, -2))]:
            with pytest.raises(UnsupportedExpressionError):
                exprs.check_piece(pi1, pi2, F(0), F(1))
        exprs.check_piece(affine(1, -2), const(1), F(0), F(1, 2))  # 0 at the end is fine

    def test_sup(self):
        assert sup_on(const(5), F(0), F(1)) == 5
        assert sup_on(affine(0, 1), F(0), F(1)) == 1
        assert sup_on(affine(1, -2), F(0), F(1)) == 1
        assert sup_on(power(F(1, 2)), F(0), F(2)) is None  # sqrt(2)
        with pytest.raises(UnsupportedExpressionError):
            sup_on(poly([0, 0, 1]), F(0), F(1))

    def test_cmp_sup(self):
        # a power's irrational supremum at hi compares exactly, an affine
        # map's supremum is its larger end value
        assert cmp_sup(power(F(1, 2)), F(0), F(2), F(141421356, 100000000)) == 1
        assert cmp_sup(power(F(1, 2)), F(0), F(2), F(141421357, 100000000)) == -1
        assert cmp_sup(power(F(1, 2)), F(0), F(4), F(2)) == 0
        assert cmp_sup(affine(1, -2), F(0), F(1, 2), F(1)) == 0
        assert cmp_sup(affine(0, 1), F(0), F(1, 2), F(1)) == -1
        assert cmp_sup(const(0), F(0), F(1), F(-1)) == 1
        with pytest.raises(UnsupportedExpressionError):
            cmp_sup(poly([0, 0, 1]), F(0), F(1), F(1))


class TestSplitAgainstAConstant:
    """The cells of e against a constant c: below, equal to and above c."""

    def test_const(self):
        assert split_dominance(const(1), const(2), F(0), F(1)) == [(0, 1, -1)]
        assert split_dominance(const(2), const(2), F(0), F(1)) == [(0, 1, 0)]
        assert split_dominance(const(3), const(2), F(0), F(1)) == [(0, 1, 1)]

    def test_affine(self):
        half = const(F(1, 2))
        cells = split_dominance(affine(0, 1), half, F(0), F(1))
        assert cells == [(0, F(1, 2), -1), (F(1, 2), 1, 1)]
        cells = split_dominance(affine(1, -1), half, F(0), F(1))
        assert cells == [(0, F(1, 2), 1), (F(1, 2), 1, -1)]

    def test_power(self):
        cells = split_dominance(power(F(1, 2)), const(F(1, 2)), F(0), F(1))
        assert cells == [(0, F(1, 4), -1), (F(1, 4), 1, 1)]
        # x^(2/3) < 2 crosses at 2^(3/2), which is irrational
        with pytest.raises(UnsupportedExpressionError):
            split_dominance(power(F(2, 3)), const(2), F(0), F(3))

    def test_power_trivial_sides(self):
        assert split_dominance(power(F(1, 2)), const(2), F(0), F(1)) == [(0, 1, -1)]
        assert split_dominance(power(F(1, 2)), const(0), F(0), F(1)) == [(0, 1, 1)]


class TestSplitDominance:
    def test_identical(self):
        assert split_dominance(power(F(1, 2)), power(F(1, 2)), F(0), F(1)) == [
            (0, 1, 0)
        ]

    def test_affine_crossing(self):
        cells = split_dominance(affine(0, 1), const(F(1, 2)), F(0), F(1))
        assert cells == [(0, F(1, 2), -1), (F(1, 2), 1, 1)]

    def test_power_vs_power_cross_at_one(self):
        cells = split_dominance(power(F(1, 2)), power(F(1, 3)), F(1, 2), F(2))
        assert cells == [(F(1, 2), 1, -1), (1, 2, 1)]

    def test_power_vs_const(self):
        cells = split_dominance(const(F(1, 2)), power(F(1, 2)), F(0), F(1))
        assert cells == [(0, F(1, 4), 1), (F(1, 4), 1, -1)]

    def test_undecidable_raises(self):
        with pytest.raises(UnsupportedExpressionError):
            split_dominance(power(F(1, 2)), affine(1, 1), F(0), F(1))


# Expressions for the properties below.  Constants include exact powers
# so that a power meets them at a rational point often enough; a power
# is only drawn on a cell with lo >= 0.
small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
exact_powers = st.builds(
    lambda v, k: v**k,
    st.fractions(min_value=0, max_value=2, max_denominator=4),
    st.sampled_from([2, 3, 6]),
)
consts = st.builds(const, st.one_of(small, exact_powers))
affines = st.builds(affine, small, small.filter(lambda b: b != 0))
powers = st.builds(power, st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(5, 2)]))


@st.composite
def cells(draw, nonneg: bool):
    lo = draw(st.fractions(min_value=0 if nonneg else -4, max_value=3, max_denominator=8))
    return lo, lo + draw(st.fractions(min_value=F(1, 8), max_value=3, max_denominator=8))


@st.composite
def dominance_cases(draw):
    """(e1, e2, lo, hi) from const/affine/power, with lo >= 0 when a
    power appears; a power meets a constant or another power only."""
    if draw(st.booleans()):
        e1, e2 = draw(st.one_of(consts, affines)), draw(st.one_of(consts, affines))
        lo, hi = draw(cells(nonneg=False))
    else:
        e1, e2 = draw(powers), draw(st.one_of(consts, powers))
        if draw(st.booleans()):
            e1, e2 = e2, e1
        lo, hi = draw(cells(nonneg=True))
    return e1, e2, lo, hi


def _exact_sign(e1, e2, x):
    """sign(e1(x) - e2(x)), decided here rather than by the code under test."""
    if isinstance(e1, exprs.Power) and isinstance(e2, exprs.Power):
        # x**q1 - x**q2 has the sign of (q1 - q2) * log x for x > 0
        return ((e1.q > e2.q) - (e1.q < e2.q)) * ((x > 1) - (x < 1))
    if isinstance(e2, exprs.Power):
        return -_exact_sign(e2, e1, x)
    c = exprs.poly_eval(e2.coeffs, x)
    if isinstance(e1, exprs.Power):
        if c <= 0:
            return 1
        lhs, rhs = x**e1.q.numerator, c**e1.q.denominator
    else:
        lhs, rhs = exprs.poly_eval(e1.coeffs, x), c
    return (lhs > rhs) - (lhs < rhs)


SPACE_0_4 = IntervalSpace.of(0, 4)
nonneg = st.one_of(st.fractions(min_value=0, max_value=4, max_denominator=6), exact_powers)


def _coordinate(lo, hi, mass):
    """A coordinate that is nonnegative on (lo, hi): a constant, the
    affine map through two values at the ends, a power, and for a mass
    also (x - r)**2."""
    through = lambda y0, y1: affine(y0 - (y1 - y0) / (hi - lo) * lo, (y1 - y0) / (hi - lo))
    options = [st.builds(const, nonneg), st.builds(through, nonneg, nonneg), powers]
    if mass:
        options.append(st.builds(lambda r: poly([r * r, -2 * r, 1]), nonneg))
    return st.one_of(options)


def _values(e, lo, hi):
    """The rational values e takes at the ends and the middle of (lo, hi)."""
    xs = (lo, (lo + hi) / 2, hi)
    if isinstance(e, exprs.Power):
        return [y for x in xs if (y := pow_exact(x, e.q)) is not None]
    return [exprs.poly_eval(e.coeffs, x) for x in xs]


@st.composite
def sublevel_cases(draw):
    """(f, v) on the space (0, 4): pieces between sorted edges, some left
    out as gaps and some touching; v's coordinates are often values that
    f's coordinates take, so that f meets v at points and on pieces."""
    edges = sorted(
        draw(st.sets(st.fractions(min_value=0, max_value=4, max_denominator=4), min_size=2, max_size=6))
    )
    pieces = [
        (lo, hi, draw(_coordinate(lo, hi, False)), draw(_coordinate(lo, hi, True)))
        for lo, hi in zip(edges, edges[1:])
        if draw(st.booleans())
    ]
    dims = [y for lo, hi, pi1, _ in pieces for y in _values(pi1, lo, hi)]
    masses = [y for lo, hi, _, pi2 in pieces for y in _values(pi2, lo, hi)]
    d = draw(st.one_of([nonneg] + ([st.sampled_from(dims)] if dims else [])))
    m = draw(
        st.one_of(
            [small, st.sampled_from([INF, NEG_INF])]
            + ([st.sampled_from(masses)] if masses else [])
        )
    )
    return PiecewiseFn.of(pieces), HValue.of(d, m)


def _crossings(e, c, lo, hi):
    """The rational points of (lo, hi) where a constant, affine map,
    quadratic or power equals c."""
    if isinstance(e, exprs.Power):
        ts = [nth_root(c**e.q.denominator, e.q.numerator)] if c > 0 else []
    elif e.degree == 1:
        ts = [(c - e.coeffs[0]) / e.coeffs[1]]
    elif e.degree == 2:
        a0, a1, a2 = e.coeffs
        disc = a1 * a1 - 4 * a2 * (a0 - c)
        root = nth_root(disc, 2) if disc >= 0 else None
        ts = [] if root is None else [(-a1 - root) / (2 * a2), (-a1 + root) / (2 * a2)]
    else:
        ts = []
    return {t for t in ts if t is not None and lo < t < hi}


def _below(f, v, x):
    """f(x) < v, decided here rather than by the code under test; f is
    (0, 0) off its pieces."""
    for p in f.pieces:
        if p.lo < x < p.hi:
            s = _exact_sign(p.pi1, const(v.d), x)
            if s != 0:
                return s < 0
            if not v.m.is_finite:
                return v.m == INF
            return _exact_sign(p.pi2, const(v.m.frac), x) < 0
    return ZERO < v


class TestDecisionProperties:
    @given(dominance_cases())
    @example((power(F(1, 2)), power(F(1, 3)), F(1, 2), F(2)))
    def test_split_dominance_tiles_the_cell_with_exact_signs(self, case):
        e1, e2, lo, hi = case
        try:
            parts = split_dominance(e1, e2, lo, hi)
        except UnsupportedExpressionError:
            reject()  # an irrational crossing cannot be cut exactly
        assert parts[0][0] == lo and parts[-1][1] == hi
        for (_, b, _), (a, _, _) in zip(parts, parts[1:]):
            assert b == a
        for a, b, sign in parts:
            assert a < b
            for k in (1, 2, 3):
                assert _exact_sign(e1, e2, a + (b - a) * k / 4) == sign

    @given(sublevel_cases())
    @example((PiecewiseFn.of([(0, 1, affine(1, -1), const(1))]), HValue.of(F(1, 2), 2)))
    def test_sublevel_set_holds_exactly_the_points_below(self, case):
        f, v = case
        try:
            below = sublevel_set(SPACE_0_4, f, v)
        except UnsupportedExpressionError:
            reject()  # an irrational crossing
        edges = sorted({F(0), F(4)} | {x for p in f.pieces for x in (p.lo, p.hi)})
        xs = set(edges[1:-1]) | {(a + b) / 2 for a, b in zip(edges, edges[1:])}
        for p in f.pieces:
            xs |= _crossings(p.pi1, v.d, p.lo, p.hi)
            if v.m.is_finite:
                xs |= _crossings(p.pi2, v.m.frac, p.lo, p.hi)
        for x in xs:
            assert (x in below) == _below(f, v, x), x


class TestQuadraticDominance:
    """split_dominance of a degree-2 difference against its known roots."""

    @given(small, small, st.sampled_from([1, -1, F(2, 3)]), st.one_of(consts, affines), cells(nonneg=False))
    @example(F(0), F(2), 1, const(1), (F(0), F(4)))  # (x - 1)**2 against 1 on (0, 4)
    @example(F(1), F(1), -1, affine(1, 1), (F(0), F(2)))  # a double root: no sign change
    def test_cut_at_rational_roots(self, r1, r2, a, g, cell):
        # e1 = a * (x - r1) * (x - r2) + g against e2 = g
        lo, hi = cell
        product = exprs.poly_mul((-a * r1, F(a)), (-r2, F(1)))
        e1 = try_add(poly(product), g)
        edges = [lo] + sorted({r for r in (r1, r2) if lo < r < hi}) + [hi]
        expected = []
        for x, y in zip(edges, edges[1:]):
            v = a * ((x + y) / 2 - r1) * ((x + y) / 2 - r2)
            expected.append((x, y, (v > 0) - (v < 0)))
        assert split_dominance(e1, g, lo, hi) == expected

    @given(
        st.fractions(min_value=F(1, 9), max_value=20, max_denominator=9).filter(lambda k: nth_root(k, 2) is None),
        cells(nonneg=False),
    )
    @example(F(2), (F(0), F(2)))  # sqrt(2) inside
    @example(F(2), (F(-1), F(1)))  # both roots outside
    def test_an_irrational_crossing_inside_raises(self, k, cell):
        # x**2 - k crosses 0 at +-sqrt(k); sqrt(k) > x is decided by squaring
        lo, hi = cell
        inside = (_sqrt_above(k, lo) and not _sqrt_above(k, hi)) or (
            not _sqrt_above(k, -lo) and _sqrt_above(k, -hi)
        )
        if inside:
            with pytest.raises(UnsupportedExpressionError, match="irrational root"):
                split_dominance(poly([0, 0, 1]), const(k), lo, hi)
        else:
            mid = (lo + hi) / 2
            sign = 1 if mid * mid > k else -1
            assert split_dominance(poly([0, 0, 1]), const(k), lo, hi) == [(lo, hi, sign)]

    def test_sublevel_set_of_a_quadratic_mass(self):
        # (x - 1)**2 < 1 on (0, 2) of the piece (0, 4) whose dimension is the level's
        f = PiecewiseFn.of([(0, 4, const(1), poly([1, -2, 1]))])
        assert sublevel_set(SPACE_0_4, f, HValue.of(1, 1)) == IntervalSet.of([(0, 2)])


class TestTryAdd:
    def test_poly_sums(self):
        assert try_add(affine(1, 2), const(3)) == affine(4, 2)
        assert try_add(poly([0, 0, 1]), affine(0, 1)) == poly([0, 1, 1])

    def test_power_sum_leaves_grammar(self):
        with pytest.raises(UnsupportedExpressionError):
            try_add(power(F(1, 2)), const(1))


def _fraction_dominance(e1, e2, lo, hi):
    """split_dominance of two polynomials of degree <= 2 by the Fraction
    formula: the trimmed Fraction difference d, cut at its rational roots
    and signed by poly_eval; None where an irrational root lies inside,
    found by a sign change between the ends, or between an end and the
    vertex inside."""
    d = [x - y for x, y in zip_longest(e1.coeffs, e2.coeffs, fillvalue=F(0))]
    while len(d) > 1 and d[-1] == 0:
        d.pop()
    value = lambda x: exprs.poly_eval(d, x)
    cuts = [-d[0] / d[1]] if len(d) == 2 else []
    if len(d) == 3:
        disc, vertex = d[1] ** 2 - 4 * d[0] * d[2], -d[1] / (2 * d[2])
        root = nth_root(disc, 2) if disc >= 0 else None
        if root is not None:
            cuts = [vertex - root / (2 * d[2]), vertex + root / (2 * d[2])]
        elif disc > 0 and (value(lo) * value(hi) < 0 or (lo < vertex < hi and value(lo) * value(vertex) < 0)):
            return None
    edges = [lo] + sorted({t for t in cuts if lo < t < hi}) + [hi]
    signs = [value((a + b) / 2) for a, b in zip(edges, edges[1:])]
    return [(a, b, (v > 0) - (v < 0)) for a, b, v in zip(edges, edges[1:], signs)]


def _fraction_power_bounds(q, density, lo, hi):
    """weighted_integral_bounds of x**q by the Fraction formula: each density
    coefficient c_k as a Fraction times the rounded end powers of x**(q+k+1)."""
    low = high = F(0)
    for k, c in enumerate(density):
        if c == 0:
            continue
        r = q + k + 1
        (lo_down, lo_up), (hi_down, hi_up) = exprs._pow_bounds(lo, r), exprs._pow_bounds(hi, r)
        ends = c * (hi_down - lo_up) / r, c * (hi_up - lo_down) / r
        low, high = low + min(ends), high + max(ends)
    return low, high


quadratics = st.builds(lambda a, b, c: poly([a, b, c]), small, small, st.sampled_from([0, 1, F(-1, 2), F(2, 3)]))
polys_to_degree_2 = st.one_of(consts, affines, quadratics)
DENSITIES = [(F(1, 3), 0, F(2, 5)), (1, F(-1, 2))]


class TestFractionPins:
    """The integer branches against the Fraction formulas they replace."""

    @given(polys_to_degree_2, polys_to_degree_2, cells(nonneg=False))
    @example(affine(F(1, 3), F(1, 2)), affine(0, F(1, 3)), (F(-4), F(1)))
    @example(poly([1, 0, 1]), poly([0, 1, 1]), (F(0), F(2)))
    @example(poly([1, 0, 1]), affine(0, 1), (F(0), F(2)))
    def test_split_dominance_and_try_add(self, e1, e2, cell):
        lo, hi = cell
        cells_ref = _fraction_dominance(e1, e2, lo, hi)
        if cells_ref is None:
            with pytest.raises(UnsupportedExpressionError):
                split_dominance(e1, e2, lo, hi)
        else:
            assert split_dominance(e1, e2, lo, hi) == cells_ref
        total = [x + y for x, y in zip_longest(e1.coeffs, e2.coeffs, fillvalue=F(0))]
        while len(total) > 1 and total[-1] == 0:
            total.pop()
        assert try_add(e1, e2).coeffs == tuple(total)
        assert try_add(e1, e2) == poly(total)

    @given(
        st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(5, 2)]),
        st.one_of(
            st.sampled_from(DENSITIES),
            st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12), min_size=1, max_size=4),
        ),
        cells(nonneg=True),
    )
    @example(F(1, 2), DENSITIES[0], (F(0), F(2)))
    @example(F(1, 3), DENSITIES[1], (F(1, 2), F(3)))
    def test_weighted_integral_bounds_of_a_power(self, q, density, cell):
        lo, hi = cell
        got = exprs.weighted_integral_bounds(power(q), poly(density), lo, hi)
        assert got == _fraction_power_bounds(q, [F(c) for c in density], lo, hi)

    @pytest.mark.parametrize(
        "density, exact", [(DENSITIES[0], F(1, 3) * F(2, 3) + F(2, 5) * F(2, 7)), (DENSITIES[1], F(2, 3) - F(1, 5))]
    )
    def test_a_root_under_a_density_on_the_unit_interval(self, density, exact):
        # x**(1/2) * (c0 + c1*x + c2*x**2) on (0, 1): sum c_k / (k + 3/2)
        assert exprs.weighted_integral_bounds(power(F(1, 2)), poly(density), F(0), F(1)) == (exact, exact)


class TestJson:
    def test_parse(self):
        golden = [
            (const(3), {"kind": "const", "value": "3"}),
            (affine(1, -2), {"kind": "affine", "a": "1", "b": "-2"}),
            (poly([1, 0, 0, 4]), {"kind": "poly", "coeffs": ["1", "0", "0", "4"]}),
            (power(F(2, 3)), {"kind": "pow", "q": "2/3"}),
            (const(3), {"kind": "affine", "a": "3", "b": "0"}),
        ]
        for e, obj in golden:
            assert expr_from_json(obj) == e

    @pytest.mark.parametrize("obj", ["1", 1, True, None, [1], ["kind", "const"]], ids=repr)
    def test_an_expression_that_is_not_an_object_is_named(self, obj):
        with pytest.raises(ParseError) as refused:
            expr_from_json(obj)
        assert str(refused.value) == f"an expression must be an object, got {obj!r}"
