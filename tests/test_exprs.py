"""Expression grammar tests: exact roots, comparisons, sublevel solving."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hintegral import exprs
from hintegral.errors import UnsupportedExpressionError
from hintegral.exprs import (
    EQ_ALL,
    EqAll,
    affine,
    cmp_at,
    cmp_pow,
    cmp_pow_pow,
    const,
    eval_exact,
    expr_from_json,
    expr_to_json,
    inf_on,
    int_nth_root,
    nth_root,
    poly,
    pow_exact,
    power,
    solve_below,
    split_dominance,
    sup_on,
    try_add,
)


class TestPolyHelpers:
    def test_eval(self):
        assert exprs.poly_eval((F(1), F(2), F(3)), F(2)) == 1 + 4 + 12

    def test_mul(self):
        assert exprs.poly_mul((F(1), F(1)), (F(1), F(-1))) == (F(1), F(0), F(-1))

    def test_integral(self):
        # int_0^1 x^2 dx = 1/3
        assert exprs.poly_integral((F(0), F(0), F(1)), F(0), F(1)) == F(1, 3)

    def test_lipschitz_is_a_bound(self):
        coeffs = (F(1), F(-3), F(2), F(5))
        bound = exprs.poly_lipschitz_bound(coeffs, F(0), F(1))
        deriv = exprs.poly_deriv(coeffs)
        for k in range(11):
            assert abs(exprs.poly_eval(deriv, F(k, 10))) <= bound


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=20)
widths = st.fractions(min_value=F(1, 20), max_value=5, max_denominator=20)


class TestPolyLowerBound:
    @given(
        st.lists(rationals, min_size=1, max_size=6),
        rationals,
        widths,
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=50), max_size=5),
    )
    def test_never_exceeds_p_on_the_cell(self, coeffs, lo, width, ts):
        bound = exprs.poly_lower_bound(coeffs, lo, lo + width)
        for x in [lo, lo + width] + [lo + t * width for t in ts]:
            assert bound <= exprs.poly_eval(coeffs, x)

    @given(st.fractions(min_value=0, max_value=100, max_denominator=50), widths)
    def test_exact_for_increasing_square(self, lo, width):
        assert exprs.poly_lower_bound((F(1), F(0), F(1)), lo, lo + width) == 1 + lo * lo


class TestExactRoots:
    def test_int_nth_root(self):
        assert int_nth_root(27, 3) == 3
        assert int_nth_root(28, 3) is None
        assert int_nth_root(1, 17) == 1
        assert int_nth_root((2**60 + 3) ** 3, 3) == 2**60 + 3
        assert int_nth_root(10**400, 2) == 10**200

    @given(st.integers(0, 2**300 - 1), st.integers(2, 7))
    def test_int_nth_root_is_exact_at_every_size(self, x, k):
        assert int_nth_root(x**k, k) == x
        if x >= 2:  # x**k +- 1 lies strictly between consecutive k-th powers
            assert int_nth_root(x**k + 1, k) is None
            assert int_nth_root(x**k - 1, k) is None

    def test_nth_root(self):
        assert nth_root(F(4, 9), 2) == F(2, 3)
        assert nth_root(F(2), 2) is None

    def test_pow_exact(self):
        assert pow_exact(F(8), F(2, 3)) == 4
        assert pow_exact(F(2), F(1, 2)) is None
        assert pow_exact(F(0), F(1, 2)) == 0

    def test_cmp_pow_exact_near_irrational(self):
        # sqrt(2) against tight rational bounds
        assert cmp_pow(F(2), F(1, 2), F(141421356, 100000000)) > 0
        assert cmp_pow(F(2), F(1, 2), F(141421357, 100000000)) < 0

    def test_cmp_pow_pow(self):
        assert cmp_pow_pow(F(1, 2), F(1, 2), F(1, 3)) < 0  # x^(1/2) < x^(1/3) below 1
        assert cmp_pow_pow(F(2), F(1, 2), F(1, 3)) > 0
        assert cmp_pow_pow(F(1), F(1, 2), F(1, 3)) == 0

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


class TestEvalAndBounds:
    def test_eval_exact(self):
        assert eval_exact(power(F(1, 2)), F(9, 4)) == F(3, 2)
        with pytest.raises(UnsupportedExpressionError):
            eval_exact(power(F(1, 2)), F(2))

    def test_cmp_at_power_no_eval(self):
        # decidable even where the power value is irrational
        assert cmp_at(power(F(1, 2)), F(2), F(1)) > 0
        assert cmp_at(power(F(1, 2)), F(2), F(2)) < 0

    def test_sup_inf(self):
        assert sup_on(const(5), F(0), F(1)) == (5, True)
        assert sup_on(affine(0, 1), F(0), F(1)) == (1, False)
        assert sup_on(affine(1, -2), F(0), F(1)) == (1, False)
        assert inf_on(power(F(1, 2)), F(0), F(1)) == (0, False)
        with pytest.raises(UnsupportedExpressionError):
            sup_on(power(F(1, 2)), F(0), F(2))
        with pytest.raises(UnsupportedExpressionError):
            sup_on(poly([0, 0, 1]), F(0), F(1))


class TestSolveBelow:
    def test_const(self):
        assert solve_below(const(1), F(2), F(0), F(1)) == ([(0, 1)], [])
        below, eq = solve_below(const(2), F(2), F(0), F(1))
        assert below == [] and isinstance(eq, EqAll)
        assert solve_below(const(3), F(2), F(0), F(1)) == ([], [])

    def test_affine(self):
        below, eq = solve_below(affine(0, 1), F(1, 2), F(0), F(1))
        assert below == [(0, F(1, 2))] and eq == [F(1, 2)]
        below, eq = solve_below(affine(1, -1), F(1, 2), F(0), F(1))
        assert below == [(F(1, 2), 1)] and eq == [F(1, 2)]

    def test_power(self):
        below, eq = solve_below(power(F(1, 2)), F(1, 2), F(0), F(1))
        assert below == [(0, F(1, 4))] and eq == [F(1, 4)]
        # x^(2/3) < 2 crosses at 2^(3/2), which is irrational
        with pytest.raises(UnsupportedExpressionError):
            solve_below(power(F(2, 3)), F(2), F(0), F(3))

    def test_power_trivial_sides(self):
        assert solve_below(power(F(1, 2)), F(2), F(0), F(1)) == ([(0, 1)], [])
        assert solve_below(power(F(1, 2)), F(0), F(0), F(1)) == ([], [])


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


class TestTryAdd:
    def test_poly_sums(self):
        assert try_add(affine(1, 2), const(3)) == affine(4, 2)
        assert try_add(poly([0, 0, 1]), affine(0, 1)) == poly([0, 1, 1])

    def test_power_sum_leaves_grammar(self):
        with pytest.raises(UnsupportedExpressionError):
            try_add(power(F(1, 2)), const(1))


class TestJson:
    def test_round_trip(self):
        for e in [const(3), affine(1, -2), power(F(2, 3)), poly([1, 0, 0, 4])]:
            assert expr_from_json(expr_to_json(e)) == e
