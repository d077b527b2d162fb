"""Integral engine tests: simple sums, the closed-form evaluation,
certificates, sublevel sets, pointwise sums, and the worked examples."""

from fractions import Fraction as F

import pytest

from hintegral import exprs
from hintegral.errors import (
    NonDisjointError,
    UnknownSetError,
    UnsupportedExpressionError,
)
from hintegral.hvalue import INF, ZERO, ExtRat, HValue
from hintegral.space import (
    AtomSet,
    AtomSpace,
    CatalogSet,
    CatalogSpace,
    CatalogUnion,
    IntervalSet,
    IntervalSpace,
    scaled_embedding,
)
from hintegral.integral import (
    PiecewiseFn,
    SimpleFn,
    constant_fn,
    ess_sup,
    function_from_json,
    function_to_json,
    graded_integral,
    indefinite,
    integrate,
    integrate_ordinary,
    integrate_simple,
    pointwise_add_fn,
    sublevel_set,
    verify_certificate,
)

H = HValue.of

UNIT = IntervalSpace.of(0, 1, dim_offset=1)


def piecewise(*pieces):
    return PiecewiseFn.of(list(pieces))


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
        sp = AtomSpace.of({"a": H(1, 2)})
        f = SimpleFn(
            ((H(1, 1), AtomSet.of("a")), (H(2, 1), AtomSet.of("a"))), False
        )
        with pytest.raises(NonDisjointError):
            integrate_simple(sp, f)

    def test_simple_rejects_infinite_coeff(self):
        with pytest.raises(ValueError):
            SimpleFn.of([(HValue(F(1), INF), AtomSet.of("a"))])
        # but i-simple functions allow it
        SimpleFn.of([(HValue(F(1), INF), AtomSet.of("a"))], i_simple=True)

    def test_empty_function(self):
        sp = AtomSpace.of({"a": H(1, 2)})
        assert integrate_simple(sp, SimpleFn.of([])) == ZERO


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
        assert not cert.exact_m  # dyadic lower family only
        assert cert.achieved_m < v.m
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
        v, _ = integrate(UNIT, f, on=IntervalSet.of([(0, F(1, 2))]))
        assert v == H(2, "1/2")

    def test_restriction_to_null_set(self):
        f = constant_fn(0, 1, H(1, 1))
        v, _ = integrate(UNIT, f, on=IntervalSet.of(points=[F(1, 2)]))
        assert v == ZERO

    def test_irrational_sup_raises(self):
        sp = IntervalSpace.of(0, 2, dim_offset=1)
        f = piecewise((0, 2, exprs.power(F(1, 2)), exprs.const(1)))
        with pytest.raises(UnsupportedExpressionError):
            integrate(sp, f)


class TestCertificates:
    def test_unattained_sup_ladder(self):
        f = piecewise((0, 1, exprs.affine(0, 1), exprs.const(1)))
        v, cert = integrate(UNIT, f)
        assert v == H(2, 0)
        assert len(cert.d_witnesses) == 3
        for w in cert.d_witnesses:
            assert w.inf_bound > ZERO
            assert w.measure > ZERO
        assert verify_certificate(UNIT, f, cert)

    def test_dimension_witness_for_mass_with_an_interior_zero(self):
        sp = IntervalSpace.of(0, 1)
        f = piecewise((0, 1, exprs.const(0), exprs.poly([F(1, 4), -1, 1])))
        v, cert = integrate(sp, f)
        assert v == H(0, F(1, 12))  # int (x - 1/2)^2 = 1/12
        assert len(cert.d_witnesses) == 1
        assert cert.d_witnesses[0].inf_bound > ZERO
        assert verify_certificate(sp, f, cert)

    def test_tampered_certificate_fails(self):
        f = constant_fn(0, 1, H(1, 1))
        v, cert = integrate(UNIT, f)
        from dataclasses import replace

        bad = replace(cert, value=H(2, 2), achieved_m=ExtRat(2))
        assert not verify_certificate(UNIT, f, bad)

    def test_atom_certificate(self):
        sp = AtomSpace.of({"a": H(1, "inf"), "b": H(0, 3)})
        f = SimpleFn.of([(H(1, 2), AtomSet.of("a")), (H(0, 1), AtomSet.of("b"))])
        v, cert = integrate(sp, f)
        assert v == H(2, "inf")
        assert cert.exact_m
        assert verify_certificate(sp, f, cert)

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
        assert s == IntervalSet.of([(0, F(1, 4)), (F(1, 2), 1)])

    def test_infinite_threshold(self):
        f = piecewise((0, 1, exprs.const(1), exprs.affine(0, 1)))
        s = sublevel_set(UNIT, f, HValue(F(1), INF))
        assert s == IntervalSet.of([(0, 1)])


class TestPointwiseAdd:
    def test_atoms(self):
        f = SimpleFn.of([(H(1, 2), AtomSet.of("a"))])
        g = SimpleFn.of([(H(1, 3), AtomSet.of("a")), (H(0, 1), AtomSet.of("b"))])
        h = pointwise_add_fn(f, g)
        assert h.value_at_atom("a") == H(1, 5)
        assert h.value_at_atom("b") == H(0, 1)

    def test_piecewise_dominance_split(self):
        f = piecewise((0, 1, exprs.affine(0, 1), exprs.const(1)))
        g = piecewise((0, 1, exprs.const(F(1, 2)), exprs.const(2)))
        h = pointwise_add_fn(f, g)
        v, _ = integrate(UNIT, h)
        # right half dominated by (x, 1), left half by (1/2, 2)
        lo = h.value_at(F(1, 4))
        hi = h.value_at(F(3, 4))
        assert lo == H(F(1, 2), 2) and hi == H(F(3, 4), 1)

    def test_equal_dims_add_masses(self):
        f = piecewise((0, 1, exprs.const(1), exprs.affine(0, 1)))
        g = piecewise((0, 1, exprs.const(1), exprs.const(2)))
        h = pointwise_add_fn(f, g)
        assert h.value_at(F(1, 2)) == H(1, "5/2")

    def test_additivity_law(self):
        f = piecewise((0, 1, exprs.const(1), exprs.affine(0, 1)))
        g = piecewise((0, F(1, 2), exprs.const(1), exprs.const(2)))
        from hintegral.hvalue import add

        lhs, _ = integrate(UNIT, pointwise_add_fn(f, g))
        a, _ = integrate(UNIT, f)
        b, _ = integrate(UNIT, g)
        assert lhs == add(a, b)


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

    def test_ess_sup_ignores_null(self):
        sp = AtomSpace.of({"a": H(1, 2), "b": ZERO})
        assert ess_sup(sp, {"a": F(1, 2), "b": F(100)}) == F(1, 2)

    def test_ess_sup_interval(self):
        sp = IntervalSpace.of(0, 1)
        g = [(0, F(1, 2), exprs.const(3)), (F(1, 2), 1, exprs.const(5))]
        assert ess_sup(sp, g) == 5

    def test_ordinary_agreement_atoms(self):
        sp = scaled_embedding(0, {"a": 2, "b": 3})
        f = SimpleFn.of([(H(1, 1), AtomSet.of("a")), (H(1, 4), AtomSet.of("b"))])
        assert integrate_ordinary(sp, f) == integrate(sp, f)[0] == H(1, 14)

    def test_ordinary_needs_dim0(self):
        with pytest.raises(ValueError):
            integrate_ordinary(UNIT, constant_fn(0, 1, H(1, 1)))


class TestIndefinite:
    def test_is_additive(self):
        from hintegral.hvalue import add

        f = constant_fn(0, 1, H(1, 1))
        nu = indefinite(UNIT, f)
        left = IntervalSet.of([(0, F(1, 3))])
        right = IntervalSet.of([(F(1, 3), 1)])
        whole = IntervalSet.of([(0, 1)])
        assert nu(whole) == add(nu(left), nu(right))

    def test_empty_is_zero(self):
        f = constant_fn(0, 1, H(1, 1))
        nu = indefinite(UNIT, f)
        assert nu(IntervalSet.of()) == ZERO


class TestFunctionJson:
    def test_simple_round_trip(self):
        f = SimpleFn.of([(H(1, "inf"), AtomSet.of("a"))], i_simple=True)
        assert function_from_json(function_to_json(f)) == f

    def test_piecewise_round_trip(self):
        f = PiecewiseFn.of(
            [(0, F(1, 2), exprs.power(F(1, 2)), exprs.poly([0, 1, 1]))]
        )
        assert function_from_json(function_to_json(f)) == f
