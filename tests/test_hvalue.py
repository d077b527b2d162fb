"""Value semiring unit tests: order, arithmetic, series, rendering."""

import itertools
import operator
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hintegral.errors import ParseError, UndefinedSumError
from hintegral.hvalue import (
    INF,
    MAX_POWER_BITS,
    NEG_INF,
    ZERO,
    ExtRat,
    HValue,
    SeqDescriptor,
    add,
    as_ext,
    as_fraction,
    as_pair,
    mul,
    scalar_mul,
    sum_described,
    sum_finite,
)

H = HValue.of


rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=100
)
nonneg_rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(100), max_denominator=100
)
masses = st.one_of(rationals.map(ExtRat), st.sampled_from([INF, NEG_INF]))
nonneg_masses = st.one_of(nonneg_rationals.map(ExtRat), st.just(INF))
hvalues = st.builds(HValue, nonneg_rationals, masses)
hnonneg = st.builds(HValue, nonneg_rationals, nonneg_masses)


class TestOrder:
    def test_lexicographic(self):
        assert H(1, -100) > H(0, 100)
        assert H(1, 2) > H(1, 1)
        assert H("1/2", 0) < H("2/3", 0)

    def test_infinities(self):
        assert H(0, "inf") > H(0, 100)
        assert H(0, "-inf") < H(0, -100)
        assert H(1, 0) > H(0, "inf")

    @given(hvalues, hvalues)
    def test_totality(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1


# The integer kernel against Fraction's own operators.  A mass is
# (inf_flag, Fraction) with Fraction 0 at the infinities, so that tuples
# of plain numbers order and hash as the values do.  Numerators and
# denominators reach past CPython's 4300-digit int/str limit.
BIG = 10**4400 + 7
big_ints = st.one_of(
    st.integers(-10, 10),
    st.integers(-(2**80), 2**80),
    st.builds(lambda k, c: k * BIG + c, st.integers(-3, 3), st.integers(-5, 5)),
)
big_rationals = st.builds(
    Fraction,
    big_ints,
    st.one_of(st.integers(1, 10), st.integers(1, 2**80), st.just(BIG), st.just(3 * BIG)),
)
ref_masses = st.one_of(
    big_rationals.map(lambda q: (0, q)), st.sampled_from([(1, Fraction(0)), (-1, Fraction(0))])
)
ref_dims = big_rationals.map(abs)


def ext_of(ref):
    flag, q = ref
    return ExtRat(q) if flag == 0 else (INF if flag > 0 else NEG_INF)


def fresh(q: Fraction) -> Fraction:
    """An equal Fraction built anew, so that no comparison rests on
    identity."""
    return Fraction(q.numerator * 3, q.denominator * 3)


@st.composite
def mass_pairs(draw):
    """Two mass references, equal about half the time."""
    flag, q = draw(ref_masses)
    return (flag, q), draw(st.one_of(ref_masses, st.just((flag, fresh(q)))))


@st.composite
def value_pairs(draw):
    """Two value references, often with equal dimensions."""
    m, n = draw(mass_pairs())
    d = draw(ref_dims)
    return (d, m), (draw(st.one_of(ref_dims, st.just(fresh(d)))), n)


@st.composite
def arithmetic_pairs(draw):
    """Two mass references, in either order.  The second is often the
    negation of the first, shares its denominator, or is 0 or an
    infinity."""
    flag, q = draw(ref_masses)
    other = draw(
        st.one_of(
            ref_masses,
            st.just((-flag, -q)),
            big_ints.map(lambda k: (0, q + k)),
            st.sampled_from([(0, Fraction(0)), (1, Fraction(0)), (-1, Fraction(0))]),
        )
    )
    return ((flag, q), other) if draw(st.booleans()) else (other, (flag, q))


def ref_sign(ref):
    flag, q = ref
    return flag or (q > 0) - (q < 0)


def ref_add(a, b):
    """The reference sum, or None where inf + (-inf) leaves it undefined."""
    (flag, p), (other, q) = a, b
    if flag and other and flag != other:
        return None
    if flag or other:
        return (flag or other, Fraction(0))
    return (0, p + q)


def ref_mul(a, b):
    """The reference product, with 0 * inf == 0."""
    if a[0] or b[0]:
        return (ref_sign(a) * ref_sign(b), Fraction(0))
    return (0, a[1] * b[1])


@contextmanager
def unbounded_int_text():
    """Lift CPython's 4300-digit int/str limit, as the CLI does."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(0)
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def assert_mass(x, ref):
    """x is the mass ``ref``.  ``==`` compares numerators and
    denominators, so equality with the mass built from the reduced
    Fraction also says that x is in lowest terms."""
    flag, q = ref
    assert x == ext_of(ref)
    assert x.sign() == ref_sign(ref)
    assert hash(x) == hash(ref)
    with unbounded_int_text():
        assert str(x) == ("inf" if flag > 0 else "-inf" if flag < 0 else str(q))
    if flag:
        with pytest.raises(ValueError):
            x.frac
    else:
        assert type(x.frac) is Fraction and x.frac == q


def assert_same_order(x, y, a, b):
    assert (x == y) == (a == b)
    assert (x != y) == (a != b)
    assert (x < y) == (a < b)
    assert (x <= y) == (a <= b)
    assert (x > y) == (a > b)
    assert (x >= y) == (a >= b)
    if x == y:
        assert hash(x) == hash(y)


ref_dims0 = st.one_of(st.just(Fraction(0)), ref_dims)


def below(d: Fraction) -> Fraction:
    """A dimension below a positive d, with d's numerator when that is
    coprime to the larger denominator."""
    return Fraction(d.numerator, d.denominator + 1)


@st.composite
def value_triples(draw):
    """Three (Fraction, ExtRat) value references.  The later dimensions
    often equal the first, share its numerator or its denominator, or
    are 0."""
    d = draw(ref_dims0)
    dims = st.one_of(ref_dims0, st.just(fresh(d)), st.just(d + 1), st.just(below(d)))
    return [(e, ext_of(draw(ref_masses))) for e in (d, draw(dims), draw(dims))]


@st.composite
def series_refs(draw):
    """A prefix of at most five nonnegative value references and a tail.
    Their dimensions are often d, d + 1, or a smaller one with the
    numerator of either."""
    d = draw(ref_dims0)
    dims = st.one_of(ref_dims0, st.sampled_from([fresh(d), d + 1, below(d), below(d + 1)]))
    masses = st.one_of(ref_dims.map(ExtRat), st.just(INF))
    prefix = draw(st.lists(st.tuples(dims, masses), max_size=5))
    tail = draw(st.one_of(st.just((Fraction(0), ExtRat(0))), st.tuples(dims, masses)))
    return prefix, tail


def ref_is_zero(ref):
    return ref[0] == 0 and ref[1].sign() == 0


def ref_value_add(a, b):
    """Dominance addition on references; the mass sum may raise."""
    if a[0] == b[0]:
        return (a[0], a[1] + b[1])
    return b if a[0] < b[0] else a


def ref_value_mul(a, b):
    if ref_is_zero(a) or ref_is_zero(b):
        return (Fraction(0), ExtRat(0))
    return (a[0] + b[0], a[1] * b[1])


def ref_sum_described(prefix, tail):
    terms = [t for t in prefix if not ref_is_zero(t)]
    dims = [d for d, _ in terms] + ([] if ref_is_zero(tail) else [tail[0]])
    if not dims:
        return (Fraction(0), ExtRat(0))
    top = max(dims)
    mass = ExtRat(0)
    for d, m in terms:
        if d == top:
            mass = mass + m
    if tail[0] == top and tail[1].sign() > 0:
        mass = INF
    return (top, mass)


def assert_value(x, ref):
    """x is the value ``ref``, a (Fraction, ExtRat) pair, and its
    dimension is a coprime pair with a positive denominator, so that
    ``==`` on the integers is ``==`` on the dimensions."""
    d, m = ref
    assert x._dd > 0 and gcd(x._dn, x._dd) == 1
    assert type(x.d) is Fraction and x.d == d and x.m == m
    assert x == HValue(d, m) and hash(x) == hash(ref)
    assert x.is_zero == ref_is_zero(ref)
    with unbounded_int_text():
        assert str(x) == f"({d}, {m})"
        assert repr(x) == f"HValue(d={d!r}, m={m!r})"


class TestIntegerKernel:
    @given(mass_pairs())
    @settings(max_examples=300)
    def test_extrat_matches_fraction_order(self, refs):
        a, b = refs
        x, y = ext_of(a), ext_of(b)
        assert_same_order(x, y, a, b)
        assert hash(x) == hash(a)

    @given(value_pairs())
    @settings(max_examples=300)
    def test_hvalue_matches_fraction_order(self, refs):
        (d, m), (e, n) = refs
        x, y = HValue(d, ext_of(m)), HValue(e, ext_of(n))
        assert_same_order(x, y, (d, m), (e, n))
        assert hash(x) == hash((d, m))

    @given(ref_masses)
    def test_sign_matches_fraction_order(self, ref):
        assert ext_of(ref).sign() == ref_sign(ref)

    @given(arithmetic_pairs())
    @settings(max_examples=300)
    def test_extrat_arithmetic_matches_fraction(self, refs):
        a, b = refs
        x, y = ext_of(a), ext_of(b)
        assert_mass(x, a)
        assert_mass(-x, (-a[0], -a[1]))
        assert_mass(x * y, ref_mul(a, b))
        total = ref_add(a, b)
        if total is None:
            with pytest.raises(UndefinedSumError):
                x + y
        else:
            assert_mass(x + y, total)

    def test_a_sum_that_cancels_is_zero_over_one(self):
        q = Fraction(BIG, 3 * BIG + 1)
        assert_mass(ExtRat(q) + ExtRat(-q), (0, Fraction(0)))
        assert_mass(ExtRat(Fraction(1, 6)) + ExtRat(Fraction(5, 6)), (0, Fraction(1)))
        assert_mass(ExtRat(Fraction(1, 6)) + ExtRat(Fraction(1, 10)), (0, Fraction(4, 15)))

    @given(value_pairs())
    def test_add_keeps_the_larger_dimension(self, refs):
        (d, m), (e, n) = refs
        x, y = HValue(d, ext_of(m)), HValue(e, ext_of(n))
        if d != e:
            assert add(x, y) is (x if d > e else y)

    def test_order_against_other_types(self):
        assert H(1, 1) != (1, 1)
        assert ExtRat(1) != 1
        with pytest.raises(TypeError):
            H(1, 1) < (1, 1)
        ops = (operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.mul)
        for other in (1, Fraction(1), 1.0, "1", None):
            for op in ops:
                with pytest.raises(TypeError):
                    op(ExtRat(1), other)
                with pytest.raises(TypeError):
                    op(other, ExtRat(1))

    def test_negative_dimension_is_refused(self):
        with pytest.raises(ValueError):
            HValue(Fraction(-BIG, 3), ExtRat(0))

    @given(value_triples())
    @settings(max_examples=300, deadline=None)
    def test_value_arithmetic_matches_the_reference(self, refs):
        a, b, c = refs
        x, y, z = (HValue(*r) for r in refs)
        cases = [(x, a), (y, b), (z, c), (mul(x, y), ref_value_mul(a, b))]
        cases.append((mul(cases[-1][0], z), ref_value_mul(cases[-1][1], c)))
        try:
            total = ref_value_add(a, b)
        except UndefinedSumError:
            with pytest.raises(UndefinedSumError):
                add(x, y)
        else:
            cases.append((add(x, y), total))
        for v, r in cases:
            assert_value(v, r)
        for (v, r), (w, q) in itertools.combinations_with_replacement(cases, 2):
            assert_same_order(v, w, r, q)

    @given(series_refs())
    @settings(max_examples=200, deadline=None)
    def test_sum_described_matches_the_reference(self, refs):
        prefix, tail = refs
        s = SeqDescriptor.of([HValue(*r) for r in prefix], HValue(*tail))
        assert_value(sum_described(s), ref_sum_described(prefix, tail))

    def test_d_is_the_constructor_fraction_and_values_are_immutable(self):
        d = Fraction(BIG, 3)
        x = HValue(d, ExtRat(1))
        assert x.d is d
        y = mul(x, HValue(Fraction(0), ExtRat(2)))
        assert y.d is y.d and y.d == d  # built once, on first read
        for attr in ("d", "m", "other"):
            with pytest.raises(AttributeError):
                setattr(x, attr, Fraction(1))

    @given(ref_dims0, ref_masses)
    @settings(max_examples=300)
    def test_of_builds_the_constructor_value(self, d, ref):
        # each exact form of the dimension and of the mass: int where it is whole
        flag, q = ref
        dims = [d, fresh(d)] + ([d.numerator] if d.denominator == 1 else [])
        masses = [ext_of(ref)] + ([] if flag else [q, fresh(q)] + ([q.numerator] if q.denominator == 1 else []))
        for e in dims:
            for m in masses:
                assert_value(HValue.of(e, m), (d, ext_of(ref)))

    @pytest.mark.parametrize("d", [0, 2, Fraction(1, 3), -1, Fraction(-1, 2), "1/3", "-1", True, 1.5, None])
    @pytest.mark.parametrize("m", [0, -3, Fraction(5, 2), ExtRat(7), INF, NEG_INF, "inf", "2/4", True, 2.5, None])
    def test_of_refuses_as_the_coercing_constructor(self, d, m):
        # HValue(as_fraction(d), as_ext(m)): the same value, or the same refusal in the same order
        try:
            expected = HValue(as_fraction(d), as_ext(m))
        except Exception as exc:
            with pytest.raises(type(exc)) as refused:
                HValue.of(d, m)
            assert str(refused.value) == str(exc)
        else:
            assert_value(HValue.of(d, m), (expected.d, expected.m))


class TestAdd:
    def test_dominance(self):
        assert add(H(1, 5), H(0, 100)) == H(1, 5)
        assert add(H(0, 100), H(1, 5)) == H(1, 5)

    def test_equal_dims_add_masses(self):
        assert add(H(1, 2), H(1, 3)) == H(1, 5)
        assert add(H(1, 2), H(1, -2)) == H(1, 0)

    def test_infinite_masses(self):
        assert add(H(1, "inf"), H(1, 3)) == H(1, "inf")
        assert add(H(2, 1), H(1, "inf")) == H(2, 1)

    def test_undefined_sum(self):
        with pytest.raises(UndefinedSumError):
            add(H(1, "inf"), H(1, "-inf"))

    def test_identity(self):
        assert add(H("3/7", "-5/9"), ZERO) == H("3/7", "-5/9")

    @given(hvalues, hvalues)
    def test_commutative(self, a, b):
        try:
            lhs = add(a, b)
        except UndefinedSumError:
            with pytest.raises(UndefinedSumError):
                add(b, a)
            return
        assert lhs == add(b, a)


class TestMul:
    def test_zero_absorbs(self):
        assert mul(ZERO, H(5, "inf")) == ZERO
        assert mul(H(5, "inf"), ZERO) == ZERO

    def test_dims_add_masses_multiply(self):
        assert mul(H(1, 2), H(2, 3)) == H(3, 6)
        assert mul(H("1/2", "2/3"), H("1/3", "3/4")) == H("5/6", "1/2")

    def test_zero_times_inf(self):
        # (1, 0) is not (0, 0), so the product survives with 0 * inf == 0
        assert mul(H(1, 0), H(1, "inf")) == H(2, 0)

    def test_distributivity_counterexample(self):
        a, b, c = H(1, 1), H(0, 5), H(0, -5)
        assert mul(a, add(b, c)) == ZERO
        assert add(mul(a, b), mul(a, c)) == H(1, 0)

    @given(hnonneg, hnonneg, hnonneg)
    def test_distributivity_on_nonneg(self, a, b, c):
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @given(hvalues, hvalues, hvalues)
    def test_associative(self, a, b, c):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @given(hnonneg, hnonneg, hnonneg)
    def test_order_compatible(self, a, b, c):
        lo, hi = sorted([a, b])
        assert mul(lo, c) <= mul(hi, c)


class TestScalar:
    def test_zero_scalar_collapses(self):
        assert scalar_mul(0, H(3, "inf")) == ZERO

    def test_nonzero_scalar_keeps_dim(self):
        assert scalar_mul("1/2", H(3, 4)) == H(3, 2)
        assert scalar_mul(2, H(1, "inf")) == H(1, "inf")

    def test_matches_embedding_product(self):
        a = H("2/3", "5/7")
        assert scalar_mul("3/4", a) == mul(H(0, "3/4"), a)


class TestAggregates:
    def test_sum_finite(self):
        assert sum_finite([]) == ZERO
        assert sum_finite([H(0, 1), H(1, 2), H(1, 3)]) == H(1, 5)

    def test_series_prefix_only(self):
        s = SeqDescriptor.of([H(0, 1), H(1, 2), H(1, 3)])
        assert sum_described(s) == H(1, 5)

    def test_series_tail_at_top_gives_inf(self):
        s = SeqDescriptor.of([H(1, 2)], tail=H(1, "1/10"))
        assert sum_described(s) == H(1, "inf")

    def test_series_tail_below_top_is_absorbed(self):
        s = SeqDescriptor.of([H(2, 5)], tail=H(1, 7))
        assert sum_described(s) == H(2, 5)

    def test_series_zero_mass_tail(self):
        s = SeqDescriptor.of([H(1, 2)], tail=H(1, 0))
        assert sum_described(s) == H(1, 2)

    def test_series_rejects_negative(self):
        with pytest.raises(ValueError):
            sum_described(SeqDescriptor.of([H(1, -1)]))


class TestText:
    def test_render(self):
        assert str(H("1/2", "3/4")) == "(1/2, 3/4)"
        assert str(H(0, "inf")) == "(0, inf)"
        assert str(H(1, "-inf")) == "(1, -inf)"

    def test_parse(self):
        assert HValue.parse("(1/2, 3/4)") == H("1/2", "3/4")
        assert HValue.parse(" ( 2 , inf ) ") == H(2, "inf")

    def test_parse_rejects_garbage(self):
        for bad in ["1/2, 3", "(1/2)", "(a, b)", "(-1, 0)", "(1, 2, 3)"]:
            with pytest.raises(ParseError):
                HValue.parse(bad)

    @given(hvalues)
    @settings(max_examples=300)
    def test_round_trip(self, v):
        assert HValue.parse(str(v)) == v


def _agrees_with_fraction(text):
    """as_fraction(text) is Fraction(text.strip()), or a ParseError
    exactly where Fraction raises."""
    try:
        expected = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError):
            as_fraction(text)
    else:
        got = as_fraction(text)
        assert type(got) is Fraction and got == expected


class TestAsFraction:
    """The digit-string fast path keeps Fraction's grammar and values."""

    @pytest.mark.parametrize(
        "text",
        [
            "3", "-3", "+3", "-0", "007/010", "1_0", "1_0/3", "\u0663", "\u00b3", " 3/4 ",
            "\t-3/4\n", "3 / 4", "3/ 4", "3/0", "-3/-4", "3/-4", "1e3", "1.5", ".5",
            "5.", "--3", "-/3", "3/", "/3", "", " ", "-", "3/4/5", "1/\u0663",
            "9" * 5000, "-" + "9" * 5000 + "/7",
        ],
    )
    def test_hand_picked_strings(self, text):
        _agrees_with_fraction(text)

    @given(
        st.one_of(
            # no "e": Fraction reads "1e999999999" by building 10**999999999
            st.text(alphabet="0123456789-+/_. \t\u0663\u00b3", max_size=12),
            st.from_regex(r"\s?-?[0-9]{1,40}(/-?[0-9]{0,40})?\s?", fullmatch=True),
            st.text(max_size=6),
        )
    )
    @settings(max_examples=500)
    def test_any_string(self, text):
        _agrees_with_fraction(text)

    def test_a_5000_digit_numerator(self):
        # past CPython's default 4300-digit int/str limit, which the CLI lifts
        text = "-" + "9" * 5000 + "/7"
        with unbounded_int_text():
            assert as_fraction(text) == Fraction(-(10**5000 - 1), 7)

    def test_a_huge_decimal_exponent_is_refused_at_once(self):
        # Fraction would build 10**9999999 (33 MB) first; the largest
        # exponent read keeps its power of ten within the bit bound
        largest = 3 * MAX_POWER_BITS // 10
        assert (10**largest).bit_length() <= MAX_POWER_BITS
        for text in ("1e9999999", "-2E-9999999", f"1e+{largest + 1}", "1e" + "9" * 50):
            with pytest.raises(ParseError):
                as_fraction(text)
        assert as_fraction(f"1e-{largest}") == Fraction(1, 10**largest)
        assert as_fraction("1e3") == 1000
        assert as_fraction("1E-3") == Fraction(1, 1000)
        assert as_fraction("1_0e1_0") == 10**11

    def test_other_types(self):
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
        assert as_fraction(-7) == -7
        for bad in (True, 0.5, None, [1]):
            with pytest.raises(ParseError):
                as_fraction(bad)


def ref_as_fraction(x):
    """The Fraction route that ``as_pair`` replaced: an ASCII digit string
    becomes ``Fraction(int, int)``, and every other string ``Fraction(str)``."""
    if type(x) is Fraction:
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        num, slash, den = text.partition("/")
        digits = num[1:] if num.startswith("-") else num
        try:
            if text.isascii() and digits.isdigit() and (not slash or den.isdigit()):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
            if exponent.isdecimal() and int(exponent) * 10 > 3 * MAX_POWER_BITS:
                raise ParseError(f"a decimal exponent above {3 * MAX_POWER_BITS // 10}: {x!r}")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not an exact rational: {x!r}") from exc
    if isinstance(x, Fraction):
        return x
    raise ParseError(f"cannot interpret {x!r} as an exact rational")


def ref_ext_parse(text):
    t = text.strip()
    if t == "inf" or t == "+inf":
        return INF
    if t == "-inf":
        return NEG_INF
    return ExtRat(ref_as_fraction(t))


def ref_hvalue_parse(text):
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ParseError(f"expected '(d, m)', got {text!r}")
    parts = t[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(f"expected two comma-separated coordinates in {text!r}")
    d = ref_as_fraction(parts[0])
    if d < 0:
        raise ParseError(f"negative dimension in {text!r}")
    return HValue(d, ref_ext_parse(parts[1]))


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def rational_texts(draw):
    """Signed integers and fractions, some past 4300 digits, padded with
    whitespace, and the spellings that leave the ASCII digit grammar:
    ``+``, ``_``, non-ASCII digits, decimals, exponents, ``x/0``."""

    def digits(lo):
        # past CPython's 4300-digit int/str limit one time in four; drawn
        # short, as Hypothesis prints what it draws
        text = str(draw(st.integers(lo, 10**30)))
        return text + "7" * 4300 if draw(st.integers(0, 3)) == 0 else text

    n, d = draw(st.sampled_from(["", "-"])) + digits(0), digits(1)
    form = draw(
        st.sampled_from(
            ["int", "frac", "x/0", "x/-d", "+", "_", "arabic", "decimal", "exponent", "huge exponent", "x / d", "inf"]
        )
    )
    text = {
        "int": f"{n}",
        "frac": f"{n}/{d}",
        "x/0": f"{n}/0",
        "x/-d": f"{n}/-{d}",
        "+": f"+{n.lstrip('-')}/{d}",
        "_": f"{n}_0/{d}",
        "arabic": f"{n}/{d}".translate(ARABIC_INDIC),
        "decimal": f"{n}.{d}",
        "exponent": f"{n}e{draw(st.integers(-40, 40))}",
        "huge exponent": f"{n}e{draw(st.integers(20000, 10**9))}",
        "x / d": f"{n} / {d}",
        "inf": draw(st.sampled_from(["inf", "+inf", "-inf", "INF", "--inf"])),
    }[form]
    pad = st.sampled_from(["", " ", "\t", " \n", "  "])
    return draw(pad) + text + draw(pad)


def reader_outcome(read, text):
    """What a reader gives: the ParseError text, or the value's type, str,
    repr and hash and the value itself."""
    try:
        v = read(text)
    except ParseError as exc:
        return ("ParseError", str(exc))
    return (type(v), str(v), repr(v), hash(v), v)


def _refusal(read, text):
    """The text of the ParseError a reader raises, or None."""
    try:
        read(text)
    except ParseError as exc:
        return str(exc)
    return None


class TestReaders:
    """The integer readers give what the Fraction route gave, value and
    ParseError alike."""

    @given(rational_texts())
    @settings(max_examples=300, deadline=None)
    def test_as_fraction_and_ext_parse(self, text):
        with unbounded_int_text():  # as the CLI reads and prints
            ref = reader_outcome(ref_as_fraction, text)
            assert reader_outcome(as_fraction, text) == ref
            if ref[0] != "ParseError":
                assert as_pair(text) == (ref[-1].numerator, ref[-1].denominator)
            assert reader_outcome(ExtRat.parse, text) == reader_outcome(ref_ext_parse, text)
        # under CPython's default limit a long number is refused alike
        assert _refusal(as_fraction, text) == _refusal(ref_as_fraction, text)

    @given(rational_texts(), rational_texts(), st.sampled_from(["({}, {})", "({},{})", " ( {} ,{} ) ", "{}, {}"]))
    @settings(max_examples=300, deadline=None)
    def test_hvalue_parse(self, d, m, shape):
        text = shape.format(d, m)
        with unbounded_int_text():
            assert reader_outcome(HValue.parse, text) == reader_outcome(ref_hvalue_parse, text)
