"""Exact arithmetic on dimension/measure value pairs.

An ``HValue`` is a pair ``(d, m)`` with ``d`` a nonnegative rational
dimension and ``m`` an extended rational mass.  Pairs are ordered
lexicographically; addition is "dominance" addition (the larger
dimension wins, equal dimensions add their masses), multiplication adds
dimensions and multiplies masses with the convention ``0 * inf == 0``.

Everything is exact: finite numbers are :class:`fractions.Fraction`
values in lowest terms, infinities are explicit symbols.  No floats
appear anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Sequence, Union

from .errors import ParseError, UndefinedSumError

RatLike = Union[int, str, Fraction]

_FRAC_ZERO = Fraction(0)  # immutable, so every exact zero shares it

# The largest exact power built, in bits (see hintegral.exprs).  Fraction(str)
# builds 10**e for a decimal exponent e; as log2(10) < 10/3, one with
# 10 * e <= 3 * MAX_POWER_BITS keeps it within the bound.
MAX_POWER_BITS = 2**16


# Fractions are kept in lowest terms with a positive denominator, so two
# of them are equal exactly when their numerators and denominators are,
# and cross-multiplying orders them.  Comparing the integers directly
# skips the numbers.Rational check in Fraction's own comparisons, which
# dominates the cost of the value order.
def _same(a: Fraction, b: Fraction) -> bool:
    """a == b for two Fractions."""
    return a.numerator == b.numerator and a.denominator == b.denominator


def _below(a: Fraction, b: Fraction) -> bool:
    """a < b for two Fractions."""
    return a.numerator * b.denominator < b.numerator * a.denominator


def as_fraction(x: RatLike) -> Fraction:
    """Coerce an int, Fraction or exact string like ``"3/4"`` to a Fraction.

    A string is read after ``strip()``.  When it is ASCII ``-?digits`` or
    ``-?digits/digits`` its integers are read directly, which skips the
    regular expression of ``Fraction(str)``; every other string (a
    ``+``, ``_``, non-ASCII digits, a decimal point, an exponent, inner
    spaces) still goes to ``Fraction(str)``.  Both routes give the same
    value on the strings the fast one takes, and the same ``ParseError``
    for ``x/0``, so the accepted grammar is ``Fraction``'s own, save that
    a decimal exponent whose power of ten would pass ``MAX_POWER_BITS``
    bits is a ``ParseError``."""
    if type(x) is Fraction:
        return x
    if type(x) is int:  # not bool: JSON true is not 1
        return Fraction(x) if x else _FRAC_ZERO
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


@total_ordering
class ExtRat:
    """An exact rational extended with ``+inf`` and ``-inf``.

    Arithmetic follows the usual extended-real conventions:
    ``r + inf == inf``, ``inf + (-inf)`` raises :class:`UndefinedSumError`,
    and ``0 * inf == 0``.
    """

    __slots__ = ("_frac", "_inf")

    def __init__(self, value: RatLike = 0, _inf: int = 0):
        if _inf:
            self._frac = _FRAC_ZERO
            self._inf = 1 if _inf > 0 else -1
        else:
            self._frac = as_fraction(value)
            self._inf = 0

    # -- predicates -------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._inf == 0

    @property
    def frac(self) -> Fraction:
        if self._inf:
            raise ValueError("infinite value has no Fraction form")
        return self._frac

    def sign(self) -> int:
        if self._inf:
            return self._inf
        n = self._frac.numerator
        return (n > 0) - (n < 0)

    # -- arithmetic -------------------------------------------------

    def __add__(self, other: "ExtRat") -> "ExtRat":
        if self._inf and other._inf:
            if self._inf != other._inf:
                raise UndefinedSumError("(+inf) + (-inf) is undefined")
            return self
        if self._inf:
            return self
        if other._inf:
            return other
        return ExtRat(self._frac + other._frac)

    def __mul__(self, other: "ExtRat") -> "ExtRat":
        # 0 * inf == 0 by convention.
        if self.sign() == 0 or other.sign() == 0:
            return ExtRat(0)
        if self._inf or other._inf:
            return INF if self.sign() * other.sign() > 0 else NEG_INF
        return ExtRat(self._frac * other._frac)

    def __neg__(self) -> "ExtRat":
        if self._inf:
            return NEG_INF if self._inf > 0 else INF
        return ExtRat(-self._frac)

    # -- order ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self._inf == other._inf and _same(self._frac, other._frac)

    def __lt__(self, other: "ExtRat") -> bool:
        if self._inf != other._inf:
            return self._inf < other._inf
        return _below(self._frac, other._frac)

    def __hash__(self) -> int:
        return hash((self._inf, self._frac))

    # -- text -------------------------------------------------------

    def __str__(self) -> str:
        if self._inf > 0:
            return "inf"
        if self._inf < 0:
            return "-inf"
        return str(self._frac)

    def __repr__(self) -> str:
        return f"ExtRat({str(self)!r})"

    @staticmethod
    def parse(text: str) -> "ExtRat":
        t = text.strip()
        if t == "inf" or t == "+inf":
            return INF
        if t == "-inf":
            return NEG_INF
        return ExtRat(as_fraction(t))


INF = ExtRat(0, _inf=1)
NEG_INF = ExtRat(0, _inf=-1)

ExtLike = Union[RatLike, ExtRat]


def as_ext(x: ExtLike) -> ExtRat:
    if isinstance(x, ExtRat):
        return x
    if isinstance(x, str):
        return ExtRat.parse(x)
    return ExtRat(x)


@dataclass(frozen=True, eq=False)
class HValue:
    """A generalized Hausdorff value ``(d, m)``, ordered lexicographically."""

    d: Fraction
    m: ExtRat

    def __post_init__(self):
        if not isinstance(self.d, Fraction) or not isinstance(self.m, ExtRat):
            raise TypeError("use HValue.of() for coercing constructors")
        if self.d.numerator < 0:
            raise ValueError(f"dimension must be nonnegative, got {self.d}")

    # -- order (a > b and a >= b fall back to b < a and b <= a) ----

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HValue:
            return NotImplemented
        return _same(self.d, other.d) and self.m == other.m

    def __lt__(self, other: "HValue") -> bool:
        if other.__class__ is not HValue:
            return NotImplemented
        if _same(self.d, other.d):
            return self.m < other.m
        return _below(self.d, other.d)

    def __le__(self, other: "HValue") -> bool:
        if other.__class__ is not HValue:
            return NotImplemented
        if _same(self.d, other.d):
            return not other.m < self.m
        return _below(self.d, other.d)

    def __hash__(self) -> int:
        return hash((self.d, self.m))

    @staticmethod
    def of(d: RatLike, m: ExtLike) -> "HValue":
        return HValue(as_fraction(d), as_ext(m))

    @property
    def is_zero(self) -> bool:
        return self.d.numerator == 0 and self.m.sign() == 0

    def is_nonneg(self) -> bool:
        """True when the value lies in [0,+inf) x [0,+inf]."""
        return self.m.sign() >= 0

    def __str__(self) -> str:
        return f"({self.d}, {self.m})"

    @staticmethod
    def parse(text: str) -> "HValue":
        t = text.strip()
        if not (t.startswith("(") and t.endswith(")")):
            raise ParseError(f"expected '(d, m)', got {text!r}")
        parts = t[1:-1].split(",")
        if len(parts) != 2:
            raise ParseError(f"expected two comma-separated coordinates in {text!r}")
        d = as_fraction(parts[0])
        if d < 0:
            raise ParseError(f"negative dimension in {text!r}")
        return HValue(d, ExtRat.parse(parts[1]))


ZERO = HValue.of(0, 0)


def add(a: HValue, b: HValue) -> HValue:
    """Dominance addition; raises UndefinedSumError on (d,+inf)+(d,-inf)."""
    if _same(a.d, b.d):
        return HValue(a.d, a.m + b.m)
    return b if _below(a.d, b.d) else a


def mul(a: HValue, b: HValue) -> HValue:
    """Product: (0,0) absorbs, otherwise dimensions add and masses multiply."""
    if a.is_zero or b.is_zero:
        return ZERO
    return HValue(a.d + b.d, a.m * b.m)


def scalar_mul(c: RatLike, a: HValue) -> HValue:
    """Real scalar action: c*(d,m) = (d, c*m) for c != 0, else (0,0)."""
    c = as_fraction(c)
    if c == 0:
        return ZERO
    return HValue(a.d, ExtRat(c) * a.m)


def sum_finite(values: Iterable[HValue]) -> HValue:
    """Left fold of `add`; the empty sum is (0,0)."""
    total = ZERO
    for v in values:
        total = add(total, v)
    return total


@dataclass(frozen=True)
class SeqDescriptor:
    """A countable sequence: a finite prefix followed by a constant tail.

    The tail repeats forever; use a (0,0) tail for finite sums.  With
    this shape the supremum of the dimensions is always attained, which
    keeps the series sum well defined.
    """

    prefix: tuple
    tail: HValue

    def __post_init__(self):
        for t in self.prefix + (self.tail,):
            if not t.is_nonneg():
                raise ValueError(f"series terms must be nonnegative, got {t}")

    @staticmethod
    def of(prefix: Sequence[HValue], tail: HValue = ZERO) -> "SeqDescriptor":
        return SeqDescriptor(tuple(prefix), tail)

    def map(self, fn) -> "SeqDescriptor":
        return SeqDescriptor(tuple(fn(t) for t in self.prefix), fn(self.tail))


def sum_described(s: SeqDescriptor) -> HValue:
    """Sum of a prefix-plus-constant-tail series of nonnegative values.

    The result is (D, sum of masses at dimension D) where D is the
    attained supremum of the dimensions; a nonzero tail with positive
    mass at dimension D pushes the mass to +inf.
    """
    terms = [t for t in s.prefix if not t.is_zero]
    tail = s.tail
    dims = [t.d for t in terms]
    if not tail.is_zero:
        dims.append(tail.d)
    if not dims:
        return ZERO
    top = max(dims)
    mass = ExtRat(0)
    for t in terms:
        if t.d == top:
            mass = mass + t.m
    if not tail.is_zero and tail.d == top and tail.m.sign() > 0:
        mass = INF
    return HValue(top, mass)
