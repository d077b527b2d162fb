"""Exact arithmetic on dimension/measure value pairs.

An ``HValue`` is a pair ``(d, m)`` with ``d`` a nonnegative rational
dimension and ``m`` an extended rational mass.  Pairs are ordered
lexicographically; addition is "dominance" addition (the larger
dimension wins, equal dimensions add their masses), multiplication adds
dimensions and multiplies masses with the convention ``0 * inf == 0``.

Everything is exact.  A dimension and a finite mass are each a coprime
pair of integers, numerator and denominator, which :class:`HValue` and
:class:`ExtRat` add, multiply and compare with ``math.gcd`` and integer
products; ``HValue.d`` and ``ExtRat.frac`` give them as a ``Fraction``
on read.  Text is read straight onto such a pair by :func:`as_pair`.
The infinities are explicit symbols.  No floats appear anywhere in
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Tuple, Union

from .errors import ParseError, UndefinedSumError

RatLike = Union[int, str, Fraction]

_FRAC_ZERO = Fraction(0)  # immutable, so every exact zero shares it

# The largest exact power built, in bits (see hintegral.exprs).  Fraction(str)
# builds 10**e for a decimal exponent e; as log2(10) < 10/3, one with
# 10 * e <= 3 * MAX_POWER_BITS keeps it within the bound.
MAX_POWER_BITS = 2**16


def as_pair(x: RatLike) -> Tuple[int, int]:
    """The coprime integer pair ``(n, d)``, ``d > 0``, of an int, Fraction or
    exact string like ``"3/4"``: the one reader of exact rationals.

    A string is read after ``strip()``.  When it is ASCII ``-?digits`` or
    ``-?digits/digits`` with a nonzero denominator, its integers are read
    and reduced directly, which skips the regular expression of
    ``Fraction(str)``; every other string (a ``+``, ``_``, non-ASCII
    digits, a decimal point, an exponent, inner spaces, ``x/0``) still
    goes to ``Fraction(str)``.  Both routes give the same value on the
    strings the fast one takes, so the accepted grammar and its
    ``ParseError`` are ``Fraction``'s own, save that a decimal exponent
    whose power of ten would pass ``MAX_POWER_BITS`` bits is a
    ``ParseError``."""
    if type(x) is int:  # not bool: JSON true is not 1
        return x, 1
    if isinstance(x, str):
        text = x.strip()
        num, slash, den = text.partition("/")
        digits = num[1:] if num.startswith("-") else num
        try:
            if text.isascii() and digits.isdigit():
                if not slash:
                    return int(num), 1
                if den.isdigit():
                    n, d = int(num), int(den)
                    if d:
                        g = gcd(n, d)
                        return n // g, d // g
            exponent = text.lower().partition("e")[2].lstrip("+-").replace("_", "")
            if exponent.isdecimal() and int(exponent) * 10 > 3 * MAX_POWER_BITS:
                raise ParseError(f"a decimal exponent above {3 * MAX_POWER_BITS // 10}: {x!r}")
            q = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not an exact rational: {x!r}") from exc
        return q.numerator, q.denominator
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise ParseError(f"cannot interpret {x!r} as an exact rational")


def as_fraction(x: RatLike) -> Fraction:
    """Coerce an int, Fraction or exact string like ``"3/4"`` to a Fraction,
    read by :func:`as_pair`."""
    return x if type(x) is Fraction else pair_fraction(*as_pair(x))


def read_once(read, x, memo: dict):
    """read(x), once per memo for a string: JSON 1, 1.0 and true are one Python key.  A reader
    keeps one memo per document, so each distinct number text in it is read once."""
    if type(x) is not str:
        return read(x)
    got = memo.get(x)
    if got is None:
        got = memo[x] = read(x)
    return got


def pair_fraction(n: int, d: int) -> Fraction:
    """n/d for a coprime pair with d > 0 (:func:`as_pair`), without a second gcd: this sets
    the two slots that Fraction's own unchecked constructor sets (``_from_coprime_ints``, 3.12)."""
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def frac_cmp(a: Fraction, b: Fraction) -> int:
    """The sign of a - b by one integer cross product (denominators are
    positive), which skips the ``numbers.Rational`` checks of Fraction's
    own comparisons."""
    d = a.numerator * b.denominator - b.numerator * a.denominator
    return (d > 0) - (d < 0)


def _rat_add(n: int, d: int, m: int, e: int) -> Tuple[int, int]:
    """n/d + m/e in lowest terms, for coprime pairs with d, e > 0."""
    if d == e:
        n += m
        g = gcd(n, d)
        return n // g, d // g
    # With d = g*s and e = g*u, n*u + m*s is coprime to s and to u,
    # so only a factor of g can cancel.
    g = gcd(d, e)
    if g == 1:
        return n * e + m * d, d * e
    s = d // g
    t = n * (e // g) + m * s
    h = gcd(t, g)
    return t // h, s * (e // h)


class ExtRat:
    """An exact rational extended with ``+inf`` and ``-inf``.

    A finite value is the integer pair ``_n/_d``: coprime, with ``_d > 0``
    and ``_inf == 0``.  An infinite one has ``_inf`` set to 1 or -1 and the
    pair ``0/1``.  Arithmetic follows the usual extended-real conventions:
    ``r + inf == inf``, ``inf + (-inf)`` raises :class:`UndefinedSumError`,
    and ``0 * inf == 0``.
    """

    __slots__ = ("_n", "_d", "_inf")

    def __init__(self, value: RatLike):
        self._n, self._d = as_pair(value)
        self._inf = 0

    # -- predicates -------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._inf == 0

    @property
    def frac(self) -> Fraction:
        if self._inf:
            raise ValueError("infinite value has no Fraction form")
        return pair_fraction(self._n, self._d)

    def sign(self) -> int:
        if self._inf:
            return self._inf
        n = self._n
        return (n > 0) - (n < 0)

    # -- arithmetic (Knuth, TAOCP vol. 2, 4.5.1) --------------------

    def __add__(self, other: "ExtRat") -> "ExtRat":
        if other.__class__ is not ExtRat:
            return NotImplemented
        if self._inf or other._inf:
            if self._inf == -other._inf:
                raise UndefinedSumError("(+inf) + (-inf) is undefined")
            return self if self._inf else other
        n, d = _rat_add(self._n, self._d, other._n, other._d)
        return _ext(n, d, 0)

    def __mul__(self, other: "ExtRat") -> "ExtRat":
        if other.__class__ is not ExtRat:
            return NotImplemented
        if self._inf or other._inf:
            # 0 * inf == 0 by convention.
            s = self.sign() * other.sign()
            return _ext(0, 1, 0) if s == 0 else (INF if s > 0 else NEG_INF)
        n, d, m, e = self._n, self._d, other._n, other._d
        g, h = gcd(n, e), gcd(m, d)
        return _ext((n // g) * (m // h), (d // h) * (e // g), 0)

    def __neg__(self) -> "ExtRat":
        return _ext(-self._n, self._d, -self._inf)

    # -- order (a > b and a >= b fall back to b < a and b <= a) ----

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ExtRat:
            return NotImplemented
        return self._inf == other._inf and self._n == other._n and self._d == other._d

    def __lt__(self, other: "ExtRat") -> bool:
        if other.__class__ is not ExtRat:
            return NotImplemented
        if self._inf != other._inf:
            return self._inf < other._inf
        return self._n * other._d < other._n * self._d

    def __le__(self, other: "ExtRat") -> bool:
        if other.__class__ is not ExtRat:
            return NotImplemented
        return not other < self

    def __hash__(self) -> int:
        # Equal to hash((self._inf, self.frac)) at a finite value, and to
        # hash((self._inf, Fraction(0))) at an infinite one.
        d = self._d
        return hash((self._inf, self._n if d == 1 else Fraction(self._n, d)))

    # -- text -------------------------------------------------------

    def __str__(self) -> str:
        if self._inf:
            return "inf" if self._inf > 0 else "-inf"
        return str(self._n) if self._d == 1 else f"{self._n}/{self._d}"

    def __repr__(self) -> str:
        return f"ExtRat({str(self)!r})"

    @staticmethod
    def parse(text: str) -> "ExtRat":
        t = text.strip()
        if t == "inf" or t == "+inf":
            return INF
        if t == "-inf":
            return NEG_INF
        n, d = as_pair(t)
        return _ext(n, d, 0)


def _ext(n: int, d: int, inf: int) -> ExtRat:
    """The ExtRat with the given slots, built without a check: n and d
    coprime with d > 0, and n, d = 0, 1 when inf is 1 or -1."""
    x = object.__new__(ExtRat)
    x._n = n
    x._d = d
    x._inf = inf
    return x


INF = _ext(0, 1, 1)
NEG_INF = _ext(0, 1, -1)

ExtLike = Union[RatLike, ExtRat]


def as_ext(x: ExtLike) -> ExtRat:
    if isinstance(x, ExtRat):
        return x
    if isinstance(x, str):
        return ExtRat.parse(x)
    return ExtRat(x)


class HValue:
    """A generalized Hausdorff value ``(d, m)``, ordered lexicographically.

    The dimension is the integer pair ``_dn/_dd``: coprime, with
    ``_dd > 0``.  ``d`` gives it as a ``Fraction``: the one passed to the
    constructor, or for a value built by arithmetic one built on first
    read.  ``m`` is the mass.
    """

    __slots__ = ("_dn", "_dd", "_m", "_d")

    def __init__(self, d: Fraction, m: ExtRat):
        if not isinstance(d, Fraction) or not isinstance(m, ExtRat):
            raise TypeError("use HValue.of() for coercing constructors")
        if d.numerator < 0:
            raise ValueError(f"dimension must be nonnegative, got {d}")
        self._dn, self._dd, self._m, self._d = d.numerator, d.denominator, m, d

    @property
    def d(self) -> Fraction:
        q = self._d
        if q is None:
            q = self._d = pair_fraction(self._dn, self._dd)
        return q

    @property
    def m(self) -> ExtRat:
        return self._m

    # -- order (a > b and a >= b fall back to b < a and b <= a) ----
    # Two dimensions in lowest terms are equal exactly when their
    # numerators and denominators are, so unequal denominators mean
    # unequal dimensions, and cross products order them.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not HValue:
            return NotImplemented
        return self._dn == other._dn and self._dd == other._dd and self._m == other._m

    def __lt__(self, other: "HValue") -> bool:
        if other.__class__ is not HValue:
            return NotImplemented
        n, d, p, e = self._dn, self._dd, other._dn, other._dd
        if d != e:
            return n * e < p * d
        if n != p:
            return n < p
        return self._m < other._m

    def __le__(self, other: "HValue") -> bool:
        if other.__class__ is not HValue:
            return NotImplemented
        return not other < self

    def __hash__(self) -> int:
        # Equal to hash((self.d, self.m)): an integral Fraction hashes as its int.
        return hash((self._dn if self._dd == 1 else self.d, self._m))

    def __repr__(self) -> str:
        return f"HValue(d={self.d!r}, m={self._m!r})"

    @staticmethod
    def of(d: RatLike, m: ExtLike) -> "HValue":
        """``HValue(as_fraction(d), as_ext(m))``.  An int or Fraction d with an
        ExtRat, int or Fraction m is built from their integer pairs without
        the checks of either; every refusal stays the same, in the same order."""
        t = type(d)
        if t is int:
            n, e = d, 1
        elif t is Fraction:
            n, e = d.numerator, d.denominator
        else:
            return HValue(as_fraction(d), as_ext(m))
        t = type(m)
        if t is int:
            m = _ext(m, 1, 0)
        elif t is Fraction:
            m = _ext(m.numerator, m.denominator, 0)
        elif t is not ExtRat:
            m = as_ext(m)
        if n < 0:
            raise ValueError(f"dimension must be nonnegative, got {d}")
        return _hv(n, e, m)

    @property
    def is_zero(self) -> bool:
        m = self._m
        return self._dn == 0 and m._n == 0 and m._inf == 0

    def same_dim(self, other: "HValue") -> bool:
        """``self.d == other.d``, decided on the integer pairs."""
        return self._dn == other._dn and self._dd == other._dd

    def is_nonneg(self) -> bool:
        """True when the value lies in [0,+inf) x [0,+inf]."""
        return self._m.sign() >= 0

    def __str__(self) -> str:
        n, d = self._dn, self._dd
        return f"({n}, {self._m})" if d == 1 else f"({n}/{d}, {self._m})"

    @staticmethod
    def parse(text: str) -> "HValue":
        """Read "(d, m)"; anything else, a JSON number, boolean, null or
        list included, raises ParseError."""
        t = text.strip() if isinstance(text, str) else ""
        if not (t.startswith("(") and t.endswith(")")):
            raise ParseError(f"expected '(d, m)', got {text!r}")
        parts = t[1:-1].split(",")
        if len(parts) != 2:
            raise ParseError(f"expected two comma-separated coordinates in {text!r}")
        n, d = as_pair(parts[0])
        if n < 0:
            raise ParseError(f"negative dimension in {text!r}")
        return _hv(n, d, ExtRat.parse(parts[1]))


def _hv(n: int, d: int, m: ExtRat) -> HValue:
    """The HValue with dimension n/d and mass m, built without a check:
    n >= 0 and d > 0 coprime."""
    x = object.__new__(HValue)
    x._dn = n
    x._dd = d
    x._m = m
    x._d = None
    return x


ZERO = HValue.of(0, 0)


def add(a: HValue, b: HValue) -> HValue:
    """Dominance addition; raises UndefinedSumError on (d,+inf)+(d,-inf)."""
    n, d, p, e = a._dn, a._dd, b._dn, b._dd
    if d != e:
        return b if n * e < p * d else a
    if n != p:
        return b if n < p else a
    return _hv(n, d, a._m + b._m)


def mul(a: HValue, b: HValue) -> HValue:
    """Product: (0,0) absorbs, otherwise dimensions add and masses multiply."""
    m, k = a._m, b._m
    if (a._dn == 0 and m._n == 0 and m._inf == 0) or (b._dn == 0 and k._n == 0 and k._inf == 0):
        return ZERO
    n, d = _rat_add(a._dn, a._dd, b._dn, b._dd)
    if m._inf or k._inf:
        return _hv(n, d, m * k)
    p, q, r, s = m._n, m._d, k._n, k._d  # ExtRat.__mul__ of two finite masses
    g, h = gcd(p, s), gcd(r, q)
    return _hv(n, d, _ext((p // g) * (r // h), (q // h) * (s // g), 0))


def scalar_mul(c: RatLike, a: HValue) -> HValue:
    """Real scalar action: c*(d,m) = (d, c*m) for c != 0, else (0,0)."""
    c = as_fraction(c)
    if c == 0:
        return ZERO
    return _hv(a._dn, a._dd, _ext(c.numerator, c.denominator, 0) * a._m)


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
    live = terms if tail.is_zero else terms + [tail]
    if not live:
        return ZERO
    n, d = live[0]._dn, live[0]._dd
    for t in live:
        if t._dn * d > n * t._dd:
            n, d = t._dn, t._dd
    mass = _ext(0, 1, 0)
    for t in terms:
        if t._dn == n and t._dd == d:
            mass = mass + t._m
    if tail._dn == n and tail._dd == d and tail._m.sign() > 0:
        mass = INF
    return _hv(n, d, mass)
