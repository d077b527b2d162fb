"""Closed expression grammar for piecewise function coordinates.

An expression is one of two node kinds:

* :class:`Poly` -- a polynomial with trimmed rational coefficients,
  constant term first, of degree at most ``MAX_DEGREE``.  The
  polynomials of degree 0 and 1 are the constants and the affine maps
  ``a + b*x``; :func:`const`, :func:`affine` and :func:`poly` all build
  this node.
* :class:`Power` -- ``x**q`` for a non-integral rational ``q > 0``, on
  ``x >= 0``.  :func:`power` builds a monomial ``Poly`` for an integral
  exponent.

Each decision below takes two cases: a polynomial, split by its degree,
or a power.  Every comparison against a rational threshold is exactly
decidable (``x**(p/r) < c  iff  x**p < c**r`` for positive ``x, c``, or
by a rounded root where c**r is too long).  One sign test,
:func:`at_least`, decides ``e >= c`` on a cell, or at a point (a cell
with ``lo == hi``), for every expression; a polynomial of degree >= 2
goes to an integer kernel (Bernstein coefficients with one common
denominator, and Yun's square-free decomposition for its odd part).
Integrals run on integers too: a polynomial's antiderivative has one
common denominator, and each end is one Horner pass.  One function,
:func:`split_dominance`, cuts a piece by comparing two expressions; a
sublevel set is read off its cells against a constant, so it is a finite
union of intervals and points.  It and the suprema are solved for
polynomials of degree at most 1 and for powers.  A higher degree there,
or an irrational endpoint or bound, raises
:class:`UnsupportedExpressionError`; an irrational supremum is None, and
:func:`cmp_sup` compares it with a rational exactly.

This is the only module that looks inside an expression: the piece
rules, sign tests, suprema and mass integrals that
:mod:`hintegral.integral` needs are functions here.  A power's mass
integral comes as two rational bounds, equal where every end power is
rational, that round each irrational one as ROOT_BITS describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, isqrt, lcm, log2
from typing import List, Optional, Sequence, Tuple, Union

from .errors import UnsupportedExpressionError, json_list, json_loader
from .hvalue import _FRAC_ZERO, MAX_POWER_BITS, as_fraction

# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples, constant term first)
# ---------------------------------------------------------------------------


def poly_trim(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs) if cs else (Fraction(0),)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return poly_trim(
        [
            (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
            for i in range(n)
        ]
    )


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    out = [0] * (len(a) + len(b) - 1)  # integer coefficients stay integers
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_integral(coeffs: Sequence[Fraction], a: Fraction, b: Fraction) -> Fraction:
    """Exact integral of the polynomial over [a, b], as F(b) - F(a) for
    the antiderivative F with F(0) = 0.  F has the integer coefficients
    ints / den, den = lcm(den(c_k) * (k + 1)), so each end is one integer
    Horner pass and one Fraction."""
    den = lcm(*(c.denominator * (k + 1) for k, c in enumerate(coeffs)))
    ints = [c.numerator * (den // (c.denominator * (k + 1))) for k, c in enumerate(coeffs)]
    return _antiderivative_at(ints, den, b) - _antiderivative_at(ints, den, a)


def _antiderivative_at(ints: Sequence[int], den: int, x: Fraction) -> Fraction:
    """sum_k ints[k] * x**(k+1) / den, with x = p/q, over the common
    denominator den * q**(n+1): Horner's rule on p with powers of q."""
    p, q = x.numerator, x.denominator
    acc, qk = ints[-1], 1
    for c in reversed(ints[:-1]):
        qk *= q
        acc = acc * p + c * qk
    return Fraction(acc * p, den * qk * q)


def poly_deriv(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    if len(coeffs) <= 1:
        return (Fraction(0),)
    return poly_trim([coeffs[k] * k for k in range(1, len(coeffs))])


def poly_lipschitz_bound(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    """A rational upper bound on |p'| over [lo, hi]."""
    radius = max(abs(lo), abs(hi), Fraction(1))
    return sum(
        (abs(c) * radius ** k for k, c in enumerate(poly_deriv(coeffs))),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# the integer kernel: integer coefficient lists, constant term first
# ---------------------------------------------------------------------------


def _integer_poly(coeffs: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer coefficients and one positive denominator D, with p = ints / D."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _bernstein(ints: Sequence[int], lo: Fraction, hi: Fraction) -> List[int]:
    """The Bernstein coefficients of the integer polynomial on [lo, hi],
    each times n! * (b*d)**n, where lo = a/b and hi - lo = c/d."""
    n = len(ints) - 1
    width = hi - lo
    u0 = lo.numerator * width.denominator
    u1 = lo.denominator * width.numerator
    v = lo.denominator * width.denominator  # x = (u0 + u1*t) / v on t in [0, 1]
    ts, vk = [ints[n]], 1
    for k in range(n - 1, -1, -1):  # Horner: ts <- ts * (u0 + u1*t) + ints[k] * v**(n-k)
        vk *= v
        nxt = [u0 * c for c in ts] + [0]
        for i, c in enumerate(ts):
            nxt[i + 1] += u1 * c
        nxt[0] += ints[k] * vk
        ts = nxt
    # b_i = sum_k C(i, k) / C(n, k) * t_k; times n! the weight is C(i, k) * k! * (n-k)!
    bs = [factorial(k) * factorial(n - k) * c for k, c in enumerate(ts)]
    for i in range(1, n + 1):  # the binomial transform, one Pascal row at a time
        for k in range(n, i - 1, -1):
            bs[k] += bs[k - 1]
    return bs


def _primitive(p: List[int]) -> List[int]:
    """p trimmed and divided by its content, leading coefficient positive."""
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p] if g else p


def _divide(p: Sequence[int], q: Sequence[int]) -> List[int]:
    """p / q for a primitive q that divides p, so every step is exact."""
    r, n = list(p), len(q) - 1
    out = [0] * max(len(p) - n, 1)
    for k in range(len(p) - 1 - n, -1, -1):
        out[k] = r[k + n] // q[-1]
        for i, c in enumerate(q):
            r[k + i] -= out[k] * c
    return out


def _gcd(p: List[int], q: List[int]) -> List[int]:
    """A primitive greatest common divisor, by pseudo-remainders."""
    p, q = _primitive(list(p)), _primitive(list(q))
    while any(q):
        r, n = list(p), len(q) - 1
        while len(r) > n:  # r <- lc(q) * r - r's leading term * q
            lead = r.pop()
            if lead:
                shift = len(r) - n
                r = [q[-1] * c for c in r]
                for i, c in enumerate(q[:-1]):
                    r[i + shift] -= lead * c
        p, q = q, _primitive(r or [0])
    return _primitive(p)


def _odd_part(p: List[int]) -> List[int]:
    """The product of p's factors of odd multiplicity, signed so that it
    has p's sign wherever p is nonzero.  Its roots are simple.  Yun's
    square-free decomposition (SYMSAC 1976) peels the factors off by
    multiplicity; every gcd is primitive, so every division is exact."""
    g = _gcd(p, poly_deriv(p))
    b, d = _divide(p, g), _divide(poly_deriv(p), g)
    odd, multiplicity = [1], 1
    while len(b) > 1:
        d = [x - y for x, y in zip_longest(d, poly_deriv(b), fillvalue=0)]
        factor = _gcd(b, d)
        if multiplicity % 2:
            odd = poly_mul(odd, factor)
        b, d = _divide(b, factor), _divide(d, factor)
        multiplicity += 1
    return odd if p[-1] > 0 else [-c for c in odd]


# ---------------------------------------------------------------------------
# exact roots and power comparisons
# ---------------------------------------------------------------------------


# Bounds on the work of an expression, measured on a 2-core x86-64 VM so
# that one `eval` stays near a second.  MAX_DEGREE bounds a polynomial and
# an integral power exponent.  `eval --certificate` of x**64, or of a
# dense degree-64 polynomial, on (1/3, 999/1000) takes 0.16 s.  A
# degree-64 mass with an interior double root, whose sign test bisects
# its odd part, takes 0.16 s with one-digit coefficients and 1.4-6.4 s
# with 290-bit ones, most of it in the first gcd of `_odd_part`; longer
# coefficients take longer still.  A fractional power x**(p/r) is
# decided on x**p and c**r, and a root of a number of MAX_POWER_BITS
# bits (hvalue's bound, which also limits a decimal exponent) takes at
# most 0.04 s (at degree 3); `_power` refuses a larger one.  An exponent
# part past MAX_POWER_BITS would pass that bound at every base but 0 and
# 1, so `power` refuses it before anything is built.
MAX_DEGREE = 64
# An irrational mass x**(p/k) is bounded by the multiples of 1 / scale next
# to it, scale = den(x**p) * 2**ROOT_BITS, or 2**(MAX_POWER_BITS // k)
# where scale**k would pass MAX_POWER_BITS bits.
ROOT_BITS = 64


def _power(x: Fraction, e: int) -> Fraction:
    """x**e for an integer e >= 0, refused past MAX_POWER_BITS bits."""
    if max(x.numerator.bit_length(), x.denominator.bit_length()) * e > MAX_POWER_BITS:
        raise UnsupportedExpressionError(
            f"an exact power would pass {MAX_POWER_BITS} bits"
        )
    return x**e


def _floor_root(n: int, k: int) -> int:
    """floor(n**(1/k)) for an integer n >= 0."""
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # integer Newton from above, down to floor(n**(1/k)), started just above
    # the float root where it fits: a high k then takes a few steps, not k ln 2
    bits = n.bit_length()
    s = int(2 ** (log2(n) / k) * (1 + 2**-32)) + 1 if bits < 1000 * k else 1 << -(-bits // k)
    r = n + 1
    while s < r:
        r, s = s, ((k - 1) * s + n // s ** (k - 1)) // k
    return r


def int_nth_root(n: int, k: int) -> Optional[int]:
    """Exact k-th root of a nonnegative integer, or None."""
    if n < 0:
        return None
    r = _floor_root(n, k)
    return r if r**k == n else None


def nth_root(x: Fraction, k: int) -> Optional[Fraction]:
    """Exact k-th root of a nonnegative rational, or None if irrational."""
    num = int_nth_root(x.numerator, k)
    if num is None:
        return None
    den = int_nth_root(x.denominator, k)
    if den is None:
        return None
    return Fraction(num, den)


def pow_exact(x: Fraction, q: Fraction) -> Optional[Fraction]:
    """x**q for x >= 0 and rational q > 0, or None if irrational."""
    if x == 0:
        return Fraction(0)
    powered = _power(x, q.numerator)
    return nth_root(powered, q.denominator)


def _pow_bounds(x: Fraction, q: Fraction) -> Tuple[Fraction, Fraction]:
    """x**q for x >= 0 and rational q = p/k > 0, twice when it is rational;
    otherwise the multiples of 1 / scale just below and just above it,
    with the scale ROOT_BITS describes."""
    exact = pow_exact(x, q)
    if exact is not None:
        return exact, exact
    y, k = _power(x, q.numerator), q.denominator
    scale = y.denominator << ROOT_BITS
    if scale.bit_length() * k > MAX_POWER_BITS:
        scale = 1 << MAX_POWER_BITS // k
    root = _floor_root(y.numerator * scale**k // y.denominator, k)  # floor(y**(1/k) * scale)
    return Fraction(root, scale), Fraction(root + 1, scale)


def cmp_pow(x: Fraction, q: Fraction, c: Fraction) -> int:
    """Sign of x**q - c for x >= 0, exact even when x**q is irrational:
    x**p against c**k for q = p/k, or, where c**k is too long, c against
    the bounds of :func:`_pow_bounds`; c strictly between them raises."""
    if x < 0:
        raise UnsupportedExpressionError("powers are defined for x >= 0 only")
    if c < 0:
        return 1
    try:
        rhs = _power(c, q.denominator)
    except UnsupportedExpressionError:
        low, high = _pow_bounds(x, q)  # equal to x**q, or strictly around it
        if low == high:
            return _cmp(low, c)
        if low < c < high:
            raise
        return 1 if c <= low else -1
    return _cmp(_power(x, q.numerator), rhs)


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Polynomial with trimmed rational coefficients, constant term first."""

    coeffs: Tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class Power:
    """x**q with a non-integral rational exponent q > 0, on a domain
    with x >= 0."""

    q: Fraction


Expr = Union[Poly, Power]


def const(c) -> Poly:
    return Poly((as_fraction(c),))


def affine(a, b) -> Poly:
    return poly([a, b])


def power(q) -> Expr:
    q = as_fraction(q)
    if q <= 0:
        raise UnsupportedExpressionError("power exponent must be positive")
    if q.denominator == 1:
        if q > MAX_DEGREE:
            raise UnsupportedExpressionError(
                f"an integral power exponent must be at most {MAX_DEGREE}"
            )
        return poly([0] * q.numerator + [1])
    if max(q.numerator, q.denominator) > MAX_POWER_BITS:
        raise UnsupportedExpressionError(
            f"a power exponent's numerator and denominator must be at most {MAX_POWER_BITS}"
        )
    return Power(q)


def poly(coeffs) -> Poly:
    p = Poly(poly_trim([as_fraction(c) for c in coeffs]))
    if p.degree > MAX_DEGREE:
        raise UnsupportedExpressionError(f"a polynomial's degree must be at most {MAX_DEGREE}")
    return p


def _cmp(a: Fraction, b: Fraction) -> int:
    return (a > b) - (a < b)


def check_piece(pi1: Expr, pi2: Expr, lo: Fraction, hi: Fraction) -> None:
    """Raise unless pi1 and pi2 may be the dimension and mass coordinates
    of the piece (lo, hi): the dimension coordinate's polynomial has
    degree at most 1, a fractional power needs x >= 0, and neither
    coordinate is negative anywhere on the piece (:func:`at_least`)."""
    if isinstance(pi1, Poly) and pi1.degree > 1:
        raise UnsupportedExpressionError(
            "dimension coordinate must be constant, affine or a power"
        )
    if lo < 0 and (isinstance(pi1, Power) or isinstance(pi2, Power)):
        raise UnsupportedExpressionError(
            f"a fractional power is defined for x >= 0 only, not on ({lo}, {hi})"
        )
    for name, e in (("dimension", pi1), ("mass", pi2)):
        if not at_least(e, _FRAC_ZERO, lo, hi):
            raise UnsupportedExpressionError(
                f"{name} coordinate is negative on ({lo}, {hi})"
            )


# ---------------------------------------------------------------------------
# suprema on open intervals
# ---------------------------------------------------------------------------


def sup_on(e: Expr, lo: Fraction, hi: Fraction) -> Optional[Fraction]:
    """Supremum of e over the open (lo, hi), its value at lo when
    lo == hi, or None when that is irrational (a power at hi); a
    degree >= 2 polynomial raises."""
    if isinstance(e, Power):
        return pow_exact(hi, e.q)
    if e.degree == 0:
        return e.coeffs[0]
    if e.degree == 1:
        return poly_eval(e.coeffs, hi if e.coeffs[1] > 0 else lo)
    raise UnsupportedExpressionError("supremum of a general polynomial piece")


def cmp_sup(e: Expr, lo: Fraction, hi: Fraction, c: Fraction) -> int:
    """Sign of sup(e on the open (lo, hi)) - c, exact where the supremum
    is irrational (a power at hi); a degree >= 2 polynomial raises."""
    if isinstance(e, Power):
        return cmp_pow(hi, e.q, c)
    return _cmp(sup_on(e, lo, hi), c)


# ---------------------------------------------------------------------------
# sign tests and integrals on a piece
# ---------------------------------------------------------------------------


def at_least(e: Expr, c: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """Exactly decide e >= c on the open (lo, hi), or at lo if lo == hi.

    A power (on x >= 0) increases and a polynomial of degree <= 1 is
    monotone, so one end decides.  A higher degree is decided by its
    values at the ends, then by its Bernstein bound, then by bisecting
    its odd part on Bernstein bounds: p >= c fails exactly where that
    part is negative, and its roots are simple, so a cell around a root
    at an end is eventually bounded by 0 and the bisection ends.  At a
    point every Bernstein coefficient is the value, and the ends decide."""
    if isinstance(e, Power):
        return c <= 0 or cmp_pow(lo, e.q, c) >= 0
    if e.degree <= 1:
        return poly_eval(e.coeffs, hi if e.degree and e.coeffs[1] < 0 else lo) >= c
    ints, _ = _integer_poly(poly_add(e.coeffs, (-c,)))
    bs = _bernstein(ints, lo, hi)
    if bs[0] < 0 or bs[-1] < 0:
        return False
    if min(bs) >= 0:
        return True
    odd = _odd_part(ints)
    cells = [(lo, hi)]
    while cells:
        a, b = cells.pop()
        bs = _bernstein(odd, a, b)
        if bs[0] < 0 or bs[-1] < 0:
            return False
        if min(bs) < 0:
            cells += [(a, (a + b) / 2), ((a + b) / 2, b)]
    return True


def weighted_integral(
    e: Expr, density: Sequence[Fraction], lo: Fraction, hi: Fraction
) -> Fraction:
    """Exact integral of e * density over (lo, hi); the density is a
    polynomial's coefficient tuple.  Raises where it is irrational."""
    low, high = weighted_integral_bounds(e, density, lo, hi)
    if low != high:
        raise UnsupportedExpressionError(f"integral of x**{e.q} has irrational endpoint values")
    return low


def weighted_integral_bounds(
    e: Expr, density: Sequence[Fraction], lo: Fraction, hi: Fraction
) -> Tuple[Fraction, Fraction]:
    """Rational bounds low <= high on the integral of e * density over
    (lo, hi), equal exactly when every end power is rational.  A power
    sums c_k * (hi**r - lo**r) / r, r = q + k + 1, with the ends rounded
    inward for low and outward for high, as the sign of c_k calls for."""
    if isinstance(e, Poly):
        v = poly_integral(poly_mul(e.coeffs, density), lo, hi)
        return v, v
    low = high = Fraction(0)
    for k, c in enumerate(density):
        if c == 0:
            continue
        q = e.q + k + 1
        (lo_down, lo_up), (hi_down, hi_up) = _pow_bounds(lo, q), _pow_bounds(hi, q)
        ends = c * (hi_down - lo_up) / q, c * (hi_up - lo_down) / q
        low, high = low + min(ends), high + max(ends)
    return low, high


# ---------------------------------------------------------------------------
# pointwise dominance between two expressions on an open cell
# ---------------------------------------------------------------------------


def split_dominance(
    e1: Expr, e2: Expr, lo: Fraction, hi: Fraction
) -> List[Tuple[Fraction, Fraction, int]]:
    """Partition (lo, hi) into open cells on which sign(e1 - e2) is constant.

    Returns a list of (cell_lo, cell_hi, sign).  Every edge between two
    cells is a point where e1 == e2; a caller that needs the points
    (a sublevel set does) reads them off the edges.  Raises when the
    crossing structure cannot be decided exactly.
    """
    if e1 == e2:
        return [(lo, hi, 0)]
    if isinstance(e1, Poly) and isinstance(e2, Poly):
        diff = poly_add(e1.coeffs, [-c for c in e2.coeffs])
        if len(diff) > 2:
            raise UnsupportedExpressionError(
                "dominance between higher-degree polynomial coordinates"
            )
        cuts = [-diff[0] / diff[1]] if len(diff) == 2 else []
        sign = lambda x: _cmp(poly_eval(diff, x), 0)
    elif isinstance(e1, Power) and isinstance(e2, Power):
        cuts = [Fraction(1)]  # x**q1 and x**q2 cross only at x == 1 within x > 0
        sign = lambda x: _cmp(e1.q, e2.q) * _cmp(x, 1)
    else:
        pw, other, flip = (e1, e2, 1) if isinstance(e1, Power) else (e2, e1, -1)
        if other.degree > 0:
            raise UnsupportedExpressionError(
                "dominance between a fractional power and a non-constant coordinate"
            )
        c = other.coeffs[0]
        sign = lambda x: flip * cmp_pow(x, pw.q, c)
        cuts = []
        if cmp_pow(lo, pw.q, c) < 0 < cmp_pow(hi, pw.q, c):  # x**q increases
            t = pow_exact(c, 1 / pw.q)
            if t is None:
                raise UnsupportedExpressionError(
                    f"x**{pw.q} crosses {c} at an irrational point"
                )
            cuts = [t]
    edges = [lo] + sorted(t for t in cuts if lo < t < hi) + [hi]
    return [(a, b, sign((a + b) / 2)) for a, b in zip(edges, edges[1:])]


# ---------------------------------------------------------------------------
# sums within the grammar
# ---------------------------------------------------------------------------


def try_add(e1: Expr, e2: Expr) -> Expr:
    """Pointwise sum, provided it stays inside the grammar."""
    if isinstance(e1, Poly) and isinstance(e2, Poly):
        return Poly(poly_add(e1.coeffs, e2.coeffs))
    raise UnsupportedExpressionError(
        "sum of a fractional power with another coordinate leaves the grammar"
    )


# ---------------------------------------------------------------------------
# JSON parsing of expressions
# ---------------------------------------------------------------------------


@json_loader
def expr_from_json(obj) -> Expr:
    kind = obj.get("kind")
    if kind == "const":
        return const(obj["value"])
    if kind == "affine":
        return affine(obj.get("a", 0), obj.get("b", 0))
    if kind == "pow":
        return power(obj["q"])
    if kind == "poly":
        return poly(json_list(obj["coeffs"], "coeffs"))
    raise UnsupportedExpressionError(f"unknown expression kind {kind!r}")

