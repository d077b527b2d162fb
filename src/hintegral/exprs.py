"""Closed expression grammar for piecewise function coordinates.

Supported shapes: constants, affine maps ``a + b*x``, rational powers
``x**q`` with ``q > 0``, and polynomials with rational coefficients.
The grammar is deliberately small: every sublevel set it induces is a
finite union of intervals and points, and every comparison against a
rational threshold is exactly decidable (``x**(p/r) < c  iff  x**p < c**r``
for positive ``x, c``).  Anything that would force an irrational
endpoint or bound raises :class:`UnsupportedExpressionError` instead of
approximating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import List, Optional, Sequence, Tuple, Union

from .errors import UnsupportedExpressionError, json_loader
from .hvalue import as_fraction

# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples, constant term first)
# ---------------------------------------------------------------------------


def poly_trim(coeffs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs) if cs else (Fraction(0),)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
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
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_integral(coeffs: Sequence[Fraction], a: Fraction, b: Fraction) -> Fraction:
    """Exact integral of the polynomial over [a, b]."""
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        total += c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    return total


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


def poly_lower_bound(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest Bernstein coefficient of p on [lo, hi].

    p on [lo, hi] is a convex combination of its Bernstein coefficients,
    so the smallest one is a sound rational lower bound; the first and
    last coefficients are p(lo) and p(hi) (Farouki & Rajan, CAGD 5, 1988).
    """
    cs = list(coeffs)
    n = len(cs) - 1
    for i in range(n):  # Taylor shift: cs become the coefficients of p(lo + t)
        for k in range(n - 1, i - 1, -1):
            cs[k] += lo * cs[k + 1]
    width = hi - lo
    scaled = [c * width**k / comb(n, k) for k, c in enumerate(cs)]
    return min(sum(comb(i, k) * scaled[k] for k in range(i + 1)) for i in range(n + 1))


# ---------------------------------------------------------------------------
# exact roots and power comparisons
# ---------------------------------------------------------------------------


def int_nth_root(n: int, k: int) -> Optional[int]:
    """Exact k-th root of a nonnegative integer, or None."""
    if n < 0:
        return None
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        r = isqrt(n)
    else:  # integer Newton from above 2**ceil(bits/k), down to floor(n**(1/k))
        r, s = n, 1 << -(-n.bit_length() // k)
        while s < r:
            r, s = s, ((k - 1) * s + n // s ** (k - 1)) // k
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
    powered = x ** q.numerator
    return nth_root(powered, q.denominator)


def cmp_pow(x: Fraction, q: Fraction, c: Fraction) -> int:
    """Sign of x**q - c for x >= 0, exact even when x**q is irrational."""
    if x < 0:
        raise UnsupportedExpressionError("powers are defined for x >= 0 only")
    if c < 0:
        return 1
    lhs = x ** q.numerator
    rhs = c ** q.denominator
    return (lhs > rhs) - (lhs < rhs)


def cmp_pow_pow(x: Fraction, q1: Fraction, q2: Fraction) -> int:
    """Sign of x**q1 - x**q2 for x > 0."""
    if x <= 0:
        raise UnsupportedExpressionError("powers are compared for x > 0 only")
    # x**q1 vs x**q2: bring to common integral exponents.
    e1 = q1.numerator * q2.denominator
    e2 = q2.numerator * q1.denominator
    lhs = x ** e1
    rhs = x ** e2
    return (lhs > rhs) - (lhs < rhs)


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class Affine:
    """a + b*x with b != 0 (slope zero is normalized to Const)."""

    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class Power:
    """x**q with rational exponent q > 0, on a domain with x >= 0."""

    q: Fraction


@dataclass(frozen=True)
class Poly:
    """Polynomial with rational coefficients, constant term first."""

    coeffs: Tuple[Fraction, ...]


Expr = Union[Const, Affine, Power, Poly]


def const(c) -> Const:
    return Const(as_fraction(c))


def affine(a, b) -> Expr:
    b = as_fraction(b)
    if b == 0:
        return Const(as_fraction(a))
    return Affine(as_fraction(a), b)


def power(q) -> Expr:
    q = as_fraction(q)
    if q <= 0:
        raise UnsupportedExpressionError("power exponent must be positive")
    if q == 1:
        return Affine(Fraction(0), Fraction(1))
    if q.denominator == 1:
        return Poly(poly_trim([Fraction(0)] * q.numerator + [Fraction(1)]))
    return Power(q)


def poly(coeffs) -> Expr:
    cs = poly_trim([as_fraction(c) for c in coeffs])
    if len(cs) == 1:
        return Const(cs[0])
    if len(cs) == 2:
        return Affine(cs[0], cs[1])
    return Poly(cs)


def poly_coeffs(e: Expr) -> Optional[Tuple[Fraction, ...]]:
    """Coefficients of a constant, affine or polynomial expression
    (constant term first); None for a fractional power."""
    if isinstance(e, Const):
        return (e.value,)
    if isinstance(e, Affine):
        return (e.a, e.b)
    if isinstance(e, Poly):
        return e.coeffs
    return None


def eval_exact(e: Expr, x: Fraction) -> Fraction:
    """Exact value at a rational point; raises if irrational (Power only)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Affine):
        return e.a + e.b * x
    if isinstance(e, Poly):
        return poly_eval(e.coeffs, x)
    v = pow_exact(x, e.q)
    if v is None:
        raise UnsupportedExpressionError(f"x**{e.q} is irrational at x={x}")
    return v


def cmp_at(e: Expr, x: Fraction, c: Fraction) -> int:
    """Sign of e(x) - c, exact for every grammar member."""
    if isinstance(e, Power):
        return cmp_pow(x, e.q, c)
    v = eval_exact(e, x)
    return (v > c) - (v < c)


# ---------------------------------------------------------------------------
# suprema / infima on open intervals
# ---------------------------------------------------------------------------


def sup_on(e: Expr, lo: Fraction, hi: Fraction) -> Tuple[Fraction, bool]:
    """(supremum, attained-on-positive-length) of e over the open (lo, hi).

    Monotone and constant expressions only; the supremum must be a
    rational number or UnsupportedExpressionError is raised.
    """
    if isinstance(e, Const):
        return e.value, True
    if isinstance(e, Affine):
        end = hi if e.b > 0 else lo
        return e.a + e.b * end, False
    if isinstance(e, Power):
        v = pow_exact(hi, e.q)
        if v is None:
            raise UnsupportedExpressionError(
                f"sup of x**{e.q} on ({lo}, {hi}) is irrational"
            )
        return v, False
    raise UnsupportedExpressionError("supremum of a general polynomial piece")


def inf_on(e: Expr, lo: Fraction, hi: Fraction) -> Tuple[Fraction, bool]:
    """(infimum, attained-on-positive-length) over the open (lo, hi)."""
    if isinstance(e, Const):
        return e.value, True
    if isinstance(e, Affine):
        end = lo if e.b > 0 else hi
        return e.a + e.b * end, False
    if isinstance(e, Power):
        v = pow_exact(lo, e.q)
        if v is None:
            raise UnsupportedExpressionError(
                f"inf of x**{e.q} on ({lo}, {hi}) is irrational"
            )
        return v, False
    raise UnsupportedExpressionError("infimum of a general polynomial piece")


# ---------------------------------------------------------------------------
# sublevel solving:  {x in (lo, hi) : e(x) < c}  and  {x : e(x) == c}
# ---------------------------------------------------------------------------


class EqAll:
    """Marker: the equality region is the whole piece."""


EQ_ALL = EqAll()

Interval = Tuple[Fraction, Fraction]


def solve_below(
    e: Expr, c: Fraction, lo: Fraction, hi: Fraction
) -> Tuple[List[Interval], Union[EqAll, List[Fraction]]]:
    """Split the open piece (lo, hi) by comparison of e against rational c.

    Returns (strictly-below open intervals, equality part).  The
    equality part is EQ_ALL for a matching constant, otherwise the
    finite list of interior solutions of e(x) == c.
    """
    if isinstance(e, Const):
        if e.value < c:
            return [(lo, hi)], []
        if e.value == c:
            return [], EQ_ALL
        return [], []
    if isinstance(e, Affine):
        t = (c - e.a) / e.b
        eq = [t] if lo < t < hi else []
        if e.b > 0:
            below = [(lo, min(hi, t))] if t > lo else []
        else:
            below = [(max(lo, t), hi)] if t < hi else []
        return [iv for iv in below if iv[0] < iv[1]], eq
    if isinstance(e, Power):
        if c <= 0:
            return [], []
        side_lo = cmp_pow(lo, e.q, c)
        side_hi = cmp_pow(hi, e.q, c)
        if side_hi < 0:  # entire piece below (increasing power)
            return [(lo, hi)], []
        if side_lo > 0 or side_lo == 0:
            return [], []
        t = pow_exact(c, 1 / e.q)
        if t is None:
            raise UnsupportedExpressionError(
                f"threshold of x**{e.q} < {c} is irrational"
            )
        eq = [t] if lo < t < hi else []
        below = [(lo, min(hi, t))] if t > lo else []
        return [iv for iv in below if iv[0] < iv[1]], eq
    raise UnsupportedExpressionError("sublevel of a general polynomial piece")


# ---------------------------------------------------------------------------
# pointwise dominance between two expressions on an open cell
# ---------------------------------------------------------------------------


def _probe(lo: Fraction, hi: Fraction) -> Fraction:
    return (lo + hi) / 2


def split_dominance(
    e1: Expr, e2: Expr, lo: Fraction, hi: Fraction
) -> List[Tuple[Fraction, Fraction, int]]:
    """Partition (lo, hi) into open cells on which sign(e1 - e2) is constant.

    Returns a list of (cell_lo, cell_hi, sign); the finitely many
    crossing points between cells are dropped (they are null for every
    measure this package integrates against).  Raises when the crossing
    structure cannot be decided exactly.
    """
    if e1 == e2:
        return [(lo, hi, 0)]

    p1, p2 = poly_coeffs(e1), poly_coeffs(e2)
    if p1 is not None and p2 is not None:
        diff = poly_add(p1, tuple(-c for c in p2))
        if len(diff) <= 2:
            expr_diff = poly(diff)
            if isinstance(expr_diff, Const):
                s = (expr_diff.value > 0) - (expr_diff.value < 0)
                return [(lo, hi, s)]
            t = -expr_diff.a / expr_diff.b
            if not (lo < t < hi):
                s = cmp_at(expr_diff, _probe(lo, hi), Fraction(0))
                return [(lo, hi, s)]
            left = cmp_at(expr_diff, _probe(lo, t), Fraction(0))
            right = cmp_at(expr_diff, _probe(t, hi), Fraction(0))
            return [(lo, t, left), (t, hi, right)]
        raise UnsupportedExpressionError(
            "dominance between higher-degree polynomial coordinates"
        )

    pw = e1 if isinstance(e1, Power) else e2 if isinstance(e2, Power) else None
    other = e2 if pw is e1 else e1
    flip = 1 if pw is e1 else -1

    if isinstance(other, Power):
        # x**q1 vs x**q2 cross only at x == 1 (within x > 0).
        cuts = [t for t in (Fraction(1),) if lo < t < hi]
        cells = []
        edges = [lo] + cuts + [hi]
        for a, b in zip(edges, edges[1:]):
            s = cmp_pow_pow(_probe(a, b), e1.q, e2.q)
            cells.append((a, b, s))
        return cells
    if isinstance(other, Const):
        below, eq = solve_below(pw, other.value, lo, hi)
        cuts = sorted(set(eq if not isinstance(eq, EqAll) else []))
        edges = [lo] + [t for t in cuts if lo < t < hi] + [hi]
        cells = []
        for a, b in zip(edges, edges[1:]):
            s = cmp_pow(_probe(a, b), pw.q, other.value) * flip
            cells.append((a, b, s))
        return cells
    raise UnsupportedExpressionError(
        "dominance between a fractional power and a non-constant coordinate"
    )


# ---------------------------------------------------------------------------
# sums within the grammar
# ---------------------------------------------------------------------------


def try_add(e1: Expr, e2: Expr) -> Expr:
    """Pointwise sum, provided it stays inside the grammar."""
    p1, p2 = poly_coeffs(e1), poly_coeffs(e2)
    if p1 is not None and p2 is not None:
        return poly(poly_add(p1, p2))
    raise UnsupportedExpressionError(
        "sum of a fractional power with another coordinate leaves the grammar"
    )


# ---------------------------------------------------------------------------
# JSON (de)serialization of expressions
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
        return poly(obj["coeffs"])
    raise UnsupportedExpressionError(f"unknown expression kind {kind!r}")


def expr_to_json(e: Expr):
    if isinstance(e, Const):
        return {"kind": "const", "value": str(e.value)}
    if isinstance(e, Affine):
        return {"kind": "affine", "a": str(e.a), "b": str(e.b)}
    if isinstance(e, Power):
        return {"kind": "pow", "q": str(e.q)}
    return {"kind": "poly", "coeffs": [str(c) for c in e.coeffs]}
