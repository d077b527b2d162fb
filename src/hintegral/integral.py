"""Integration of pair-valued functions over h-measure spaces.

Two function shapes are supported:

* :class:`SimpleFn` -- finite range over disjoint measurable pieces,
  value (0,0) off their union.  Its integral is the direct weighted sum
  ``sum_i coeff_i * measure(piece_i)``.
* :class:`PiecewiseFn` -- a piecewise description over an interval
  space, each piece carrying an exact expression for the dimension
  coordinate (constant, affine or rational power) and for the mass
  coordinate (polynomial or rational power).

The general integral of a piecewise function is *never* computed by
enumerating simple minorants (the supremum ranges over an unenumerable
family).  Instead it is evaluated in closed form: the result dimension
is the space's dimension offset plus the essential supremum of the
dimension coordinate, and the result mass is the exact integral of the
mass coordinate over the positive-length set where that supremum is
attained (0 when the supremum set is null, matching sup over the empty
family = 0).  A certificate of witness sets substantiates every
evaluation and can be re-verified independently.

This module holds only the mathematics.  The test machinery that checks
it from outside -- sampling of i-simple minorants, the approximation
gap witness and the mutant hooks -- lives in :mod:`hintegral.oracle`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from . import exprs
from .errors import (
    NonDisjointError,
    ParseError,
    UnknownSetError,
    UnsupportedExpressionError,
    json_loader,
)
from .exprs import Affine, Const, EqAll, Expr, Poly, Power
from .hvalue import ZERO, ExtRat, HValue, add, as_fraction, mul, sum_finite
from .space import (
    AtomSet,
    AtomSpace,
    IntervalSet,
    IntervalSpace,
    CatalogUnion,
    MeasurableSet,
    MeasureSpace,
    intersect_intervals,
    set_from_json,
    set_to_json,
    union,
)

# ---------------------------------------------------------------------------
# function descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleFn:
    """Finite-range function: disjoint (coefficient, set) pieces.

    Coefficients lie in [0,+inf) x [0,+inf); with ``i_simple=True`` the
    mass coordinate may be +inf.
    """

    pieces: Tuple[Tuple[HValue, MeasurableSet], ...]
    i_simple: bool = False

    @staticmethod
    def of(pieces: Sequence[Tuple[HValue, MeasurableSet]], i_simple: bool = False) -> "SimpleFn":
        for coeff, _ in pieces:
            if not coeff.is_nonneg():
                raise ValueError(f"negative coefficient {coeff}")
            if not i_simple and not coeff.m.is_finite:
                raise ValueError(f"infinite coefficient {coeff} in a simple function")
        if pieces:
            union([s for _, s in pieces])  # structural disjointness check
        return SimpleFn(tuple(pieces), i_simple)

    def value_at_atom(self, atom: str) -> HValue:
        for coeff, s in self.pieces:
            if isinstance(s, AtomSet) and atom in s.atoms:
                return coeff
        return ZERO

    def value_at_point(self, x: Fraction) -> HValue:
        for coeff, s in self.pieces:
            if isinstance(s, IntervalSet):
                if any(a < x < b for a, b in s.intervals) or x in s.points:
                    return coeff
        return ZERO


@dataclass(frozen=True)
class PiecewisePiece:
    lo: Fraction
    hi: Fraction
    pi1: Expr
    pi2: Expr


@dataclass(frozen=True)
class PiecewiseFn:
    """Piecewise-graded function on an interval space.

    Pieces are disjoint open subintervals; off their union the value is
    (0,0).  The dimension coordinate must be constant, affine or a
    rational power (so sublevel sets stay finite interval unions); the
    mass coordinate may additionally be a polynomial.
    """

    pieces: Tuple[PiecewisePiece, ...]

    @staticmethod
    def of(pieces: Sequence[Tuple]) -> "PiecewiseFn":
        out = []
        for lo, hi, pi1, pi2 in pieces:
            lo, hi = as_fraction(lo), as_fraction(hi)
            if not lo < hi:
                raise ValueError(f"degenerate piece ({lo}, {hi})")
            if isinstance(pi1, Poly):
                raise UnsupportedExpressionError(
                    "dimension coordinate must be constant, affine or a power"
                )
            out.append(PiecewisePiece(lo, hi, pi1, pi2))
        out.sort(key=lambda p: p.lo)
        for p, q in zip(out, out[1:]):
            if q.lo < p.hi:
                raise NonDisjointError(
                    f"overlapping pieces ({p.lo}, {p.hi}) and ({q.lo}, {q.hi})"
                )
        return PiecewiseFn(tuple(out))

    def value_at(self, x: Fraction) -> HValue:
        """Exact value at a rational point (raises if a power coordinate
        is irrational there); points off every piece give (0,0)."""
        for p in self.pieces:
            if p.lo < x < p.hi:
                return HValue(
                    exprs.eval_exact(p.pi1, x), ExtRat(exprs.eval_exact(p.pi2, x))
                )
        return ZERO


HFunction = Union[SimpleFn, PiecewiseFn]


def constant_fn(lo, hi, value: HValue) -> PiecewiseFn:
    """The constant function `value` on the open interval (lo, hi)."""
    return PiecewiseFn.of(
        [(lo, hi, exprs.const(value.d), exprs.const(value.m.frac))]
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A set with its measure and a verified lower bound on inf over it."""

    where: MeasurableSet
    measure: HValue
    inf_bound: HValue


@dataclass(frozen=True)
class T4Certificate:
    """Witness evidence for an integral evaluation.

    ``d_witnesses`` substantiate the dimension: each witness has
    positive measure and a positive lower bound on the function, with
    bound-dimension + measure-dimension approaching the reported
    dimension (equal to it when the supremum is attained).
    ``m_witnesses`` form one disjoint family realizing the reported
    mass; ``exact_m`` is False when the mass is only approached from
    below (non-constant mass coordinate), in which case
    ``achieved_m`` records the family's exact lower sum.
    """

    value: HValue
    d_witnesses: Tuple[Witness, ...] = ()
    m_witnesses: Tuple[Witness, ...] = ()
    exact_m: bool = True
    achieved_m: ExtRat = ExtRat(0)

    def to_json(self):
        def w_json(w: Witness):
            return {
                "set": set_to_json(w.where),
                "measure": str(w.measure),
                "inf_bound": str(w.inf_bound),
            }

        return {
            "value": str(self.value),
            "d_witnesses": [w_json(w) for w in self.d_witnesses],
            "m_witnesses": [w_json(w) for w in self.m_witnesses],
            "exact_m": self.exact_m,
            "achieved_m": str(self.achieved_m),
        }


# ---------------------------------------------------------------------------
# simple-function integral (the defining weighted sum)
# ---------------------------------------------------------------------------


def integrate_simple(space: MeasureSpace, f: SimpleFn) -> HValue:
    """sum_i coeff_i * measure(piece_i); exact, refinement-invariant."""
    if f.pieces:
        union([s for _, s in f.pieces])
    return sum_finite(mul(coeff, space.measure(s)) for coeff, s in f.pieces)


# ---------------------------------------------------------------------------
# sublevel sets
# ---------------------------------------------------------------------------


def sublevel_set(space: MeasureSpace, f: HFunction, v: HValue) -> MeasurableSet:
    """The exact set {x : f(x) < v}."""
    if isinstance(space, AtomSpace):
        if not isinstance(f, SimpleFn):
            raise UnsupportedExpressionError("atom spaces carry simple functions")
        return AtomSet(
            frozenset(a for a in space.atoms if f.value_at_atom(a) < v)
        )
    if isinstance(space, IntervalSpace) and isinstance(f, PiecewiseFn):
        return _piecewise_sublevel(space, f, v)
    raise UnsupportedExpressionError(
        f"sublevel sets are unsupported for {type(space).__name__}/{type(f).__name__}"
    )


def _piecewise_sublevel(space: IntervalSpace, f: PiecewiseFn, v: HValue) -> IntervalSet:
    ivs: List[Tuple[Fraction, Fraction]] = []
    pts: List[Fraction] = []
    for p in f.pieces:
        below, eq = exprs.solve_below(p.pi1, v.d, p.lo, p.hi)
        ivs.extend(below)
        if isinstance(eq, EqAll):
            ivs2, pts2 = _mass_below(p.pi2, v.m, p.lo, p.hi)
            ivs.extend(ivs2)
            pts.extend(pts2)
        else:
            for t in eq:
                if _mass_point_below(p.pi2, v.m, t):
                    pts.append(t)
    if ZERO < v:
        gap_ivs, gap_pts = _uncovered(space, f)
        ivs.extend(gap_ivs)
        pts.extend(gap_pts)
    return IntervalSet.of(ivs, pts)


def _mass_below(pi2: Expr, m: ExtRat, lo: Fraction, hi: Fraction):
    if not m.is_finite:
        return ([(lo, hi)], []) if m.sign() > 0 else ([], [])
    below, eq = exprs.solve_below(pi2, m.frac, lo, hi)
    # equality points of pi2 are not below m, so only strict part counts
    return below, []


def _mass_point_below(pi2: Expr, m: ExtRat, x: Fraction) -> bool:
    if not m.is_finite:
        return m.sign() > 0
    return exprs.cmp_at(pi2, x, m.frac) < 0


def _uncovered(space: IntervalSpace, f: PiecewiseFn):
    """Complement of the pieces within the space: gap intervals plus the
    isolated boundary points between touching pieces."""
    ivs = []
    pts = []
    cursor = space.lo
    for p in f.pieces:
        if cursor < p.lo:
            ivs.append((cursor, p.lo))
        elif space.lo < cursor == p.lo:
            pts.append(cursor)
        cursor = p.hi
    if cursor < space.hi:
        ivs.append((cursor, space.hi))
    elif space.lo < cursor < space.hi:
        pts.append(cursor)
    return ivs, pts


# ---------------------------------------------------------------------------
# pointwise sums
# ---------------------------------------------------------------------------


def pointwise_add_fn(f: HFunction, g: HFunction) -> HFunction:
    """Pointwise dominance sum, staying inside the function grammar."""
    if isinstance(f, SimpleFn) and isinstance(g, SimpleFn):
        return _add_simple(f, g)
    if isinstance(f, PiecewiseFn) and isinstance(g, PiecewiseFn):
        return _add_piecewise(f, g)
    raise UnsupportedExpressionError("cannot add functions of different shapes")


def _add_simple(f: SimpleFn, g: SimpleFn) -> SimpleFn:
    atoms = set()
    for fn in (f, g):
        for _, s in fn.pieces:
            if not isinstance(s, AtomSet):
                raise UnsupportedExpressionError(
                    "pointwise sums of simple functions need atom pieces"
                )
            atoms |= s.atoms
    pieces = []
    for a in sorted(atoms):
        v = add(f.value_at_atom(a), g.value_at_atom(a))
        if not v.is_zero:
            pieces.append((v, AtomSet.of(a)))
    return SimpleFn.of(pieces, i_simple=f.i_simple or g.i_simple)


def _piece_covering(fn: PiecewiseFn, lo: Fraction, hi: Fraction) -> Optional[PiecewisePiece]:
    # pieces are sorted and disjoint: only the last one starting at or
    # before lo can cover (lo, hi)
    i = bisect_right(fn.pieces, lo, key=lambda p: p.lo)
    if i and hi <= fn.pieces[i - 1].hi:
        return fn.pieces[i - 1]
    return None


def _add_piecewise(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    edges = sorted(
        {p.lo for p in f.pieces}
        | {p.hi for p in f.pieces}
        | {p.lo for p in g.pieces}
        | {p.hi for p in g.pieces}
    )
    out: List[Tuple] = []
    for lo, hi in zip(edges, edges[1:]):
        pf = _piece_covering(f, lo, hi)
        pg = _piece_covering(g, lo, hi)
        if pf is None and pg is None:
            continue
        if pf is None or pg is None:
            p = pf if pf is not None else pg
            out.append((lo, hi, p.pi1, p.pi2))
            continue
        for a, b, sign in exprs.split_dominance(pf.pi1, pg.pi1, lo, hi):
            if sign > 0:
                out.append((a, b, pf.pi1, pf.pi2))
            elif sign < 0:
                out.append((a, b, pg.pi1, pg.pi2))
            else:
                out.append((a, b, pf.pi1, exprs.try_add(pf.pi2, pg.pi2)))
    return PiecewiseFn.of(out)


# ---------------------------------------------------------------------------
# verified lower bounds (certificate machinery)
# ---------------------------------------------------------------------------


def rational_pow_floor(x: Fraction, q: Fraction) -> Fraction:
    """A positive rational lower bound for x**q (x > 0), exact when possible."""
    exact = exprs.pow_exact(x, q)
    if exact is not None:
        return exact
    if x < 1:
        e = -(-q.numerator // q.denominator)  # ceil
    else:
        e = q.numerator // q.denominator  # floor
    return x ** max(e, 0) if e > 0 else Fraction(1)


def expr_lower_bound(e: Expr, lo: Fraction, hi: Fraction) -> Fraction:
    """A sound rational lower bound on e over the open (lo, hi)."""
    if isinstance(e, Power):
        return Fraction(0) if lo == 0 else rational_pow_floor(lo, e.q)
    return exprs.poly_lower_bound(exprs.poly_coeffs(e), lo, hi)


def expr_at_least(e: Expr, c: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """Exactly verify e >= c on (lo, hi); for polynomials this checks the
    same Bernstein bound the certificate builder emits, so it may reject
    a true bound but never one the builder produced."""
    if isinstance(e, Power):
        return exprs.cmp_pow(lo, e.q, c) >= 0  # x**q increases
    return exprs.poly_lower_bound(exprs.poly_coeffs(e), lo, hi) >= c


# ---------------------------------------------------------------------------
# the general integral on interval spaces
# ---------------------------------------------------------------------------


def _clip_pieces(f: PiecewiseFn, window: Optional[IntervalSet]) -> List[PiecewisePiece]:
    if window is None:
        return list(f.pieces)
    out = []
    for p in f.pieces:
        for wa, wb in window.intervals:
            lo, hi = max(p.lo, wa), min(p.hi, wb)
            if lo < hi:
                out.append(PiecewisePiece(lo, hi, p.pi1, p.pi2))
    return out


def _mass_integral(space: IntervalSpace, pi2: Expr, lo: Fraction, hi: Fraction) -> Fraction:
    """Exact integral of pi2 * density over (lo, hi)."""
    pcoeffs = exprs.poly_coeffs(pi2)
    if pcoeffs is not None:
        return exprs.poly_integral(exprs.poly_mul(pcoeffs, space.density), lo, hi)
    total = Fraction(0)
    for k, c in enumerate(space.density):
        if c == 0:
            continue
        e = pi2.q + k + 1
        hi_p = exprs.pow_exact(hi, e)
        lo_p = exprs.pow_exact(lo, e)
        if hi_p is None or lo_p is None:
            raise UnsupportedExpressionError(
                f"integral of x**{pi2.q} has irrational endpoint values"
            )
        total += c * (hi_p - lo_p) / e
    return total


def _interval_integrate(
    space: IntervalSpace, f: PiecewiseFn, window: Optional[IntervalSet] = None
) -> Tuple[HValue, T4Certificate]:
    pieces = [
        p
        for p in _clip_pieces(f, window)
        if space.nu(IntervalSet.of([(p.lo, p.hi)])) > 0
    ]
    if not pieces:
        return ZERO, T4Certificate(ZERO)

    sups = [exprs.sup_on(p.pi1, p.lo, p.hi)[0] for p in pieces]
    s = max(sups)
    top = [
        p
        for p in pieces
        if isinstance(p.pi1, Const) and p.pi1.value == s
    ]
    mass = sum(
        (_mass_integral(space, p.pi2, p.lo, p.hi) for p in top), Fraction(0)
    )
    if s == 0 and mass == 0:
        return ZERO, T4Certificate(ZERO)
    value = HValue(space.dim_offset + s, ExtRat(mass))
    cert = _build_certificate(space, pieces, top, s, mass, value)
    return value, cert


def _build_certificate(
    space: IntervalSpace,
    pieces: List[PiecewisePiece],
    top: List[PiecewisePiece],
    s: Fraction,
    mass: Fraction,
    value: HValue,
) -> T4Certificate:
    m_wits: List[Witness] = []
    achieved = Fraction(0)
    if mass > 0:
        for p in top:
            for sub_lo, sub_hi, bound in _mass_family(p, s):
                where = IntervalSet.of([(sub_lo, sub_hi)])
                mv = space.measure(where)
                if mv == ZERO:
                    continue
                m_wits.append(Witness(where, mv, HValue(s, ExtRat(bound))))
                achieved += bound * mv.m.frac

    d_wits: List[Witness] = []
    if top and s == 0:
        # at dimension 0 a witness needs a positive mass bound: the first
        # mass cell that has one is a dimension witness as it stands
        d_wits = [w for w in m_wits if w.inf_bound > ZERO][:1]
    elif top:
        where = IntervalSet.of([(p.lo, p.hi) for p in top])
        d_wits.append(Witness(where, space.measure(where), HValue(s, ExtRat(0))))
    else:
        for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            t = s - eps if s > eps else s * (1 - eps)
            w = _superlevel_witness(space, pieces, t)
            if w is not None:
                d_wits.append(w)

    # the family realizes the mass exactly only for constant mass
    # coordinates under the plain Lebesgue density
    exact = mass <= 0 or (
        space.density == (Fraction(1),)
        and all(isinstance(p.pi2, Const) for p in top)
        and achieved == mass
    )
    return T4Certificate(
        value, tuple(d_wits), tuple(m_wits), exact, ExtRat(achieved)
    )


def _superlevel_witness(
    space: IntervalSpace, pieces: List[PiecewisePiece], t: Fraction
) -> Optional[Witness]:
    """A positive-measure set on which the dimension coordinate is >= t > 0."""
    if t <= 0:
        return None
    for p in pieces:
        e = p.pi1
        if isinstance(e, Const):
            if e.value >= t:
                where = IntervalSet.of([(p.lo, p.hi)])
                return Witness(where, space.measure(where), HValue(t, ExtRat(0)))
        elif isinstance(e, Affine):
            x_t = (t - e.a) / e.b
            lo, hi = (max(p.lo, x_t), p.hi) if e.b > 0 else (p.lo, min(p.hi, x_t))
            if lo < hi:
                where = IntervalSet.of([(lo, hi)])
                mv = space.measure(where)
                if mv != ZERO:
                    return Witness(where, mv, HValue(t, ExtRat(0)))
        elif isinstance(e, Power):
            if exprs.cmp_pow(p.hi, e.q, t) <= 0:
                continue
            x0 = p.lo
            step = (p.hi - p.lo) / 2
            for _ in range(64):
                x0 = p.hi - step
                if x0 > p.lo and exprs.cmp_pow(x0, e.q, t) >= 0:
                    break
                step /= 2
            else:
                continue
            where = IntervalSet.of([(x0, p.hi)])
            mv = space.measure(where)
            if mv != ZERO:
                return Witness(where, mv, HValue(t, ExtRat(0)))
    return None


def _mass_family(p: PiecewisePiece, s: Fraction):
    """Disjoint subintervals of a top piece with lower bounds on the mass
    coordinate; exact for constants, a dyadic lower family otherwise."""
    if isinstance(p.pi2, Const):
        return [(p.lo, p.hi, p.pi2.value)]
    cells = 8
    out = []
    width = (p.hi - p.lo) / cells
    for k in range(cells):
        lo = p.lo + width * k
        hi = lo + width
        b = expr_lower_bound(p.pi2, lo, hi)
        if b > 0 or s > 0:
            out.append((lo, hi, max(b, Fraction(0))))
    return out


# ---------------------------------------------------------------------------
# public integral entry points
# ---------------------------------------------------------------------------


def integrate(
    space: MeasureSpace, f: HFunction, on: Optional[MeasurableSet] = None
) -> Tuple[HValue, T4Certificate]:
    """The general integral, with a witness certificate.

    On an atom space the supremum over simple minorants is attained at
    the function itself, so the value is the defining weighted sum.  On
    an interval space with a piecewise function, the closed-form
    evaluation described in the module docstring is used.
    """
    if isinstance(f, SimpleFn):
        g = f if on is None else _restrict_simple(f, on)
        value = integrate_simple(space, g)
        return value, _simple_certificate(space, g, value)
    if isinstance(space, IntervalSpace) and isinstance(f, PiecewiseFn):
        window = _as_window(space, on)
        return _interval_integrate(space, f, window)
    raise UnsupportedExpressionError(
        f"cannot integrate {type(f).__name__} over {type(space).__name__}"
    )


def _as_window(space: IntervalSpace, on: Optional[MeasurableSet]) -> Optional[IntervalSet]:
    if on is None:
        return None
    if not isinstance(on, IntervalSet):
        raise UnknownSetError("interval spaces restrict to interval sets")
    space.nu(on)  # bounds check
    return on


def _restrict_simple(f: SimpleFn, on: MeasurableSet) -> SimpleFn:
    pieces = []
    for coeff, s in f.pieces:
        if isinstance(s, AtomSet) and isinstance(on, AtomSet):
            sub = AtomSet(s.atoms & on.atoms)
            if sub.atoms:
                pieces.append((coeff, sub))
        elif isinstance(s, IntervalSet) and isinstance(on, IntervalSet):
            sub = intersect_intervals(s, on)
            if not sub.is_empty:
                pieces.append((coeff, sub))
        elif isinstance(s, CatalogUnion) and isinstance(on, CatalogUnion):
            names = [n for n in s.names if n in on.names]
            if names:
                pieces.append((coeff, CatalogUnion.of(*names)))
        else:
            raise UnknownSetError("restriction set kind does not match the function")
    return SimpleFn(tuple(pieces), f.i_simple)


def _simple_certificate(space: MeasureSpace, f: SimpleFn, value: HValue) -> T4Certificate:
    if value == ZERO:
        return T4Certificate(ZERO)
    d_wits = []
    m_wits = []
    achieved = ExtRat(0)
    for coeff, s in f.pieces:
        mv = space.measure(s)
        if coeff.is_zero or mv == ZERO:
            continue
        if coeff.d + mv.d == value.d:
            w = Witness(s, mv, coeff)
            d_wits.append(w)
            m_wits.append(w)
            achieved = achieved + coeff.m * mv.m
    return T4Certificate(value, tuple(d_wits), tuple(m_wits), True, achieved)


def verify_certificate(space: MeasureSpace, f: HFunction, cert: T4Certificate) -> bool:
    """Re-evaluate every recorded witness inequality from scratch."""
    for w in list(cert.d_witnesses) + list(cert.m_witnesses):
        if space.measure(w.where) != w.measure or w.measure == ZERO:
            return False
        if not w.inf_bound > ZERO:
            return False
        if not _bound_holds(f, w):
            return False
    for w in cert.d_witnesses:
        if w.inf_bound.d + w.measure.d > cert.value.d:
            return False
    recomputed = ExtRat(0)
    for w in cert.m_witnesses:
        if w.inf_bound.d + w.measure.d != cert.value.d:
            return False
        recomputed = recomputed + w.inf_bound.m * w.measure.m
    if cert.m_witnesses:
        if recomputed != cert.achieved_m or not recomputed <= cert.value.m:
            return False
    if cert.exact_m and cert.value != ZERO:
        if cert.achieved_m != cert.value.m:
            return False
    return True


def _bound_holds(f: HFunction, w: Witness) -> bool:
    b = w.inf_bound
    if isinstance(f, SimpleFn):
        if isinstance(w.where, AtomSet):
            return all(f.value_at_atom(a) >= b for a in w.where.atoms)
        if isinstance(w.where, CatalogUnion):
            vals = {
                coeff
                for coeff, s in f.pieces
                if isinstance(s, CatalogUnion) and set(w.where.names) & set(s.names)
            }
            return all(v >= b for v in vals)
        # interval pieces: check each witness interval against the piece value
        for a, c in w.where.intervals:
            val = f.value_at_point((a + c) / 2)
            if not val >= b:
                return False
        return True
    for a, c in w.where.intervals:
        piece = _piece_covering(f, a, c)
        if piece is None:
            return False
        if not expr_at_least(piece.pi1, b.d, a, c):
            return False
        if exprs.cmp_at(piece.pi1, (a + c) / 2, b.d) > 0:
            continue  # dimension strictly above the bound: mass bound is free
        # a zero mass bound is guaranteed by the pi2 >= 0 invariant
        if b.m.is_finite and b.m.frac > 0 and not expr_at_least(piece.pi2, b.m.frac, a, c):
            return False
    return True


def graded_integral(space: MeasureSpace, f: HFunction) -> HValue:
    """Integral of a function whose dimension coordinate is constant.

    The evaluation shifts the lifted ordinary integral of the mass
    coordinate by the shared dimension; it must (and does) agree with
    the general integral.
    """
    if isinstance(f, SimpleFn):
        dims = {coeff.d for coeff, _ in f.pieces if not coeff.is_zero}
        if len(dims) > 1:
            raise ValueError("dimension coordinate is not constant")
        return integrate_simple(space, f)
    if not isinstance(space, IntervalSpace):
        raise UnsupportedExpressionError("graded piecewise functions need an interval space")
    dims = set()
    for p in f.pieces:
        if not isinstance(p.pi1, Const):
            raise ValueError("dimension coordinate is not constant")
        dims.add(p.pi1.value)
    if len(dims) > 1:
        raise ValueError("dimension coordinate is not constant")
    d = dims.pop() if dims else Fraction(0)
    if d > 0:
        _require_full_cover(space, f)
    nu_total = sum(
        (space.nu(IntervalSet.of([(p.lo, p.hi)])) for p in f.pieces), Fraction(0)
    )
    mass = sum(
        (_mass_integral(space, p.pi2, p.lo, p.hi) for p in f.pieces), Fraction(0)
    )
    if nu_total == 0 or (d == 0 and mass == 0):
        return ZERO
    return HValue(space.dim_offset + d, ExtRat(mass))


def _require_full_cover(space: IntervalSpace, f: PiecewiseFn):
    ivs, _ = _uncovered(space, f)
    if ivs:
        raise ValueError(
            "a positive-dimension graded function must cover the space "
            f"(uncovered: {ivs})"
        )


def ess_sup(space: MeasureSpace, g) -> Fraction:
    """Essential supremum of a nonnegative real-valued description.

    For atom spaces ``g`` maps atoms to rationals; for interval spaces
    ``g`` is a list of (lo, hi, expression) pieces, value 0 elsewhere.
    Null pieces and isolated points never contribute; sup over nothing
    is 0.
    """
    if isinstance(space, AtomSpace):
        vals = [
            as_fraction(g[a])
            for a in space.atoms
            if space.weights[a] != ZERO and a in g
        ]
        return max(vals) if vals else Fraction(0)
    if not isinstance(space, IntervalSpace):
        raise UnsupportedExpressionError("ess_sup needs an atom or interval space")
    best = Fraction(0)
    covered = []
    for lo, hi, e in g:
        lo, hi = as_fraction(lo), as_fraction(hi)
        covered.append((lo, hi))
        if space.nu(IntervalSet.of([(lo, hi)])) == 0:
            continue
        v, _ = exprs.sup_on(e, lo, hi)
        best = max(best, v)
    return best


def integrate_ordinary(space: MeasureSpace, f: HFunction) -> HValue:
    """The ordinary-measure evaluation for a dimension-0 embedding:
    (ess sup of the dimension coordinate, mass integrated over the set
    where that supremum is attained)."""
    if isinstance(space, AtomSpace):
        if not isinstance(f, SimpleFn):
            raise UnsupportedExpressionError("atom spaces carry simple functions")
        for a in space.atoms:
            if space.weights[a] != ZERO and space.weights[a].d != 0:
                raise ValueError("ordinary evaluation needs a dimension-0 embedding")
        live = [a for a in space.atoms if space.weights[a] != ZERO]
        if not live:
            return ZERO
        s = max(f.value_at_atom(a).d for a in live)
        m = ExtRat(0)
        for a in live:
            v = f.value_at_atom(a)
            if v.d == s:
                m = m + v.m * space.weights[a].m
        if s == 0 and m.sign() == 0:
            return ZERO
        return HValue(s, m)
    if isinstance(space, IntervalSpace):
        if space.dim_offset != 0:
            raise ValueError("ordinary evaluation needs dim_offset 0")
        value, _ = integrate(space, f)
        return value
    raise UnsupportedExpressionError("ordinary evaluation needs an atom or interval space")


def indefinite(space: MeasureSpace, f: HFunction) -> Callable[[MeasurableSet], HValue]:
    """The induced h-measure L |-> integral of f over L."""

    def nu(L: MeasurableSet) -> HValue:
        value, _ = integrate(space, f, on=L)
        return value

    return nu


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


@json_loader
def function_from_json(obj) -> HFunction:
    if "simple" in obj:
        pieces = [
            (HValue.parse(p["coeff"]), set_from_json(p["set"]))
            for p in obj["simple"]
        ]
        return SimpleFn.of(pieces, i_simple=bool(obj.get("i_simple", False)))
    if "pieces" in obj:
        out = []
        for p in obj["pieces"]:
            s = set_from_json(p["set"])
            if not isinstance(s, IntervalSet) or len(s.intervals) != 1 or s.points:
                raise ParseError("each piecewise piece needs exactly one interval")
            (lo, hi), = s.intervals
            out.append(
                (lo, hi, exprs.expr_from_json(p["pi1"]), exprs.expr_from_json(p["pi2"]))
            )
        return PiecewiseFn.of(out)
    raise ParseError("function description needs 'simple' or 'pieces'")


def function_to_json(f: HFunction):
    if isinstance(f, SimpleFn):
        return {
            "simple": [
                {"coeff": str(coeff), "set": set_to_json(s)} for coeff, s in f.pieces
            ],
            "i_simple": f.i_simple,
        }
    return {
        "pieces": [
            {
                "set": {"intervals": [[str(p.lo), str(p.hi)]]},
                "pi1": exprs.expr_to_json(p.pi1),
                "pi2": exprs.expr_to_json(p.pi2),
            }
            for p in f.pieces
        ]
    }
