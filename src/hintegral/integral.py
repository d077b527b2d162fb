"""Integration of pair-valued functions over h-measure spaces.

Two function shapes are supported:

* :class:`SimpleFn` -- finite range over disjoint measurable pieces,
  value (0,0) off their union.  Its integral is the direct weighted sum
  ``sum_i coeff_i * measure(piece_i)``.
* :class:`PiecewiseFn` -- a piecewise description over an interval
  space.  Each piece carries one exact expression per coordinate, a
  rational polynomial or a non-integral rational power (see
  :mod:`hintegral.exprs`); the dimension coordinate's polynomial has
  degree at most 1.

The general integral of a piecewise function is *never* computed by
enumerating simple minorants (the supremum ranges over an unenumerable
family).  Instead it is evaluated in closed form: the result dimension
is the space's dimension offset plus the essential supremum of the
dimension coordinate, and the result mass is the exact integral of the
mass coordinate over the pieces where that supremum is attained (0 when
it is not), one integral per run of touching pieces with one mass
coordinate (:func:`_runs`).  Only the zero density has null pieces, and
under it every integral is (0, 0); any other density is nonnegative
with finitely many roots, so every piece has positive measure and the
essential supremum is the largest supremum over the pieces.  Each run
is one top term (:func:`_top_terms`), as each piece of a simple
function is, and each term that reaches the value is a witness of the
certificate, which can be re-verified: a witness claims that the
integral over its set reaches its bound b times the set's measure,
and :func:`_bound_holds` decides that exactly from the same closed
form and runs.

Both shapes check their invariants in the constructor.  The integral
over a set L (the paper's indefinite integral) is the integral of
``restrict(f, L)``, whose pieces are the same cells.

This module holds only the general integral, its certificate,
restriction, sublevel sets, pointwise sums and the JSON parser.  It
treats an expression as opaque; :mod:`hintegral.exprs` decides
everything that depends on its kind.  Sublevel sets and pointwise sums
both read the cells of :func:`exprs.split_dominance`.  The references
the integral is checked against (brute force, the graded and the
ordinary evaluation) and the rest of the test machinery live in
:mod:`hintegral.oracle`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import List, Optional, Sequence, Tuple, Union

from . import exprs
from .errors import (
    NonDisjointError,
    ParseError,
    UnknownSetError,
    UnsupportedExpressionError,
    json_loader,
)
from .exprs import Expr
from .hvalue import ZERO, ExtRat, HValue, add, as_fraction, mul, sum_finite
from .space import (
    AtomSet,
    AtomSpace,
    IntervalSet,
    IntervalSpace,
    MeasurableSet,
    MeasureSpace,
    join_runs,
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
    mass coordinate may be +inf.  The constructor checks both and the
    disjointness of the pieces, so every instance holds them.
    """

    pieces: Tuple[Tuple[HValue, MeasurableSet], ...]
    i_simple: bool = False

    def __post_init__(self):
        for coeff, _ in self.pieces:
            if not coeff.is_nonneg():
                raise ValueError(f"negative coefficient {coeff}")
            if not self.i_simple and not coeff.m.is_finite:
                raise ValueError(f"infinite coefficient {coeff} in a simple function")
        if self.pieces:
            union([s for _, s in self.pieces])  # structural disjointness check

    @staticmethod
    def of(pieces: Sequence[Tuple[HValue, MeasurableSet]], i_simple: bool = False) -> "SimpleFn":
        return SimpleFn(tuple(pieces), i_simple)

    def value_at(self, x) -> HValue:
        """The coefficient of the piece holding x (an atom, such as the
        name of a catalog set, or a point); (0,0) off every piece."""
        return next((coeff for coeff, s in self.pieces if x in s), ZERO)


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
    (0,0).  Each coordinate is a polynomial or a non-integral power.
    The dimension coordinate's polynomial has degree at most 1, so its
    sublevel sets stay finite interval unions; the mass coordinate's
    may have any degree.  A fractional power is only allowed on pieces
    inside x >= 0.  The constructor checks the pieces (see
    :func:`exprs.check_piece`) and that they are sorted and disjoint.
    """

    pieces: Tuple[PiecewisePiece, ...]

    def __post_init__(self):
        for p in self.pieces:
            if not p.lo < p.hi:
                raise ValueError(f"degenerate piece ({p.lo}, {p.hi})")
            exprs.check_piece(p.pi1, p.pi2, p.lo, p.hi)
        for p, q in zip(self.pieces, self.pieces[1:]):
            if q.lo < p.hi:
                raise NonDisjointError(
                    f"pieces ({p.lo}, {p.hi}) and ({q.lo}, {q.hi}) overlap or are out of order"
                )

    @staticmethod
    def of(pieces: Sequence[Tuple]) -> "PiecewiseFn":
        out = [
            PiecewisePiece(as_fraction(lo), as_fraction(hi), pi1, pi2)
            for lo, hi, pi1, pi2 in pieces
        ]
        return PiecewiseFn(tuple(sorted(out, key=lambda p: p.lo)))


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
    """A set W with its measure and a bound b, claiming that the integral
    of f over W is at least b * measure (see :func:`_bound_holds`)."""

    where: MeasurableSet
    measure: HValue
    inf_bound: HValue


@dataclass(frozen=True)
class T4Certificate:
    """Witness evidence for an integral evaluation.

    ``d_witnesses`` substantiate the dimension: each witness has
    positive measure and a positive bound (see :class:`Witness`), one
    has bound-dimension + measure-dimension equal to the reported
    dimension whether or not the supremum is attained, and none has more.
    ``m_witnesses`` form one disjoint family at that dimension whose
    masses add up to the reported mass, which ``achieved_m`` repeats.
    :func:`integrate` gives both lists the same top terms.  Each carries
    its set's exact mass, so ``exact_m`` is always True; the field stays
    because the JSON form of a certificate has it.
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
    """sum_i coeff_i * measure(piece_i): the reference sum of
    :func:`oracle.graded_integral`, so it never calls :func:`integrate`.
    It stays here only because the benchmark traces it by this name."""
    return sum_finite(mul(coeff, space.measure(s)) for coeff, s in f.pieces)


# ---------------------------------------------------------------------------
# sublevel sets
# ---------------------------------------------------------------------------


def sublevel_set(space: MeasureSpace, f: HFunction, v: HValue) -> MeasurableSet:
    """The exact set {x : f(x) < v}.  A function off its space raises
    as it does in :func:`integrate` (see :func:`_inside`)."""
    _inside(space, f)
    if isinstance(space, AtomSpace):
        return AtomSet(
            frozenset(a for a in space.atoms if f.value_at(a) < v)
        )
    if isinstance(f, PiecewiseFn):
        return _piecewise_sublevel(space, f, v)
    raise UnsupportedExpressionError(
        f"sublevel sets are unsupported for {type(space).__name__}/{type(f).__name__}"
    )


def _piecewise_sublevel(space: IntervalSpace, f: PiecewiseFn, v: HValue) -> IntervalSet:
    """The cells of pi1 against v.d: below v where pi1 < v.d, and where
    pi1 == v.d on a whole cell, below v where pi2 < v.m.  The edges
    between the cells are the points where pi1 == v.d, so the same
    test on pi2 decides each of them (pi2 >= 0 is never below v.m <= 0)."""
    ivs: List[Tuple[Fraction, Fraction]] = []
    pts: List[Fraction] = []
    level = exprs.const(v.d)
    for p in f.pieces:
        cells = exprs.split_dominance(p.pi1, level, p.lo, p.hi)
        for a, b, sign in cells:
            if sign == 0:
                mass = (
                    exprs.split_dominance(p.pi2, exprs.const(v.m.frac), a, b)
                    if v.m.is_finite
                    else [(a, b, -v.m.sign())]
                )
                ivs.extend((c, d) for c, d, s in mass if s < 0)
            elif sign < 0:
                ivs.append((a, b))
        if v.m.sign() > 0:
            pts.extend(
                t for _, t, _ in cells[:-1]
                if not (v.m.is_finite and exprs.at_least(p.pi2, v.m.frac, t, t))
            )
    if ZERO < v:
        gap_ivs, gap_pts = _uncovered(space, f)
        ivs.extend(gap_ivs)
        pts.extend(gap_pts)
    return IntervalSet.of(ivs, pts)


def _inside(space: MeasureSpace, f: HFunction) -> Optional[List[HValue]]:
    """Raise unless f is a function on the space: each piece set of a
    simple function goes through ``space.measure``, and a piecewise
    function needs an interval space.  Its pieces are sorted and
    disjoint, so only an end piece can leave the space.  Return the
    measures of a simple function's piece sets in piece order, and None
    for a piecewise function."""
    if isinstance(f, SimpleFn):
        return [space.measure(s) for _, s in f.pieces]
    if not isinstance(space, IntervalSpace):
        raise UnsupportedExpressionError(f"cannot integrate PiecewiseFn over {type(space).__name__}")
    if any(p.lo < space.lo or space.hi < p.hi for p in f.pieces[:1] + f.pieces[-1:]):
        p = next(p for p in f.pieces if p.lo < space.lo or space.hi < p.hi)
        raise UnknownSetError(
            f"piece ({p.lo}, {p.hi}) is not inside the space ({space.lo}, {space.hi})"
        )


def _uncovered(space: IntervalSpace, f: PiecewiseFn):
    """Complement of the open pieces within the space: the gap intervals
    between them, and every piece end inside the space."""
    ends = [space.lo] + [x for p in f.pieces for x in (p.lo, p.hi)] + [space.hi]
    ivs = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b]
    return ivs, sorted({x for x in ends[1:-1] if space.lo < x < space.hi})


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
        v = add(f.value_at(a), g.value_at(a))
        if not v.is_zero:
            pieces.append((v, AtomSet.of(a)))
    return SimpleFn.of(pieces, i_simple=f.i_simple or g.i_simple)


def _cells(fn: PiecewiseFn, lo: Fraction, hi: Fraction) -> List[PiecewisePiece]:
    """The pieces of fn that meet (lo, hi), each clipped to it.  The pieces
    are sorted and disjoint, so both their ends are sorted."""
    first = bisect_right(fn.pieces, lo, key=lambda p: p.hi)
    last = bisect_left(fn.pieces, hi, key=lambda p: p.lo)
    return [
        PiecewisePiece(max(p.lo, lo), min(p.hi, hi), p.pi1, p.pi2)
        for p in fn.pieces[first:last]
    ]


def _add_piecewise(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    edges = sorted(
        {p.lo for p in f.pieces}
        | {p.hi for p in f.pieces}
        | {p.lo for p in g.pieces}
        | {p.hi for p in g.pieces}
    )
    out: List[Tuple] = []
    for lo, hi in zip(edges, edges[1:]):
        # every piece end is an edge, so each function has at most one cell here
        cells = _cells(f, lo, hi) + _cells(g, lo, hi)
        if len(cells) < 2:
            out.extend((lo, hi, p.pi1, p.pi2) for p in cells)
            continue
        pf, pg = cells
        for a, b, sign in exprs.split_dominance(pf.pi1, pg.pi1, lo, hi):
            if sign > 0:
                out.append((a, b, pf.pi1, pf.pi2))
            elif sign < 0:
                out.append((a, b, pg.pi1, pg.pi2))
            else:
                out.append((a, b, pf.pi1, exprs.try_add(pf.pi2, pg.pi2)))
    return PiecewiseFn.of(out)


# ---------------------------------------------------------------------------
# the general integral on interval spaces
# ---------------------------------------------------------------------------


def _runs(cells: Sequence[PiecewisePiece], level: Fraction) -> List[list]:
    """[lo, hi, pi2] of each run of touching cells with pi1 = level and one pi2."""
    return join_runs((p.lo, p.hi, p.pi2) for p in cells if p.pi1 == exprs.const(level))


def _top_terms(space: IntervalSpace, f: PiecewiseFn) -> List[Tuple]:
    """The top terms of the closed form, each with the set, measure and
    bound of its witness: one per run of :func:`_runs` where pi1 is the
    constant s, with the bound (s, m / nu) and the run's exact mass m,
    so the term is (o + s, m); or, when no piece is that constant, one
    zero-mass term on the union of the pieces whose pi1 reaches s, with
    the bound (s, 0)."""
    # IntervalSpace.of proves the density nonnegative and a nonzero
    # polynomial has finitely many roots, so every open cell of a piece
    # has positive measure unless the density is the zero polynomial
    pieces = f.pieces
    if not pieces or not any(space.density):
        return []
    sups = [exprs.sup_on(p.pi1, p.lo, p.hi) for p in pieces]
    s = max((x for x in sups if x is not None), default=None)
    for p, sup in zip(pieces, sups):  # an irrational supremum may stay below s
        if sup is None and (s is None or exprs.cmp_sup(p.pi1, p.lo, p.hi, s) > 0):
            raise UnsupportedExpressionError(f"sup of pi1 on ({p.lo}, {p.hi}) is irrational")
    reach = [p for p, sup in zip(pieces, sups) if sup == s]
    parts = [
        (IntervalSet.of([(lo, hi)]), exprs.weighted_integral(pi2, space.density, lo, hi))
        for lo, hi, pi2 in _runs(reach, s)
    ] or [(IntervalSet.of([(p.lo, p.hi) for p in reach]), Fraction(0))]
    terms = []
    for where, m in parts:
        mv = space.measure(where)
        b = HValue(s, ExtRat(m / mv.m.frac))
        terms.append((mul(b, mv), where, mv, b))
    return terms


# ---------------------------------------------------------------------------
# public integral entry points
# ---------------------------------------------------------------------------


def integrate(space: MeasureSpace, f: HFunction) -> Tuple[HValue, T4Certificate]:
    """The general integral, with a witness certificate.

    One rule serves both shapes: the value is the dominance sum of
    terms, each a bound times a measure, and the terms nonzero at the
    value's dimension are the witnesses, in both lists; a (0, 0) value
    has none.  A simple function's terms are its pieces, each
    coefficient times the measure that :func:`_inside` returns: the
    supremum over simple minorants is attained at the function itself.
    A piecewise function's are the top terms of the closed form in the
    module docstring (:func:`_top_terms`).  The integral over a set L is
    the integral of ``restrict(f, L)``.  A function off its space raises
    (see :func:`_inside`).
    """
    measures = _inside(space, f)
    if isinstance(f, SimpleFn):
        terms = [(mul(c, mv), s, mv, c) for (c, s), mv in zip(f.pieces, measures)]
    else:
        terms = _top_terms(space, f)
    value = sum_finite(t for t, _, _, _ in terms)
    wits = tuple(
        Witness(s, mv, b) for t, s, mv, b in terms if not t.is_zero and t.same_dim(value)
    )
    return value, T4Certificate(value, wits, wits, True, value.m)


def restrict(f: HFunction, L: MeasurableSet) -> HFunction:
    """f * 1_L: f on L, (0,0) off it.  Only the part of L inside the
    pieces counts, and a set of another kind raises UnknownSetError.  A
    piecewise restriction drops the isolated points of L, which no
    interval-space measure sees."""
    if isinstance(f, SimpleFn):
        pieces = tuple((c, sub) for c, s in f.pieces if not (sub := s & L).is_empty)
        return SimpleFn(pieces, f.i_simple)
    if not isinstance(L, IntervalSet):
        raise UnknownSetError(f"cannot combine a IntervalSet with a {type(L).__name__}")
    return PiecewiseFn(tuple(p for lo, hi in L.intervals for p in _cells(f, lo, hi)))


def verify_certificate(space: MeasureSpace, f: HFunction, cert: T4Certificate) -> bool:
    """Re-evaluate every recorded witness claim from scratch.  Disjoint
    witnesses add their claims by sigma-additivity, so together they
    prove the value from below in both coordinates.  A function off its
    space raises, as it does in :func:`integrate`."""
    _inside(space, f)
    for w in dict.fromkeys(cert.d_witnesses + cert.m_witnesses):  # each claim once
        if space.measure(w.where) != w.measure or w.measure == ZERO:
            return False
        if not w.inf_bound > ZERO:
            return False
        if not _bound_holds(space, f, w):
            return False
    reached = [w.inf_bound.d + w.measure.d for w in cert.d_witnesses]
    if any(d > cert.value.d for d in reached):
        return False
    if cert.value != ZERO and cert.value.d not in reached:
        return False
    recomputed = ExtRat(0)
    for w in cert.m_witnesses:
        if w.inf_bound.d + w.measure.d != cert.value.d:
            return False
        recomputed = recomputed + w.inf_bound.m * w.measure.m
    if cert.m_witnesses:
        try:  # a witness listed twice would count its mass twice
            union([w.where for w in cert.m_witnesses])
        except NonDisjointError:
            return False
    return recomputed == cert.achieved_m == cert.value.m


def _bound_holds(space: MeasureSpace, f: HFunction, w: Witness) -> bool:
    """The witness's claim that the integral of f over its set W is at
    least b * mu(W), decided exactly on the whole of W.

    For a simple function that integral is :func:`integrate`'s value.
    For a piecewise function it is the dominance sum over the cells
    where W's intervals meet the pieces; W's points are null.  The
    largest sign of pi1's supremum on a cell against b.d (exprs.cmp_sup)
    decides.  At b.d a mass bound <= 0 holds, as pi2 >= 0.  A positive
    one needs the cells where pi1 is the constant b.d, since elsewhere
    pi1 is monotone (exprs.check_piece) and reaches b.d only at an end,
    a null set: the exact integral of pi2 * density over their runs must
    reach b.m * nu(W).  exprs.weighted_integral_bounds bounds each run's
    integral, and an exact pi2 >= b.m on a run, which a coarse rounded
    root can miss, raises the lower bound to b.m * nu(run).  Between the
    sums, raise."""
    b = w.inf_bound
    if isinstance(f, SimpleFn):
        return integrate(space, restrict(f, w.where))[0] >= mul(b, w.measure)
    cells = [p for lo, hi in w.where.intervals for p in _cells(f, lo, hi)]
    signs = [exprs.cmp_sup(p.pi1, p.lo, p.hi, b.d) for p in cells]
    top = max(signs, default=-1)
    if top != 0 or b.m.sign() <= 0:
        return top >= 0
    if not b.m.is_finite:
        return False
    runs = _runs([p for p, sign in zip(cells, signs) if sign == 0], b.d)
    bounds = []
    for lo, hi, pi2 in runs:
        try:
            bounds.append(exprs.weighted_integral_bounds(pi2, space.density, lo, hi))
        except UnsupportedExpressionError:  # an end power past MAX_POWER_BITS
            bounds.append((Fraction(0), inf))
    bm = b.m.frac
    target = bm * w.measure.m.frac
    if sum(high for _, high in bounds) < target:
        return False
    least = (  # pi2 >= b.m on a run puts its integral at b.m * nu(run) or more
        max(low, bm * exprs.poly_integral(space.density, lo, hi))
        if low != high and exprs.at_least(pi2, bm, lo, hi)
        else low
        for (low, high), (lo, hi, pi2) in zip(bounds, runs)
    )
    if sum(low for low, _ in bounds) >= target or sum(least) >= target:
        return True
    raise UnsupportedExpressionError("the witness claim turns on an irrational mass")


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------


@json_loader
def function_from_json(obj) -> HFunction:
    if ("simple" in obj) == ("pieces" in obj):
        raise ParseError("function description needs one of 'simple' and 'pieces'")
    if "simple" in obj:
        pieces = [
            (HValue.parse(p["coeff"]), set_from_json(p["set"]))
            for p in obj["simple"]
        ]
        i_simple = obj.get("i_simple", False)
        if not isinstance(i_simple, bool):
            raise ParseError(f"i_simple must be true or false, got {i_simple!r}")
        return SimpleFn.of(pieces, i_simple=i_simple)
    out = []
    for p in obj["pieces"]:
        lo, hi = _piece_ends(p["set"])
        out.append(
            (lo, hi, exprs.expr_from_json(p["pi1"]), exprs.expr_from_json(p["pi2"]))
        )
    return PiecewiseFn.of(out)


def _piece_ends(obj) -> Tuple[Fraction, Fraction]:
    """The ends of a piece's set, one interval: read directly when it is
    ``{"intervals": [[lo, hi]]}`` with lo < hi, and otherwise through
    :func:`set_from_json`, so every other shape keeps its error."""
    if type(obj) is dict and obj.keys() == {"intervals"}:
        ivs = obj["intervals"]
        if type(ivs) is list and len(ivs) == 1 and type(ivs[0]) is list and len(ivs[0]) == 2:
            lo, hi = as_fraction(ivs[0][0]), as_fraction(ivs[0][1])
            if lo < hi:
                return lo, hi
    s = set_from_json(obj)
    if not isinstance(s, IntervalSet) or len(s.intervals) != 1 or s.points:
        raise ParseError("each piecewise piece needs exactly one interval")
    return s.intervals[0]
