"""Integration of pair-valued functions over h-measure spaces.

Two function shapes are supported, one per space kind:

* :class:`SimpleFn` -- finite range over disjoint measurable pieces,
  value (0,0) off their union.  Its integral is the direct weighted sum
  ``sum_i coeff_i * measure(piece_i)`` on an atom space; on an interval
  space, whose points are null, :func:`_inside` lowers it to constant pieces.
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
mass coordinate against the space's measure over the pieces where that
supremum is attained (0 when it is not), one integral per run of
touching pieces with one mass coordinate (:func:`_runs`).  On a null
space every integral is (0, 0); on any other every piece has positive
measure (:attr:`IntervalSpace.is_null`), so the essential supremum is
the largest supremum over the pieces.  Each run is one top term
(:func:`_top_terms`), as each piece of a simple function is, and each
term that reaches the value is a witness of the certificate, which can
be re-verified: a witness claims that the integral over its set
reaches its bound b times the set's measure, and :func:`_bound_holds`
decides that exactly from the same closed form and runs.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple, Union

from . import exprs
from .errors import (
    NonDisjointError,
    ParseError,
    UnknownSetError,
    UnsupportedExpressionError,
    json_list,
    json_loader,
)
from .exprs import Expr
from .hvalue import ZERO, ExtRat, HValue, add, as_fraction, frac_cmp, mul, sum_finite
from .space import (
    AtomSet,
    AtomSpace,
    IntervalSet,
    IntervalSpace,
    MeasurableSet,
    MeasureSpace,
    join_runs,
    meeting,
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
    disjointness of the pieces, so every instance holds them.  Over
    interval sets it is read as constant pieces (:func:`_lower`).
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
        """The coefficient of the piece holding x, (0,0) off every piece: an atom, such as the
        name of a catalog set, is looked up in :attr:`_by_atom`, and a point found by a scan."""
        if self.pieces and isinstance(self.pieces[0][1], IntervalSet):
            return next((coeff for coeff, s in self.pieces if x in s), ZERO)
        return self._by_atom.get(x, ZERO)

    @cached_property  # built on the first lookup: a frozen dataclass still has a __dict__
    def _by_atom(self) -> dict:
        return {a: coeff for coeff, s in self.pieces for a in s.atoms}


@dataclass(frozen=True)
class PiecewisePiece:
    lo: Fraction
    hi: Fraction
    pi1: Expr
    pi2: Expr


@dataclass(frozen=True)
class PiecewiseFn:
    """Piecewise-graded function on an interval space.

    Pieces are disjoint open subintervals; off their union the value is (0,0).  Each
    coordinate is a polynomial or a non-integral power.  The dimension coordinate's
    polynomial has degree at most 1, so its sublevel sets stay finite interval unions; the
    mass coordinate's may have any degree.  A fractional power is only allowed on pieces
    inside x >= 0.  The constructor checks the pieces (:func:`exprs.check_piece`) and is the
    only code that compares their ends: one ``frac_cmp`` proves lo < hi for each piece and
    one that each pair of neighbours is sorted and disjoint.  A piece's error comes before an
    overlap's, but a neighbour whose lo is below both ends of the piece before it raises before
    any piece is checked: :func:`_ordered` sorts on that error, so it checks each piece once.
    """

    pieces: Tuple[PiecewisePiece, ...]

    def __post_init__(self):
        clash = None
        for p, q in zip(self.pieces, self.pieces[1:]):
            if frac_cmp(q.lo, p.hi) < 0:
                error = NonDisjointError(
                    f"pieces ({p.lo}, {p.hi}) and ({q.lo}, {q.hi}) overlap or are out of order"
                )
                if frac_cmp(q.lo, p.lo) < 0:
                    raise error
                clash = clash or error
        for p in self.pieces:
            if frac_cmp(p.lo, p.hi) >= 0:
                raise ValueError(f"degenerate piece ({p.lo}, {p.hi})")
            exprs.check_piece(p.pi1, p.pi2, p.lo, p.hi)
        if clash is not None:
            raise clash

    @staticmethod
    def of(pieces: Sequence[Tuple]) -> "PiecewiseFn":
        """The pieces (lo, hi, pi1, pi2), sorted by lo (see :func:`_ordered`)."""
        return _ordered([PiecewisePiece(as_fraction(a), as_fraction(b), f, g) for a, b, f, g in pieces])


def _ordered(pieces: List[PiecewisePiece]) -> PiecewiseFn:
    """The pieces sorted by lo as a PiecewiseFn.  They are sorted only when a check fails (for valid
    pieces out of order, before any piece is checked), then checked: each error is the sorted one."""
    try:
        return PiecewiseFn(tuple(pieces))
    except (ValueError, NonDisjointError, UnsupportedExpressionError):
        if (ordered := sorted(pieces, key=attrgetter("lo"))) == pieces:
            raise
    return PiecewiseFn(tuple(ordered))


HFunction = Union[SimpleFn, PiecewiseFn]


def constant_fn(lo, hi, value: HValue) -> PiecewiseFn:
    """The constant function `value` on the open interval (lo, hi)."""
    return PiecewiseFn.of([(lo, hi, exprs.const(value.d), exprs.const(value.m.frac))])


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
    as it does in :func:`integrate` (see :func:`_inside`).  On an
    interval space a simple function's isolated points are null and
    count as (0, 0), as :func:`restrict` drops the isolated points of L."""
    f, _ = _inside(space, f)
    if isinstance(space, AtomSpace):
        return AtomSet(frozenset(a for a in space.atoms if f.value_at(a) < v))
    return _piecewise_sublevel(space, f, v)


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


def _inside(space: MeasureSpace, f: HFunction) -> Tuple[HFunction, Optional[List[HValue]]]:
    """Raise unless f is a function on the space, and return f in the
    space's shape with the measures of a simple function's piece sets,
    which go through ``space.measure``: on an atom space f and them in
    piece order, on an interval space f lowered (:func:`_lower`) and None.
    A piecewise function needs an interval space; its pieces are sorted
    and disjoint, so only an end piece can leave the space."""
    if isinstance(f, SimpleFn):
        measures = [space.measure(s) for _, s in f.pieces]
        return (f, measures) if isinstance(space, AtomSpace) else (_lower(f), None)
    if not isinstance(space, IntervalSpace):
        raise UnsupportedExpressionError(f"cannot integrate PiecewiseFn over {type(space).__name__}")
    if any(p.lo < space.lo or space.hi < p.hi for p in f.pieces[:1] + f.pieces[-1:]):
        p = next(p for p in f.pieces if p.lo < space.lo or space.hi < p.hi)
        raise UnknownSetError(
            f"piece ({p.lo}, {p.hi}) is not inside the space ({space.lo}, {space.hi})"
        )
    return f, None


def _lower(f: SimpleFn) -> PiecewiseFn:
    """f over interval sets as constant pieces on its intervals, its points
    dropped.  A piecewise mass is rational: an infinite mass raises."""
    pieces = []
    for c, s in f.pieces:
        if not c.m.is_finite:
            raise UnsupportedExpressionError(f"infinite coefficient {c} needs an atom space")
        pieces.extend((lo, hi, exprs.const(c.d), exprs.const(c.m.frac)) for lo, hi in s.intervals)
    return PiecewiseFn.of(pieces)


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
    """Pointwise dominance sum, staying inside the function grammar.  A
    function without pieces is the zero function, so the sum is the
    other one unchanged.  A simple function over interval sets is
    lowered (:func:`_lower`), its isolated points null."""
    if not f.pieces or not g.pieces:
        return g if not f.pieces else f
    f, g = (
        _lower(h) if isinstance(h, SimpleFn) and isinstance(h.pieces[0][1], IntervalSet) else h
        for h in (f, g)
    )
    if isinstance(f, SimpleFn) and isinstance(g, SimpleFn):
        return _add_simple(f, g)
    if isinstance(f, PiecewiseFn) and isinstance(g, PiecewiseFn):
        return _add_piecewise(f, g)
    raise UnsupportedExpressionError("cannot add functions of different shapes")


def _add_simple(f: SimpleFn, g: SimpleFn) -> SimpleFn:
    atoms = sorted(set().union(*(s.atoms for fn in (f, g) for _, s in fn.pieces)))
    sums = ((add(f.value_at(a), g.value_at(a)), a) for a in atoms)
    pieces = [(v, AtomSet.of(a)) for v, a in sums if not v.is_zero]
    return SimpleFn.of(pieces, i_simple=f.i_simple or g.i_simple)


def _cells(fn: PiecewiseFn, lo: Fraction, hi: Fraction) -> List[PiecewisePiece]:
    """The pieces of fn that meet (lo, hi), each clipped to it."""
    return [
        PiecewisePiece(
            p.lo if frac_cmp(p.lo, lo) > 0 else lo, p.hi if frac_cmp(p.hi, hi) < 0 else hi, p.pi1, p.pi2
        )
        for p in fn.pieces[meeting(fn.pieces, lo, hi, attrgetter("lo"), attrgetter("hi"))]
    ]


def _add_piecewise(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    edges = sorted({x for p in f.pieces + g.pieces for x in (p.lo, p.hi)})
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
    top = exprs.const(level)
    return join_runs((p.lo, p.hi, p.pi2) for p in cells if p.pi1 == top)


def _top_terms(space: IntervalSpace, f: PiecewiseFn) -> List[Tuple]:
    """The top terms of the closed form, each with the set, measure and
    bound of its witness: one per run of :func:`_runs` where pi1 is the
    constant s, with the bound (s, m / nu) and the run's exact mass m,
    so the term is (o + s, m); or, when no piece is that constant, one
    zero-mass term on the union of the pieces whose pi1 reaches s, with
    the bound (s, 0)."""
    pieces = f.pieces
    if not pieces or space.is_null:
        return []
    sups = [exprs.sup_on(p.pi1, p.lo, p.hi) for p in pieces]
    s = max((x for x in sups if x is not None), default=None)
    for p, sup in zip(pieces, sups):  # an irrational supremum may stay below s
        if sup is None and (s is None or exprs.cmp_sup(p.pi1, p.lo, p.hi, s) > 0):
            raise UnsupportedExpressionError(f"sup of pi1 on ({p.lo}, {p.hi}) is irrational")
    reach = [p for p, sup in zip(pieces, sups) if sup == s]
    parts = [
        (IntervalSet.of([(lo, hi)]), space.integral(pi2, lo, hi))
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
    has none.  On an atom space a simple function's terms are its
    pieces, each coefficient times the measure that :func:`_inside`
    returns: the supremum over simple minorants is attained at the
    function itself.  On an interval space they are the top terms of the
    closed form in the module docstring (:func:`_top_terms`).  The
    integral over a set L is the integral of ``restrict(f, L)``.  A
    function off its space raises (see :func:`_inside`).
    """
    f, measures = _inside(space, f)
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
    simple function over interval sets is restricted as its constant
    pieces (:func:`_lower`), and a piecewise restriction drops the
    isolated points of L, which no interval-space measure sees."""
    if isinstance(f, SimpleFn) and f.pieces and isinstance(f.pieces[0][1], IntervalSet):
        f = _lower(f)
    if isinstance(f, SimpleFn):
        return SimpleFn(tuple((c, sub) for c, s in f.pieces if (sub := s & L).atoms), f.i_simple)
    if not isinstance(L, IntervalSet):
        raise UnknownSetError(f"cannot combine a IntervalSet with a {type(L).__name__}")
    return PiecewiseFn(tuple(p for lo, hi in L.intervals for p in _cells(f, lo, hi)))


def verify_certificate(space: MeasureSpace, f: HFunction, cert: T4Certificate) -> bool:
    """Re-evaluate every recorded witness claim from scratch.  Disjoint
    witnesses add their claims by sigma-additivity, so together they
    prove the value from below in both coordinates.  A function off its
    space raises, as it does in :func:`integrate`."""
    f, _ = _inside(space, f)
    # each claim once: equal lists, as integrate writes them, need no hashing of a
    # Witness (ROADMAP item 13, which removes the second list, makes this the only case)
    same = cert.m_witnesses == cert.d_witnesses
    for w in cert.d_witnesses if same else dict.fromkeys(cert.d_witnesses + cert.m_witnesses):
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

    For a simple function, on an atom space, that integral is the
    defining sum over W's atoms of coefficient times weight (``mul``
    distributes: (0, 0) absorbs and inf * 0 = 0).  For a piecewise
    function it is the dominance sum over the cells where W's intervals
    meet the pieces; W's points are null.  The largest sign of pi1's
    supremum on a cell against b.d (exprs.cmp_sup) decides.  At b.d a
    mass bound <= 0 holds, as pi2 >= 0.  A positive one needs the cells
    where pi1 is the constant b.d, since elsewhere pi1 is monotone
    (exprs.check_piece) and reaches b.d only at an end, a null set: the
    integral of pi2 against the space's measure over their runs must
    reach b.m * nu(W).  ``space.integral_bounds`` bounds each run's
    integral, and an exact pi2 >= b.m on a run, which a coarse rounded
    root can miss, raises the lower bound to b.m * nu(run).  Between
    the sums, raise."""
    b = w.inf_bound
    if isinstance(f, SimpleFn):
        total = sum_finite(mul(f.value_at(a), space.weights[a]) for a in w.where.atoms)
        return total >= mul(b, w.measure)
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
            bounds.append(space.integral_bounds(pi2, lo, hi))
        except UnsupportedExpressionError:  # an end power past MAX_POWER_BITS
            bounds.append((Fraction(0), inf))
    bm = b.m.frac
    target = bm * w.measure.m.frac
    if sum(high for _, high in bounds) < target:
        return False
    least = (  # pi2 >= b.m on a run puts its integral at b.m * nu(run) or more
        max(low, bm * space.nu(IntervalSet.of([(lo, hi)])))
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
    """The function obj describes.  A piecewise one is read in one pass, with a memo for this
    call only: each distinct end text (:func:`_number`) and string expression (:func:`_expr`)
    is read once.  Only the constructor compares ends (:func:`_ordered`); on any failure the
    first piece read with lo >= hi raises its set's error instead, as in a piece-by-piece read."""
    if ("simple" in obj) == ("pieces" in obj):
        raise ParseError("function description needs one of 'simple' and 'pieces'")
    if "simple" in obj:
        simple = json_list(obj["simple"], "simple")
        pieces = [(HValue.parse(p["coeff"]), set_from_json(p["set"])) for p in simple]
        i_simple = obj.get("i_simple", False)
        if not isinstance(i_simple, bool):
            raise ParseError(f"i_simple must be true or false, got {i_simple!r}")
        return SimpleFn.of(pieces, i_simple=i_simple)
    memo, read, out = {}, [], []
    try:
        for p in json_list(obj["pieces"], "pieces"):
            lo, hi = _piece_ends(p["set"], memo)
            read.append((p["set"], lo, hi))
            out.append(PiecewisePiece(lo, hi, _expr(p["pi1"], memo), _expr(p["pi2"], memo)))
        return _ordered(out)
    except Exception:  # whatever failed, an earlier set with lo >= hi was the first error
        for where, lo, hi in read:
            if frac_cmp(lo, hi) >= 0:
                set_from_json(where)  # raises "degenerate interval (lo, hi)"
        raise


def _piece_ends(obj, memo: dict) -> Tuple[Fraction, Fraction]:
    """The ends of a one-interval set, read through the memo of one function_from_json call:
    ``{"intervals": [[lo, hi]]}`` directly and not compared (the constructor compares them), any
    other shape by :func:`set_from_json`, which checks lo < hi and so keeps its error."""
    if type(obj) is dict and obj.keys() == {"intervals"}:
        ivs = obj["intervals"]
        if type(ivs) is list and len(ivs) == 1 and type(ivs[0]) is list and len(ivs[0]) == 2:
            return _number(ivs[0][0], memo), _number(ivs[0][1], memo)
    s = set_from_json(obj)
    if not isinstance(s, IntervalSet) or len(s.intervals) != 1 or s.points:
        raise ParseError("each piecewise piece needs exactly one interval")
    return s.intervals[0]


def _number(x, memo: dict) -> Fraction:
    """as_fraction(x), once per memo for a string: JSON 1, 1.0 and true are one Python key."""
    if type(x) is str and x not in memo:
        memo[x] = as_fraction(x)
    return memo[x] if type(x) is str else as_fraction(x)


def _expr(obj, memo: dict) -> Expr:
    """exprs.expr_from_json(obj), once per memo when its values are strings or lists of them."""
    if type(obj) is not dict:
        return exprs.expr_from_json(obj)
    key = []
    for k, v in obj.items():
        v = tuple(v) if type(v) is list else v
        if type(v) is not str and (type(v) is not tuple or {*map(type, v)} != {str}):
            return exprs.expr_from_json(obj)
        key.append((k, v))
    if (key := tuple(key)) not in memo:
        memo[key] = exprs.expr_from_json(obj)
    return memo[key]
