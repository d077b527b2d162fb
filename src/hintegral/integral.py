"""Integration of pair-valued functions over h-measure spaces.

Two function shapes are supported, one per space kind.  Each shape owns
its kind's operations: the terms of the integral (``terms``), sublevel
sets (``sublevel``), restriction (``restrict``), the pointwise sum
(``add``) and the witness claim (``claim_holds``).

* :class:`SimpleFn`, the atom-space shape -- finite range over disjoint
  measurable pieces, value (0,0) off their union.  Its integral is the
  direct weighted sum ``sum_i coeff_i * measure(piece_i)``; on an
  interval space, whose points are null, :func:`_lower` reads it as
  constant pieces.
* :class:`PiecewiseFn`, the interval-space shape -- each piece carries
  one exact expression per coordinate, a rational polynomial or a
  non-integral rational power (see :mod:`hintegral.exprs`); the
  dimension coordinate's polynomial has degree at most 1.

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
the largest supremum over the pieces.  The runs share the bound's and
the measure's dimensions, so their union is the one top term; two top
pieces of a simple function may split one product differently, so each
piece is a term.  Each term that reaches the value is a witness of the
certificate: a claim that the integral over its set reaches its bound b
times the set's measure, which the shape's ``claim_holds`` decides exactly.

The public functions keep only the rules written once for every kind;
the shape or kind of an argument is decided in :func:`_inside` and
:func:`_lower` only.  The integral over a set L (the paper's indefinite
integral) is the integral of ``restrict(f, L)``, whose pieces are the
same cells.

This module holds only the general integral, its certificate,
restriction, sublevel sets, pointwise sums and the JSON parser.  It
treats an expression as opaque; :mod:`hintegral.exprs` decides
everything that depends on its kind.  The references the integral is
checked against and the rest of the test machinery live in
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
    json_field,
    json_loader,
)
from .exprs import Expr
from .hvalue import ZERO, ExtRat, HValue, add, as_fraction, frac_cmp, mul, read_once, sum_finite
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
# function descriptors, each with its kind's operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleFn:
    """Finite-range function: disjoint (coefficient, set) pieces.

    Coefficients lie in [0,+inf) x [0,+inf); with ``i_simple=True`` the
    mass coordinate may be +inf.  The constructor checks both and the
    disjointness of the pieces, so every instance holds them.  Its
    operations are those of an atom space; over interval sets it is read
    as constant pieces (:func:`_lower`).
    """

    pieces: Tuple[Tuple[HValue, MeasurableSet], ...]
    i_simple: bool = False

    def __post_init__(self):
        for coeff, _ in self.pieces:
            if not coeff.is_nonneg():
                raise ParseError(f"negative coefficient {coeff}")
            if not self.i_simple and not coeff.m.is_finite:
                raise ParseError(f"infinite coefficient {coeff} in a simple function")
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

    def terms(self, space: AtomSpace, measures: List[HValue]) -> List[Tuple]:
        """Its pieces as terms (coefficient * measure, set, measure, coefficient), with the
        piece measures that :func:`_inside` took: the supremum over simple minorants is
        attained at the function itself."""
        return [(mul(c, mv), s, mv, c) for (c, s), mv in zip(self.pieces, measures)]

    def sublevel(self, space: AtomSpace, v: HValue) -> AtomSet:
        return AtomSet(frozenset(a for a in space.atoms if self.value_at(a) < v))

    def restrict(self, L: MeasurableSet) -> "SimpleFn":
        """Built without :meth:`__post_init__`: its coefficients are checked, and parts of
        disjoint sets are disjoint."""
        pieces = tuple((c, sub) for c, s in self.pieces if (sub := s & L).atoms)
        return _unchecked(SimpleFn, pieces=pieces, i_simple=self.i_simple)

    def add(self, g: "SimpleFn") -> "SimpleFn":
        atoms = sorted(set().union(*(s.atoms for fn in (self, g) for _, s in fn.pieces)))
        sums = ((add(self.value_at(a), g.value_at(a)), a) for a in atoms)
        pieces = [(v, AtomSet.of(a)) for v, a in sums if not v.is_zero]
        return SimpleFn.of(pieces, i_simple=self.i_simple or g.i_simple)

    def claim_holds(self, space: AtomSpace, w: "Witness") -> bool:
        """The integral over W is the defining sum over W's atoms of coefficient times
        weight (``mul`` distributes: (0, 0) absorbs and inf * 0 = 0)."""
        total = sum_finite(mul(self.value_at(a), space.weights[a]) for a in w.where.atoms)
        return total >= mul(w.inf_bound, w.measure)


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

    def terms(self, space: IntervalSpace, measures: None) -> List[Tuple]:
        """The one top term of the closed form, with the set, measure and
        bound of its witness: the set is the union of the runs of :func:`_runs`
        where pi1 is the constant s, m the sum of their exact masses and the
        bound (s, m / nu), so the term is (o + s, m); or, when no piece is that
        constant, the union of the pieces whose pi1 reaches s, with the bound
        (s, 0)."""
        pieces = self.pieces
        if not pieces or space.is_null:
            return []
        sups = [exprs.sup_on(p.pi1, p.lo, p.hi) for p in pieces]
        s = max((x for x in sups if x is not None), default=None)
        for p, sup in zip(pieces, sups):  # an irrational supremum may stay below s
            if sup is None and (s is None or exprs.cmp_sup(p.pi1, p.lo, p.hi, s) > 0):
                raise UnsupportedExpressionError(f"sup of pi1 on ({p.lo}, {p.hi}) is irrational")
        reach = [p for p, sup in zip(pieces, sups) if sup == s]
        runs = _runs(reach, s)
        where = IntervalSet.of([(lo, hi) for lo, hi, _ in runs] or [(p.lo, p.hi) for p in reach])
        m = sum((space.integral(pi2, lo, hi) for lo, hi, pi2 in runs), Fraction(0))
        mv = space.measure(where)
        b = HValue(s, ExtRat(m / mv.m.frac))
        return [(mul(b, mv), where, mv, b)]

    def sublevel(self, space: IntervalSpace, v: HValue) -> IntervalSet:
        """The cells of pi1 against v.d: below v where pi1 < v.d, and where
        pi1 == v.d on a whole cell, below v where pi2 < v.m.  The edges
        between the cells are the points where pi1 == v.d, so the same
        test on pi2 decides each of them (pi2 >= 0 is never below v.m <= 0)."""
        ivs: List[Tuple[Fraction, Fraction]] = []
        pts: List[Fraction] = []
        level = exprs.const(v.d)
        for p in self.pieces:
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
            gap_ivs, gap_pts = _uncovered(space, self)
            ivs.extend(gap_ivs)
            pts.extend(gap_pts)
        return IntervalSet.of(ivs, pts)

    def restrict(self, L: MeasurableSet) -> "PiecewiseFn":
        """The cells where L's intervals meet the pieces; L's isolated points are dropped, as
        no interval-space measure sees them."""
        if not isinstance(L, IntervalSet):
            raise UnknownSetError(f"cannot combine a IntervalSet with a {type(L).__name__}")
        return PiecewiseFn(tuple(p for lo, hi in L.intervals for p in _cells(self, lo, hi)))

    def add(self, g: "PiecewiseFn") -> "PiecewiseFn":
        edges = sorted({x for p in self.pieces + g.pieces for x in (p.lo, p.hi)})
        out: List[Tuple] = []
        for lo, hi in zip(edges, edges[1:]):
            # every piece end is an edge, so each function has at most one cell here
            cells = _cells(self, lo, hi) + _cells(g, lo, hi)
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

    def claim_holds(self, space: IntervalSpace, w: "Witness") -> bool:
        """The integral over W is the dominance sum over the cells where W's
        intervals meet the pieces; W's points are null.  The largest sign of
        pi1's supremum on a cell against b.d (exprs.cmp_sup) decides.  At b.d
        a mass bound <= 0 holds, as pi2 >= 0.  A positive one needs the cells
        where pi1 is the constant b.d, since elsewhere pi1 is monotone
        (exprs.check_piece) and reaches b.d only at an end, a null set: the
        integral of pi2 against the space's measure over their runs must
        reach b.m * nu(W).  ``space.integral_bounds`` bounds each run's
        integral, and an exact pi2 >= b.m on a run, which a coarse rounded
        root can miss, raises the lower bound to b.m * nu(run).  Between
        the sums, raise."""
        b = w.inf_bound
        cells = [p for lo, hi in w.where.intervals for p in _cells(self, lo, hi)]
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


def _ordered(pieces: List[PiecewisePiece]) -> PiecewiseFn:
    """The pieces sorted by lo as a PiecewiseFn.  They are sorted only when a check fails (for valid
    pieces out of order, before any piece is checked), then checked: each error is the sorted one."""
    try:
        return PiecewiseFn(tuple(pieces))
    except (ValueError, NonDisjointError, UnsupportedExpressionError):
        if (ordered := sorted(pieces, key=attrgetter("lo"))) == pieces:
            raise
    return PiecewiseFn(tuple(ordered))


def _cells(fn: PiecewiseFn, lo: Fraction, hi: Fraction) -> List[PiecewisePiece]:
    """The pieces of fn that meet (lo, hi), each clipped to it."""
    return [
        PiecewisePiece(
            p.lo if frac_cmp(p.lo, lo) > 0 else lo, p.hi if frac_cmp(p.hi, hi) < 0 else hi, p.pi1, p.pi2
        )
        for p in fn.pieces[meeting(fn.pieces, lo, hi, attrgetter("lo"), attrgetter("hi"))]
    ]


def _runs(cells: Sequence[PiecewisePiece], level: Fraction) -> List[list]:
    """[lo, hi, pi2] of each run of touching cells with pi1 = level and one pi2."""
    top = exprs.const(level)
    return join_runs((p.lo, p.hi, p.pi2) for p in cells if p.pi1 == top)


def _uncovered(space: IntervalSpace, f: PiecewiseFn):
    """Complement of the open pieces within the space: the gap intervals
    between them, and every piece end inside the space."""
    ends = [space.lo] + [x for p in f.pieces for x in (p.lo, p.hi)] + [space.hi]
    ivs = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b]
    return ivs, sorted({x for x in ends[1:-1] if space.lo < x < space.hi})


HFunction = Union[SimpleFn, PiecewiseFn]


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass cls with these fields, every one of them, written
    straight into its __dict__: no __init__ and no __post_init__ check."""
    x = object.__new__(cls)
    vars(x).update(fields)
    return x


def constant_fn(lo, hi, value: HValue) -> PiecewiseFn:
    """The constant function `value` on the open interval (lo, hi)."""
    return PiecewiseFn.of([(lo, hi, exprs.const(value.d), exprs.const(value.m.frac))])


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A set W with its measure and a bound b, claiming that the integral
    of f over W is at least b * measure, which the shape of f decides
    exactly on the whole of W (its ``claim_holds``)."""

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
    :func:`integrate` gives both lists the same top terms: on an interval
    space the one union of the top runs, on an atom space one witness per
    top piece.  Each carries its set's exact mass, so ``exact_m`` is always
    True; the field stays because the JSON form of a certificate has it.
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
# public entry points: the rules written once for every kind
# ---------------------------------------------------------------------------


def _inside(space: MeasureSpace, f: HFunction) -> Tuple[HFunction, Optional[List[HValue]]]:
    """Raise unless f is a function on the space, and return f in the
    space's shape with the measures of a simple function's piece sets,
    which go through ``space.measure``: on an atom space f and them in
    piece order, on an interval space f lowered (:func:`_lower`) and None.
    A piecewise function needs an interval space; its pieces are sorted
    and disjoint, so only an end piece can leave the space."""
    if isinstance(f, SimpleFn):
        measures = [space.measure(s) for _, s in f.pieces]
        if isinstance(space, AtomSpace):
            return f, measures
        return (_lower(f) if f.pieces else PiecewiseFn(())), None  # the empty function too
    if not isinstance(space, IntervalSpace):
        raise UnsupportedExpressionError(f"cannot integrate PiecewiseFn over {type(space).__name__}")
    if any(p.lo < space.lo or space.hi < p.hi for p in f.pieces[:1] + f.pieces[-1:]):
        p = next(p for p in f.pieces if p.lo < space.lo or space.hi < p.hi)
        raise UnknownSetError(
            f"piece ({p.lo}, {p.hi}) is not inside the space ({space.lo}, {space.hi})"
        )
    return f, None


def _lower(f: HFunction) -> HFunction:
    """f in its kind's shape: a simple function over interval sets becomes
    constant pieces on its intervals, its points dropped; a piecewise mass
    is rational, so an infinite mass raises.  Any other f is returned as it is."""
    if not (isinstance(f, SimpleFn) and f.pieces and isinstance(f.pieces[0][1], IntervalSet)):
        return f
    pieces = []
    for c, s in f.pieces:
        if not c.m.is_finite:
            raise UnsupportedExpressionError(f"infinite coefficient {c} needs an atom space")
        pieces.extend((lo, hi, exprs.const(c.d), exprs.const(c.m.frac)) for lo, hi in s.intervals)
    return PiecewiseFn.of(pieces)


def integrate(space: MeasureSpace, f: HFunction) -> Tuple[HValue, T4Certificate]:
    """The general integral, with a witness certificate.

    One rule serves both shapes: the value is the dominance sum of the
    shape's terms, each a bound times a measure, and the terms nonzero at
    the value's dimension are the witnesses, in both lists; a (0, 0) value
    has none.  On an atom space a simple function's terms are its pieces;
    on an interval space they are the top terms of the closed form in the
    module docstring.  The integral over a set L is the integral of
    ``restrict(f, L)``.  A function off its space raises (see :func:`_inside`).
    """
    f, measures = _inside(space, f)
    terms = f.terms(space, measures)
    value = sum_finite(t for t, _, _, _ in terms)
    wits = tuple(
        _unchecked(Witness, where=s, measure=mv, inf_bound=b)
        for t, s, mv, b in terms
        if not t.is_zero and t.same_dim(value)
    )
    return value, _unchecked(
        T4Certificate, value=value, d_witnesses=wits, m_witnesses=wits, exact_m=True, achieved_m=value.m
    )


def sublevel_set(space: MeasureSpace, f: HFunction, v: HValue) -> MeasurableSet:
    """The exact set {x : f(x) < v}.  A function off its space raises
    as it does in :func:`integrate` (see :func:`_inside`).  On an
    interval space a simple function's isolated points are null and
    count as (0, 0), as :func:`restrict` drops the isolated points of L."""
    return _inside(space, f)[0].sublevel(space, v)


def restrict(f: HFunction, L: MeasurableSet) -> HFunction:
    """f * 1_L: f on L, (0,0) off it.  Only the part of L inside the
    pieces counts, and a set of another kind raises UnknownSetError.  A
    simple function over interval sets is restricted as its constant
    pieces (:func:`_lower`), and a piecewise restriction drops the
    isolated points of L, which no interval-space measure sees."""
    return _lower(f).restrict(L)


def pointwise_add_fn(f: HFunction, g: HFunction) -> HFunction:
    """Pointwise dominance sum, staying inside the function grammar.  A
    function without pieces is the zero function, so the sum is the
    other one unchanged.  A simple function over interval sets is
    lowered (:func:`_lower`), its isolated points null; functions of
    different shapes then raise."""
    if not f.pieces or not g.pieces:
        return g if not f.pieces else f
    f, g = _lower(f), _lower(g)
    if type(f) is not type(g):
        raise UnsupportedExpressionError("cannot add functions of different shapes")
    return f.add(g)


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
        if not f.claim_holds(space, w):
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


# ---------------------------------------------------------------------------
# JSON parsing
# ---------------------------------------------------------------------------


@json_loader
def function_from_json(obj) -> HFunction:
    """The function obj describes.  A piecewise one is read in one pass, with a memo for this
    call only: each distinct end text (:func:`read_once`) and string expression (:func:`_expr`)
    is read once.  Only the constructor compares ends (:func:`_ordered`); on any failure the
    first piece read with lo >= hi raises its set's error instead, as in a piece-by-piece read."""
    if ("simple" in json_field(obj, None, "function description", dict)) == ("pieces" in obj):
        raise ParseError("function description needs one of 'simple' and 'pieces'")
    if "simple" in obj:
        what = "a simple piece"
        pieces = [
            (HValue.parse(json_field(p, "coeff", what)), set_from_json(json_field(p, "set", what)))
            for p in json_field(obj, "simple", "function description", list)
        ]
        return SimpleFn.of(pieces, i_simple=json_field(obj, "i_simple", "function description", bool, False))
    memo, read, out = {}, [], []
    try:
        for p in json_field(obj, "pieces", "function description", list):
            where = json_field(p, "set", "a piecewise piece")
            lo, hi = _piece_ends(where, memo)
            read.append((where, lo, hi))
            out.append(PiecewisePiece(lo, hi, _expr(p, "pi1", memo), _expr(p, "pi2", memo)))
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
            return read_once(as_fraction, ivs[0][0], memo), read_once(as_fraction, ivs[0][1], memo)
    s = set_from_json(obj)
    if not isinstance(s, IntervalSet) or len(s.intervals) != 1 or s.points:
        raise ParseError("each piecewise piece needs exactly one interval")
    return s.intervals[0]


def _expr(piece: dict, field: str, memo: dict) -> Expr:
    """exprs.expr_from_json(piece[field]), an object, once per memo when its values are
    strings or lists of them."""
    key = []
    for k, v in (obj := json_field(piece, field, "a piecewise piece", dict)).items():
        v = tuple(v) if type(v) is list else v
        if type(v) is not str and (type(v) is not tuple or {*map(type, v)} != {str}):
            return exprs.expr_from_json(obj)
        key.append((k, v))
    if (key := tuple(key)) not in memo:
        memo[key] = exprs.expr_from_json(obj)
    return memo[key]
