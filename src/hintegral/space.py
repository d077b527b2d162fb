"""Measurable spaces and their h-measures.

Two concrete space kinds are provided:

* :class:`AtomSpace` -- finitely many atoms, sigma-algebra the full
  power set, measure of a set the dominance sum of its atoms' weights.
  A catalog file, named sets with declared dimension/measure values
  (axioms of a scenario, never computed), reads as an atom space whose
  atoms are the names; :func:`check_declared` makes its checks.
* :class:`IntervalSpace` -- an open rational interval carrying the
  scaled embedding of a density-weighted Lebesgue measure: a set of
  positive ordinary measure ``v`` gets ``(dim_offset, v)``, null sets
  get ``(0, 0)``.  Only the space reads its density: points are null,
  and so is every set under the zero density (:attr:`IntervalSpace.is_null`).
  The density is an :class:`exprs.Poly`, its integer form built once in :meth:`IntervalSpace.of`.

Measurable sets are structural: finite disjoint unions of primitives,
validated by overlap checks only.  Each set kind owns its membership
``x in s``, and atom sets intersect (``s & t``); combining two sets of
different kinds raises :class:`UnknownSetError`.
Sorted intervals, of a set or of a function, are searched by :func:`meeting`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, List, Mapping, Sequence, Tuple, Union

from . import exprs
from .errors import NonDisjointError, ParseError, UnknownSetError, json_field, json_loader
from .hvalue import ZERO, ExtRat, HValue, as_fraction, frac_cmp, sum_finite

_ENDS = (itemgetter(0), itemgetter(1))  # of an interval (a, b), for meeting

# ---------------------------------------------------------------------------
# measurable sets
# ---------------------------------------------------------------------------


def meeting(items: Sequence, lo, hi, lo_of, hi_of) -> slice:
    """The slice of ``items``, sorted disjoint open intervals (lo_of(item), hi_of(item)),
    that meet (lo, hi), or hold lo when lo == hi: sorted and disjoint, so both ends are sorted.
    The bisection compares ends by integer cross products, as :func:`frac_cmp` does."""
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    return slice(
        bisect_right(items, 0, key=lambda item: (x := hi_of(item)).numerator * b - a * x.denominator),
        bisect_left(items, 0, key=lambda item: (x := lo_of(item)).numerator * d - c * x.denominator),
    )


def _same_kind(s, t) -> None:
    if type(s) is not type(t):
        raise UnknownSetError(
            f"cannot combine a {type(s).__name__} with a {type(t).__name__}"
        )


@dataclass(frozen=True)
class AtomSet:
    """A subset of an atom space, identified by atom ids."""

    atoms: frozenset

    @staticmethod
    def of(*atoms: str) -> "AtomSet":
        return AtomSet(frozenset(atoms))

    def __contains__(self, atom) -> bool:
        return atom in self.atoms

    def __and__(self, other: "AtomSet") -> "AtomSet":
        _same_kind(self, other)
        return AtomSet(self.atoms & other.atoms)


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint open subintervals plus isolated points,
    both sorted (as :meth:`of` leaves them)."""

    intervals: Tuple[Tuple[Fraction, Fraction], ...]
    points: Tuple[Fraction, ...] = ()

    @staticmethod
    def of(intervals: Sequence = (), points: Sequence = ()) -> "IntervalSet":
        ivs = sorted((as_fraction(a), as_fraction(b)) for a, b in intervals)
        for a, b in ivs:
            if frac_cmp(a, b) >= 0:
                raise NonDisjointError(f"degenerate interval ({a}, {b})")
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if frac_cmp(a2, b1) < 0:
                raise NonDisjointError(f"overlapping intervals ({a1}, {b1}) and ({a2}, {b2})")
        pts = sorted(as_fraction(p) for p in points)
        i = 0  # one merge walk: ivs[i] is the first interval that ends after p
        for prev, p in zip([None] + pts, pts):
            if p == prev:
                raise NonDisjointError(f"duplicate point {p}")
            while i < len(ivs) and frac_cmp(p, ivs[i][1]) >= 0:
                i += 1
            if i < len(ivs) and frac_cmp(ivs[i][0], p) < 0:
                raise NonDisjointError(f"point {p} inside interval ({ivs[i][0]}, {ivs[i][1]})")
        return IntervalSet(tuple(ivs), tuple(pts))

    def __contains__(self, x) -> bool:
        i = bisect_left(self.points, x)
        return x in self.points[i:i + 1] or bool(self.intervals[meeting(self.intervals, x, x, *_ENDS)])


MeasurableSet = Union[AtomSet, IntervalSet]


def join_runs(cells: Iterable[Tuple[Fraction, Fraction, object]]) -> List[list]:
    """[lo, hi, key] of each run of sorted cells (lo, hi, key) that touch and
    share one key: one integrand's integrals over them telescope into one."""
    runs: List[list] = []
    for lo, hi, key in cells:
        if runs and runs[-1][1] == lo and runs[-1][2] == key:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, key])
    return runs


def union(parts: Sequence[MeasurableSet]) -> MeasurableSet:
    """Disjoint union of same-kind sets; overlap raises NonDisjointError."""
    if not parts:
        raise ValueError("union of no parts has no kind")
    first = parts[0]
    for p in parts[1:]:
        _same_kind(first, p)
    if isinstance(first, AtomSet):
        seen: set = set()
        for p in parts:
            overlap = seen & p.atoms
            if overlap:
                raise NonDisjointError(f"atoms listed twice: {sorted(overlap)}")
            seen |= p.atoms
        return AtomSet(frozenset(seen))
    return IntervalSet.of([iv for p in parts for iv in p.intervals], [x for p in parts for x in p.points])


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomSpace:
    atoms: Tuple[str, ...]
    weights: Mapping[str, HValue]

    @staticmethod
    def of(weights: Mapping[str, HValue]) -> "AtomSpace":
        for name, w in weights.items():
            if not w.is_nonneg():
                raise ParseError(f"atom {name!r} has a negative weight {w}")
        return AtomSpace(tuple(weights), dict(weights))

    def full_set(self) -> AtomSet:
        return AtomSet(frozenset(self.atoms))

    def measure(self, s: AtomSet) -> HValue:
        """The dominance sum of the weights of s's atoms; a known atom alone is its weight."""
        if not isinstance(s, AtomSet):
            raise UnknownSetError(f"{type(s).__name__} is not a set of an atom space")
        if len(s.atoms) == 1:
            (a,) = s.atoms
            w = self.weights.get(a)
            if w is not None:
                return w
        missing = s.atoms.difference(self.weights)
        if missing:
            raise UnknownSetError(f"unknown atoms: {sorted(missing)}")
        return sum_finite(self.weights[a] for a in sorted(s.atoms))


@dataclass(frozen=True)
class IntervalSpace:
    """Open interval (lo, hi) with h-measure (dim_offset, weighted length) under
    a polynomial density, whose integer form :meth:`of` builds once."""

    lo: Fraction
    hi: Fraction
    dim_offset: Fraction
    density: exprs.Poly

    @staticmethod
    def of(lo, hi, dim_offset=0, density: Sequence = (1,)) -> "IntervalSpace":
        lo, hi = as_fraction(lo), as_fraction(hi)
        if not lo < hi:
            raise ParseError(f"empty interval ({lo}, {hi})")
        d0 = as_fraction(dim_offset)
        if d0 < 0:
            raise ParseError("dim_offset must be nonnegative")
        density = exprs.poly(density)
        if not exprs.at_least(density, Fraction(0), lo, hi):
            raise ParseError(f"density is negative on ({lo}, {hi})")
        return IntervalSpace(lo, hi, d0, density)

    @property
    def is_null(self) -> bool:
        """Every set is null exactly under the zero density: :meth:`of`
        proves it nonnegative, and a nonzero polynomial has finitely many
        roots, so any other gives each open interval positive measure."""
        return not any(self.density.ints)

    def integral(self, e: exprs.Expr, lo: Fraction, hi: Fraction) -> Fraction:
        """The exact integral of e over (lo, hi); raises where it is irrational."""
        return exprs.weighted_integral(e, self.density, lo, hi)

    def integral_bounds(self, e: exprs.Expr, lo: Fraction, hi: Fraction) -> Tuple[Fraction, Fraction]:
        """Rational bounds low <= high on :meth:`integral`, equal where it is rational."""
        return exprs.weighted_integral_bounds(e, self.density, lo, hi)

    def nu(self, s: IntervalSet) -> Fraction:
        """Ordinary (density-weighted Lebesgue) measure of the set."""
        if not isinstance(s, IntervalSet):
            raise UnknownSetError(
                f"{type(s).__name__} is not a set of an interval space"
            )
        for a, b in s.intervals:
            if frac_cmp(a, self.lo) < 0 or frac_cmp(b, self.hi) > 0:
                raise UnknownSetError(
                    f"({a}, {b}) is not inside the space ({self.lo}, {self.hi})"
                )
        for p in s.points:
            if not frac_cmp(self.lo, p) < 0 < frac_cmp(self.hi, p):
                raise UnknownSetError(f"point {p} outside the space")
        runs = join_runs((a, b, None) for a, b in s.intervals)
        return sum((exprs.poly_integral(self.density, a, b) for a, b, _ in runs), Fraction(0))

    def measure(self, s: IntervalSet) -> HValue:
        v = self.nu(s)
        if v.numerator > 0:
            return HValue(self.dim_offset, ExtRat(v))
        return ZERO


class CatalogSpace(AtomSpace):
    """No space is built as one: a catalog file reads as an
    :class:`AtomSpace` (see :func:`space_from_json`)."""

    # perfbench/spans.py traces "CatalogSpace.measure" from this class's own __dict__
    measure = AtomSpace.measure


MeasureSpace = Union[AtomSpace, IntervalSpace]


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


# the set_kind a catalog entry may name; it documents the entry and is never read
SET_KINDS = (
    "finite-points", "countable", "interval", "segment", "line", "self-similar", "product", "declared",
)


def check_declared(name: str, hvalue: HValue, ambient) -> HValue:
    """``hvalue`` if it can be the declared measure of a set in R^ambient:
    ``ambient`` is an integer, the value is nonnegative, a dimension-0
    value is a count or +inf, and the dimension is at most ``ambient``."""
    if type(ambient) is not int:  # not bool, not a truncated float
        raise ParseError(f"{name}: ambient must be an integer, got {ambient!r}")
    if not hvalue.is_nonneg():
        raise ParseError(f"{name}: negative declared measure")
    if hvalue.d == 0 and hvalue.m.is_finite and hvalue.m.frac.denominator != 1:
        raise ParseError(f"{name}: dimension-0 value must be a count or +inf")
    if hvalue.d > ambient:
        raise ParseError(f"{name}: dimension {hvalue.d} exceeds ambient {ambient}")
    return hvalue


def _names(value, what: str) -> frozenset:
    """A JSON list of distinct strings, as a set."""
    names = json_field(value, None, what, list)
    if not all(isinstance(n, str) for n in names):
        raise ParseError(f"{what} must be strings, got {names!r}")
    out = frozenset(names)
    if len(out) != len(names):
        raise ParseError(f"{what}: a name listed twice in {names!r}")
    return out


def set_from_json(obj) -> MeasurableSet:
    json_field(obj, None, "set description", dict)
    atoms = [key for key in ("atoms", "catalog") if key in obj]
    interval_shape = "intervals" in obj or "points" in obj
    if len(atoms) + interval_shape > 1:
        raise ParseError(f"a set description names one shape, got the keys {sorted(obj)}")
    if atoms:
        return AtomSet(_names(obj[atoms[0]], atoms[0]))
    if interval_shape:
        intervals = json_field(obj, "intervals", "set description", list, [])
        for iv in intervals:
            if len(json_field(iv, None, "an interval", list)) != 2:
                raise ParseError(f"an interval must be two numbers, got {len(iv)}")
        return IntervalSet.of(intervals, json_field(obj, "points", "set description", list, []))
    raise ParseError(f"unrecognized set description keys: {sorted(obj)}")


def set_to_json(s: MeasurableSet):
    if isinstance(s, AtomSet):
        return {"atoms": sorted(s.atoms)}
    return {
        "intervals": [[str(a), str(b)] for a, b in s.intervals],
        "points": [str(p) for p in s.points],
    }


@json_loader
def space_from_json(obj) -> MeasureSpace:
    kind = json_field(obj, "kind", "space description")
    if kind == "atoms":
        atoms = json_field(obj, "atoms", "an atom space", dict, {})
        return AtomSpace.of({name: HValue.parse(text) for name, text in atoms.items()})
    if kind == "interval":
        bounds = json_field(obj, "bounds", "an interval space", list)
        if len(bounds) != 2:
            raise ParseError(f"bounds must be two numbers, got {len(bounds)}")
        density = json_field(obj, "density", "an interval space", list, ["1"])
        return IntervalSpace.of(*bounds, obj.get("dim_offset", "0"), density)
    if kind == "catalog":
        sets = json_field(obj, "sets", "a catalog space", list, [])
        what = "a catalog entry"
        names = [json_field(e, "name", what) for e in sets]
        _names(names, "catalog names")
        for e in sets:
            if e.get("set_kind", "declared") not in SET_KINDS:
                raise ParseError(f"unknown catalog kind {e['set_kind']!r}")
        return AtomSpace.of({
            name: check_declared(name, HValue.parse(json_field(e, "hvalue", what)), e.get("ambient", 1))
            for name, e in zip(names, sets)
        })
    raise ParseError(f"unknown space kind {kind!r}")
