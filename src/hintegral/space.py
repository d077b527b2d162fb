"""Measurable spaces and their h-measures.

Three concrete space kinds are provided:

* :class:`AtomSpace` -- finitely many atoms, sigma-algebra the full
  power set, measure of a set the dominance sum of its atoms' weights.
* :class:`IntervalSpace` -- an open rational interval carrying the
  scaled embedding of a density-weighted Lebesgue measure: a set of
  positive ordinary measure ``v`` gets ``(dim_offset, v)``, null sets
  get ``(0, 0)``.
* :class:`CatalogSpace` -- named sets with declared dimension/measure
  values (the values are axioms of a scenario, never computed).

Measurable sets are structural: finite disjoint unions of primitives,
validated by overlap checks only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from . import exprs
from .errors import NonDisjointError, ParseError, UnknownSetError, json_loader
from .hvalue import ZERO, ExtRat, HValue, add, as_fraction, as_ext, sum_finite

# ---------------------------------------------------------------------------
# measurable sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomSet:
    """A subset of an atom space, identified by atom ids."""

    atoms: frozenset

    @staticmethod
    def of(*atoms: str) -> "AtomSet":
        return AtomSet(frozenset(atoms))


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint open subintervals plus isolated points."""

    intervals: Tuple[Tuple[Fraction, Fraction], ...]
    points: Tuple[Fraction, ...] = ()

    @staticmethod
    def of(intervals: Sequence = (), points: Sequence = ()) -> "IntervalSet":
        ivs = sorted(
            (as_fraction(a), as_fraction(b)) for a, b in intervals
        )
        for a, b in ivs:
            if not a < b:
                raise NonDisjointError(f"degenerate interval ({a}, {b})")
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if a2 < b1:
                raise NonDisjointError(
                    f"overlapping intervals ({a1}, {b1}) and ({a2}, {b2})"
                )
        pts = sorted(as_fraction(p) for p in points)
        if len(set(pts)) != len(pts):
            raise NonDisjointError("duplicate points")
        for p in pts:
            for a, b in ivs:
                if a < p < b:
                    raise NonDisjointError(f"point {p} inside interval ({a}, {b})")
        return IntervalSet(tuple(ivs), tuple(pts))

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.points


@dataclass(frozen=True)
class CatalogUnion:
    """A disjoint-by-declaration union of named catalog sets."""

    names: Tuple[str, ...]

    @staticmethod
    def of(*names: str) -> "CatalogUnion":
        if len(set(names)) != len(names):
            raise NonDisjointError("catalog set listed twice in one union")
        return CatalogUnion(tuple(names))


MeasurableSet = Union[AtomSet, IntervalSet, CatalogUnion]


def union(parts: Sequence[MeasurableSet]) -> MeasurableSet:
    """Disjoint union of same-kind sets; overlap raises NonDisjointError."""
    if not parts:
        raise ValueError("union of no parts has no kind")
    first = parts[0]
    if isinstance(first, AtomSet):
        seen: set = set()
        for p in parts:
            overlap = seen & p.atoms
            if overlap:
                raise NonDisjointError(f"atoms listed twice: {sorted(overlap)}")
            seen |= p.atoms
        return AtomSet(frozenset(seen))
    if isinstance(first, IntervalSet):
        ivs: List = []
        pts: List = []
        for p in parts:
            ivs.extend(p.intervals)
            pts.extend(p.points)
        return IntervalSet.of(ivs, pts)
    names: List[str] = []
    for p in parts:
        names.extend(p.names)
    return CatalogUnion.of(*names)


def contains(big: MeasurableSet, small: MeasurableSet) -> bool:
    """Structural subset check (used by monotonicity properties)."""
    if isinstance(big, AtomSet) and isinstance(small, AtomSet):
        return small.atoms <= big.atoms
    if isinstance(big, CatalogUnion) and isinstance(small, CatalogUnion):
        return set(small.names) <= set(big.names)
    if isinstance(big, IntervalSet) and isinstance(small, IntervalSet):
        def covered_point(p: Fraction) -> bool:
            return p in big.points or any(a < p < b for a, b in big.intervals)

        def covered_interval(a: Fraction, b: Fraction) -> bool:
            return any(ba <= a and b <= bb for ba, bb in big.intervals)

        return all(covered_interval(a, b) for a, b in small.intervals) and all(
            covered_point(p) for p in small.points
        )
    return False


def intersect_intervals(s: IntervalSet, window: IntervalSet) -> IntervalSet:
    """Intersection of two interval sets (window points are dropped:
    single points never carry mass in an interval space)."""
    ivs = []
    for a, b in s.intervals:
        for wa, wb in window.intervals:
            lo, hi = max(a, wa), min(b, wb)
            if lo < hi:
                ivs.append((lo, hi))
    pts = [
        p
        for p in s.points
        if any(wa < p < wb for wa, wb in window.intervals) or p in window.points
    ]
    return IntervalSet.of(ivs, pts)


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
                raise ValueError(f"atom {name!r} has a negative weight {w}")
        return AtomSpace(tuple(weights), dict(weights))

    def full_set(self) -> AtomSet:
        return AtomSet(frozenset(self.atoms))

    def measure(self, s: AtomSet) -> HValue:
        if not isinstance(s, AtomSet):
            raise UnknownSetError(f"{type(s).__name__} is not a set of an atom space")
        missing = s.atoms - set(self.atoms)
        if missing:
            raise UnknownSetError(f"unknown atoms: {sorted(missing)}")
        return sum_finite(self.weights[a] for a in sorted(s.atoms))


@dataclass(frozen=True)
class IntervalSpace:
    """Open interval (lo, hi) with h-measure (dim_offset, weighted length)."""

    lo: Fraction
    hi: Fraction
    dim_offset: Fraction
    density: Tuple[Fraction, ...] = (Fraction(1),)

    @staticmethod
    def of(lo, hi, dim_offset=0, density: Sequence = (1,)) -> "IntervalSpace":
        lo, hi = as_fraction(lo), as_fraction(hi)
        if not lo < hi:
            raise ValueError(f"empty interval ({lo}, {hi})")
        d0 = as_fraction(dim_offset)
        if d0 < 0:
            raise ValueError("dim_offset must be nonnegative")
        return IntervalSpace(
            lo, hi, d0, exprs.poly_trim([as_fraction(c) for c in density])
        )

    def full_set(self) -> IntervalSet:
        return IntervalSet.of([(self.lo, self.hi)])

    def nu(self, s: IntervalSet) -> Fraction:
        """Ordinary (density-weighted Lebesgue) measure of the set."""
        if not isinstance(s, IntervalSet):
            raise UnknownSetError(
                f"{type(s).__name__} is not a set of an interval space"
            )
        total = Fraction(0)
        for a, b in s.intervals:
            if a < self.lo or b > self.hi:
                raise UnknownSetError(
                    f"({a}, {b}) is not inside the space ({self.lo}, {self.hi})"
                )
            total += exprs.poly_integral(self.density, a, b)
        for p in s.points:
            if p < self.lo or p > self.hi:
                raise UnknownSetError(f"point {p} outside the space")
        return total

    def measure(self, s: IntervalSet) -> HValue:
        v = self.nu(s)
        if v > 0:
            return HValue(self.dim_offset, ExtRat(v))
        return ZERO


@dataclass(frozen=True)
class CatalogSet:
    """A named set with a declared dimension/measure value."""

    name: str
    ambient: int
    hvalue: HValue
    kind: str = "declared"

    KINDS = (
        "finite-points",
        "countable",
        "interval",
        "segment",
        "line",
        "self-similar",
        "product",
        "declared",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown catalog kind {self.kind!r}")
        hv = self.hvalue
        if not hv.is_nonneg():
            raise ValueError(f"{self.name}: negative declared measure")
        if hv.d == 0:
            ok = (not hv.m.is_finite) or (
                hv.m.frac.denominator == 1 and hv.m.frac >= 0
            )
            if not ok:
                raise ValueError(
                    f"{self.name}: dimension-0 value must be a count or +inf"
                )
        if hv.d > self.ambient:
            raise ValueError(
                f"{self.name}: dimension {hv.d} exceeds ambient {self.ambient}"
            )


@dataclass(frozen=True)
class CatalogSpace:
    sets: Mapping[str, CatalogSet]

    @staticmethod
    def of(entries: Iterable[CatalogSet]) -> "CatalogSpace":
        out: Dict[str, CatalogSet] = {}
        for e in entries:
            if e.name in out:
                raise ValueError(f"duplicate catalog name {e.name!r}")
            out[e.name] = e
        return CatalogSpace(out)

    def measure(self, s: CatalogUnion) -> HValue:
        if not isinstance(s, CatalogUnion):
            raise UnknownSetError(
                f"{type(s).__name__} is not a set of a catalog space"
            )
        total = ZERO
        for name in s.names:
            if name not in self.sets:
                raise UnknownSetError(f"unknown catalog set {name!r}")
            total = add(total, self.sets[name].hvalue)
        return total


MeasureSpace = Union[AtomSpace, IntervalSpace, CatalogSpace]


def scaled_embedding(d0, base) -> MeasureSpace:
    """Lift an ordinary measure description to an h-measure space.

    ``base`` is either a mapping atom -> nonnegative scalar mass, or a
    triple ``(lo, hi)`` / ``(lo, hi, density)`` describing a weighted
    Lebesgue measure on an open interval.  Sets of positive ordinary
    measure get ``(d0, mass)``; nonempty null sets get ``(0, 0)``.
    """
    d0 = as_fraction(d0)
    if d0 < 0:
        raise ValueError("dim_offset must be nonnegative")
    if isinstance(base, Mapping):
        weights = {}
        for name, nu in base.items():
            nu = as_ext(nu)
            if nu.sign() < 0:
                raise ValueError(f"negative mass for atom {name!r}")
            weights[name] = HValue(d0, nu) if nu.sign() > 0 else ZERO
        return AtomSpace.of(weights)
    if isinstance(base, tuple) and len(base) in (2, 3):
        lo, hi = base[0], base[1]
        density = base[2] if len(base) == 3 else (1,)
        return IntervalSpace.of(lo, hi, d0, density)
    raise ValueError(f"cannot interpret measure description {base!r}")


def validate_h_measure(space: MeasureSpace, partition: Sequence[MeasurableSet]) -> bool:
    """True iff the measure of the union equals the sum over the parts.

    Parts must be pairwise disjoint (checked structurally, raises
    NonDisjointError).  A described infinite partition is the same
    check: the infinitely repeated empty tail contributes (0, 0).
    """
    parts = [p for p in partition if not _is_empty(p)]
    if not parts:
        return True
    whole = union(parts)  # raises NonDisjointError on overlap
    lhs = space.measure(whole)
    rhs = sum_finite(space.measure(p) for p in parts)
    return lhs == rhs


def _is_empty(s: MeasurableSet) -> bool:
    if isinstance(s, AtomSet):
        return not s.atoms
    if isinstance(s, IntervalSet):
        return s.is_empty
    return not s.names


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def set_from_json(obj) -> MeasurableSet:
    if not isinstance(obj, dict):
        raise ParseError(f"set description must be an object, got {obj!r}")
    if "atoms" in obj:
        return AtomSet(frozenset(obj["atoms"]))
    if "intervals" in obj or "points" in obj:
        return IntervalSet.of(obj.get("intervals", ()), obj.get("points", ()))
    if "catalog" in obj:
        return CatalogUnion.of(*obj["catalog"])
    raise ParseError(f"unrecognized set description keys: {sorted(obj)}")


def set_to_json(s: MeasurableSet):
    if isinstance(s, AtomSet):
        return {"atoms": sorted(s.atoms)}
    if isinstance(s, IntervalSet):
        return {
            "intervals": [[str(a), str(b)] for a, b in s.intervals],
            "points": [str(p) for p in s.points],
        }
    return {"catalog": list(s.names)}


@json_loader
def space_from_json(obj) -> MeasureSpace:
    kind = obj["kind"]
    if kind == "atoms":
        weights = {
            name: HValue.parse(text) for name, text in obj.get("atoms", {}).items()
        }
        return AtomSpace.of(weights)
    if kind == "interval":
        lo, hi = obj["bounds"]
        return IntervalSpace.of(
            lo, hi, obj.get("dim_offset", "0"), obj.get("density", ["1"])
        )
    if kind == "catalog":
        entries = [
            CatalogSet(
                name=e["name"],
                ambient=int(e.get("ambient", 1)),
                hvalue=HValue.parse(e["hvalue"]),
                kind=e.get("set_kind", "declared"),
            )
            for e in obj.get("sets", [])
        ]
        return CatalogSpace.of(entries)
    raise ParseError(f"unknown space kind {kind!r}")


def space_to_json(space: MeasureSpace):
    if isinstance(space, AtomSpace):
        return {
            "kind": "atoms",
            "atoms": {a: str(space.weights[a]) for a in space.atoms},
        }
    if isinstance(space, IntervalSpace):
        return {
            "kind": "interval",
            "bounds": [str(space.lo), str(space.hi)],
            "dim_offset": str(space.dim_offset),
            "density": [str(c) for c in space.density],
        }
    return {
        "kind": "catalog",
        "sets": [
            {
                "name": e.name,
                "ambient": e.ambient,
                "hvalue": str(e.hvalue),
                "set_kind": e.kind,
            }
            for e in space.sets.values()
        ],
    }
