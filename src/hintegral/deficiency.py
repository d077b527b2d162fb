"""Deficiency functionals: continuity, lineness and convexity.

Each functional measures how far an object is from a property as the
h-integral of a declared "defect" integrand.  Scenarios carry the
defect data explicitly (cluster remainders, catalog primitives, point
sets).  Every integrand is simple, so each functional is the dominance
sum of value x measure over disjoint sets: (0,1) for each point, jump
or ordered pair, (1, length) for each bounded cell of a line, (1, inf)
for the rest of a line, and the declared measure of a global cluster
component.  The module never computes cluster sets analytically, nor
infima over all lines.

Lineness is explicitly candidate-restricted: the returned value is the
minimum over the listed candidate lines, an upper bound for the true
infimum over every line in the plane.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Optional, Sequence, Tuple

from . import exprs
from .errors import ParseError, UnsupportedScenarioError, json_loader
from .hvalue import INF, ZERO, ExtRat, HValue, add, as_fraction, mul, sum_finite
from .space import CatalogSet

ONE = Fraction(1)
COUNT = HValue.of(0, 1)  # the measure of one point, jump or ordered pair

# ---------------------------------------------------------------------------
# exact plane geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point2:
    x: Fraction
    y: Fraction

    @staticmethod
    def of(x, y) -> "Point2":
        return Point2(as_fraction(x), as_fraction(y))


@dataclass(frozen=True)
class Line2:
    """The line a*x + b*y = c with normalized integer coefficients."""

    a: int
    b: int
    c: int

    @staticmethod
    def through(p: Point2, q: Point2) -> "Line2":
        if p == q:
            raise ValueError("a line needs two distinct points")
        a = q.y - p.y
        b = p.x - q.x
        c = a * p.x + b * p.y
        den = lcm(a.denominator, b.denominator, c.denominator)
        ai, bi, ci = int(a * den), int(b * den), int(c * den)
        g = gcd(gcd(abs(ai), abs(bi)), abs(ci)) or 1
        ai, bi, ci = ai // g, bi // g, ci // g
        if ai < 0 or (ai == 0 and bi < 0):
            ai, bi, ci = -ai, -bi, -ci
        return Line2(ai, bi, ci)

    def contains(self, p: Point2) -> bool:
        return self.a * p.x + self.b * p.y == self.c

    def parallel_to(self, other: "Line2") -> bool:
        return self.a * other.b == other.a * self.b

    def perpendicular_to(self, other: "Line2") -> bool:
        # directions (b, -a); dot product of directions
        return self.b * other.b + self.a * other.a == 0

    def base_point(self) -> Point2:
        if self.b != 0:
            return Point2(Fraction(0), Fraction(self.c, self.b))
        return Point2(Fraction(self.c, self.a), Fraction(0))

    def param(self, p: Point2) -> Fraction:
        """Rational coordinate, along the line (direction (b, -a)), of
        p's orthogonal projection onto it."""
        p0 = self.base_point()
        return Fraction(
            self.b * (p.x - p0.x) - self.a * (p.y - p0.y), self.a**2 + self.b**2
        )


def rational_distance(p: Point2, q: Point2) -> Fraction:
    """Euclidean distance, demanded exact; raises when irrational."""
    d2 = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
    r = exprs.nth_root(d2, 2)
    if r is None:
        raise UnsupportedScenarioError(
            f"distance between {p} and {q} is irrational (squared: {d2})"
        )
    return r


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterScenario:
    """Declared cluster-set defect of a real function.

    Each jump point x carries the declared size of its cluster set
    minus the function value there; an optional global component gives
    a constant remainder on a declared set (e.g. the whole line for a
    nowhere-continuous function).
    """

    jumps: Tuple[Tuple[Fraction, HValue], ...]
    global_component: Optional[Tuple[str, HValue, HValue]] = None  # (name, mu, remainder)

    @staticmethod
    def of(jumps: Sequence[Tuple], global_component=None) -> "ClusterScenario":
        js = tuple((as_fraction(x), r) for x, r in jumps)
        xs = [x for x, _ in js]
        if len(set(xs)) != len(xs):
            raise ValueError("jump locations must be pairwise distinct")
        remainders = [r for _, r in js]
        if global_component is not None:
            name, mu, remainder = global_component
            CatalogSet(name, ambient=1, hvalue=mu)  # raises unless mu is a valid measure on R
            remainders.append(remainder)
        if not all(r.is_nonneg() for r in remainders):
            raise ValueError("cluster remainders must be nonnegative")
        return ClusterScenario(js, global_component)


@dataclass(frozen=True)
class LinePrimitive:
    """One catalog primitive of a planar set: point, line or segment."""

    kind: str  # "point" | "line" | "segment"
    p: Point2
    q: Optional[Point2] = None

    def line(self) -> Line2:
        return Line2.through(self.p, self.q)


@dataclass(frozen=True)
class LinenessScenario:
    primitives: Tuple[LinePrimitive, ...]
    candidates: Tuple[Line2, ...]

    @staticmethod
    def of(primitives: Sequence[LinePrimitive], candidates: Sequence[Line2]) -> "LinenessScenario":
        if not candidates:
            raise ValueError("candidate list must be nonempty")
        return LinenessScenario(tuple(primitives), tuple(candidates))


@dataclass(frozen=True)
class ConvexityScenario:
    """Bounded K: a finite point set, or a single convex primitive."""

    points: Tuple[Point2, ...] = ()
    convex_primitive: Optional[LinePrimitive] = None

    @staticmethod
    def of(points: Sequence[Point2] = (), convex_primitive=None) -> "ConvexityScenario":
        if points and convex_primitive is not None:
            raise UnsupportedScenarioError(
                "mixed point/primitive descriptions are not reducible"
            )
        if convex_primitive is not None and convex_primitive.kind not in ("segment", "point"):
            raise UnsupportedScenarioError("only bounded convex primitives are supported")
        return ConvexityScenario(tuple(points), convex_primitive)


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------


def defi_continuity(s: ClusterScenario) -> HValue:
    """h-integral of the declared cluster remainder over the real line.

    Each jump point carries the counting measure (0,1); the optional
    global component carries its declared measure.  (0,0) exactly when
    there is no defect anywhere.
    """
    total = sum_finite(mul(remainder, COUNT) for _, remainder in s.jumps)
    if s.global_component is not None:
        _, mu, remainder = s.global_component
        total = add(total, mul(remainder, mu))
    return total


# ---------------------------------------------------------------------------
# lineness
# ---------------------------------------------------------------------------


def _line_intersection(e: Line2, other: Line2) -> Point2:
    det = e.a * other.b - other.a * e.b
    if det == 0:
        raise ValueError("parallel lines do not intersect")
    x = Fraction(e.c * other.b - other.c * e.b, det)
    y = Fraction(e.a * other.c - other.a * e.c, det)
    return Point2(x, y)


def _param_distance(e: Line2, t1: Fraction, t2: Fraction) -> Fraction:
    """Euclidean length of the piece of e between parameters t1, t2."""
    n2 = Fraction(e.a**2 + e.b**2)
    r = exprs.nth_root(n2, 2)
    if r is None:
        raise UnsupportedScenarioError(
            f"shadow length along {e} is irrational (direction norm^2: {n2})"
        )
    return abs(t2 - t1) * r


def _lineness_value(e: Line2, prims: Sequence[LinePrimitive]) -> HValue:
    """Integral along e of the measure of each perpendicular section of
    K minus its base point.

    The integrand is piecewise constant along e: a value at each isolated
    foot point, (0,1) per covering shadow on the bounded shadow cells,
    and (0,1) per background line (a line neither e nor perpendicular to
    it) everywhere, except that a crossing line misses its own foot.
    """
    feet: Dict[Fraction, HValue] = {}  # foot parameter -> summed section values
    crossings: Counter = Counter()  # foot parameter -> background lines crossing e there
    sweep: Counter = Counter()  # +1 at each shadow start, -1 at each end
    background = 0

    def at_foot(t: Fraction, v: HValue):
        feet[t] = add(feet.get(t, ZERO), v)

    for prim in prims:
        if prim.kind == "point":
            # a point of e is the base point of its own section
            if not e.contains(prim.p):
                at_foot(e.param(prim.p), COUNT)
        elif prim.kind == "line":
            line = prim.line()
            if line == e:
                continue  # every section meets e exactly at y itself, which is removed
            if line.perpendicular_to(e):
                # the section at the crossing foot is the whole line minus y
                at_foot(e.param(_line_intersection(e, line)), HValue(ONE, INF))
                continue
            background += 1
            if not line.parallel_to(e):
                crossings[e.param(_line_intersection(e, line))] += 1
        elif prim.kind == "segment":
            p, q = prim.p, prim.q
            if e.contains(p) and e.contains(q):
                continue
            if prim.line().perpendicular_to(e):
                at_foot(e.param(p), HValue(ONE, ExtRat(rational_distance(p, q))))
                continue
            lo, hi = sorted((e.param(p), e.param(q)))
            at_foot(lo, COUNT)
            at_foot(hi, COUNT)
            sweep[lo] += 1
            sweep[hi] -= 1
        else:
            raise UnsupportedScenarioError(f"unknown primitive kind {prim.kind!r}")

    total = mul(HValue.of(0, background), HValue(ONE, INF))  # the rest of the line
    edges = sorted(feet)  # every shadow end is a foot
    depth = 0
    for lo, hi in zip(edges, edges[1:]):
        depth += sweep[lo]
        if depth:
            cell = HValue(ONE, ExtRat(_param_distance(e, lo, hi)))
            total = add(total, mul(HValue.of(0, depth + background), cell))
    for t in edges:
        value = add(feet[t], HValue.of(0, background - crossings[t]))
        total = add(total, mul(value, COUNT))
    return total


def defi_lineness(s: LinenessScenario) -> Tuple[HValue, Line2]:
    """Minimum section-defect integral over the candidate lines.

    An upper bound for the infimum over all lines of the plane; the
    returned line is the first candidate attaining the minimum.
    """
    values = [(_lineness_value(e, s.primitives), e) for e in s.candidates]
    return min(values, key=lambda value_line: value_line[0])


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------


def defi_convexity(s: ConvexityScenario) -> HValue:
    """h-integral of the missing-segment measure over ordered pairs.

    For finite K every ordered pair has counting measure (0,1), and the
    integrand at (x,y) is the length of the segment xy (removing the
    finitely many points of K is null at dimension 1) unless the segment
    lies inside K.  A single convex primitive gives (0,0) outright.
    """
    if s.convex_primitive is not None:
        return ZERO
    pts = s.points
    gaps = [
        HValue(ONE, ExtRat(rational_distance(x, y)))
        for i, x in enumerate(pts)
        for y in pts[i + 1 :]
        if x != y
    ]
    # each unordered pair stands for the two ordered pairs (x, y), (y, x)
    return sum_finite(mul(gap, COUNT) for gap in gaps for _ in range(2))


# ---------------------------------------------------------------------------
# JSON scenarios
# ---------------------------------------------------------------------------


def _point_from_json(obj) -> Point2:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ParseError(f"a point is a pair of rationals, got {obj!r}")
    return Point2.of(obj[0], obj[1])


def _line_from_json(obj) -> Line2:
    return Line2.through(_point_from_json(obj["p"]), _point_from_json(obj["q"]))


def _primitive_from_json(obj) -> LinePrimitive:
    kind = obj.get("type")
    if kind == "point":
        return LinePrimitive("point", _point_from_json(obj["p"]))
    if kind in ("line", "segment"):
        p, q = _point_from_json(obj["p"]), _point_from_json(obj["q"])
        if p == q:
            raise ParseError(f"a {kind} needs two distinct points, got ({p.x}, {p.y}) twice")
        return LinePrimitive(kind, p, q)
    raise ParseError(f"unknown primitive type {kind!r}")


@json_loader
def scenario_from_json(obj):
    kind = obj["kind"]
    if kind == "continuity":
        jumps = [
            (j["x"], HValue.parse(j["remainder"])) for j in obj.get("jumps", [])
        ]
        g = obj.get("global")
        global_component = None
        if g is not None:
            global_component = (
                g.get("name", "global"),
                HValue.parse(g["hvalue"]),
                HValue.parse(g["remainder"]),
            )
        return ClusterScenario.of(jumps, global_component)
    if kind == "lineness":
        prims = [_primitive_from_json(p) for p in obj.get("primitives", [])]
        cands = [_line_from_json(c) for c in obj.get("candidates", [])]
        return LinenessScenario.of(prims, cands)
    if kind == "convexity":
        if "segment" in obj:
            p, q = obj["segment"]
            prim = LinePrimitive("segment", _point_from_json(p), _point_from_json(q))
            return ConvexityScenario.of(convex_primitive=prim)
        pts = [_point_from_json(p) for p in obj.get("points", [])]
        return ConvexityScenario.of(pts)
    raise ParseError(f"unknown scenario kind {kind!r}")


def evaluate_scenario(scenario):
    """Dispatch a parsed scenario to its deficiency functional.

    Returns (value, extra) where extra is the best line for lineness
    and None otherwise.
    """
    if isinstance(scenario, ClusterScenario):
        return defi_continuity(scenario), None
    if isinstance(scenario, LinenessScenario):
        return defi_lineness(scenario)
    if isinstance(scenario, ConvexityScenario):
        return defi_convexity(scenario), None
    raise UnsupportedScenarioError(f"cannot evaluate {type(scenario).__name__}")
