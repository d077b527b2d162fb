"""Deficiency functionals: continuity, lineness and convexity.

Each functional measures how far an object is from a property as the
h-integral of a declared "defect" integrand.  Scenarios carry the
defect data explicitly (cluster remainders, catalog primitives, point
sets); the module's job is the exact reduction of each functional to a
simple-function integral over a catalog h-measure space, never the
analytic computation of cluster sets or infima over all lines.

Lineness is explicitly candidate-restricted: the returned value is the
minimum over the listed candidate lines, an upper bound for the true
infimum over every line in the plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from . import exprs
from .errors import ParseError, UnsupportedScenarioError
from .hvalue import INF, ZERO, ExtRat, HValue, add, as_fraction, sum_finite
from .space import CatalogSet, CatalogSpace, CatalogUnion
from .integral import SimpleFn, integrate_simple

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

    def foot(self, p: Point2) -> Point2:
        """Orthogonal projection of p onto the line; always rational."""
        k = Fraction(self.a * p.x + self.b * p.y - self.c, self.a**2 + self.b**2)
        return Point2(p.x - k * self.a, p.y - k * self.b)

    def base_point(self) -> Point2:
        if self.b != 0:
            return Point2(Fraction(0), Fraction(self.c, self.b))
        return Point2(Fraction(self.c, self.a), Fraction(0))

    def param(self, p: Point2) -> Fraction:
        """Rational coordinate of a point of the line (direction (b, -a))."""
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
        for _, r in js:
            if not r.is_nonneg():
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

    Jump points are counting atoms of size (0,1); the optional global
    component carries its declared measure.  (0,0) exactly when there
    is no defect anywhere.
    """
    sets = []
    pieces = []
    for i, (x, remainder) in enumerate(s.jumps):
        name = f"jump:{x}"
        sets.append(CatalogSet(name, ambient=1, hvalue=HValue.of(0, 1), kind="finite-points"))
        if not remainder.is_zero:
            pieces.append((remainder, CatalogUnion.of(name)))
    if s.global_component is not None:
        name, mu, remainder = s.global_component
        sets.append(CatalogSet(name, ambient=1, hvalue=mu))
        if not remainder.is_zero:
            pieces.append((remainder, CatalogUnion.of(name)))
    space = CatalogSpace.of(sets)
    f = SimpleFn.of(pieces, i_simple=True)
    return integrate_simple(space, f)


# ---------------------------------------------------------------------------
# lineness
# ---------------------------------------------------------------------------


def _section_contributions(e: Line2, prims: Sequence[LinePrimitive]):
    """Reduce every perpendicular section of the candidate line to
    piecewise-constant data along the line: values at isolated foot
    points, values on bounded shadow intervals, and a constant
    background on the rest of the line."""
    atom_vals: Dict[Fraction, List[HValue]] = {}
    intervals: List[Tuple[Fraction, Fraction, HValue]] = []
    background: List[HValue] = []
    crossing_lines: List[Tuple[Fraction, Line2]] = []

    def at_atom(t: Fraction, v: HValue):
        atom_vals.setdefault(t, []).append(v)

    for prim in prims:
        if prim.kind == "point":
            if e.contains(prim.p):
                continue  # the section at p's foot subtracts y = p only if p is on e
            at_atom(e.param(e.foot(prim.p)), HValue.of(0, 1))
        elif prim.kind == "line":
            line = prim.line()
            if line == e:
                continue  # every section meets e exactly at y itself, which is removed
            if line.perpendicular_to(e):
                # the section at the crossing foot is the whole line minus y
                cross = _line_intersection(e, line)
                at_atom(e.param(cross), HValue(Fraction(1), INF))
                continue
            background.append(HValue.of(0, 1))
            if not line.parallel_to(e):
                crossing_lines.append((e.param(_line_intersection(e, line)), line))
        elif prim.kind == "segment":
            p, q = prim.p, prim.q
            if e.contains(p) and e.contains(q):
                continue
            seg_line = prim.line()
            if seg_line.perpendicular_to(e):
                t = e.param(e.foot(p))
                at_atom(t, HValue(Fraction(1), ExtRat(rational_distance(p, q))))
                continue
            fp, fq = e.foot(p), e.foot(q)
            tp, tq = e.param(fp), e.param(fq)
            lo, hi = min(tp, tq), max(tp, tq)
            intervals.append((lo, hi, HValue.of(0, 1)))
            at_atom(lo, HValue.of(0, 1))
            at_atom(hi, HValue.of(0, 1))
        else:
            raise UnsupportedScenarioError(f"unknown primitive kind {prim.kind!r}")
    return atom_vals, intervals, background, crossing_lines


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
    atom_vals, intervals, background, crossing_lines = _section_contributions(e, prims)
    bg = sum_finite(background)

    # refine overlapping shadow intervals into disjoint elementary cells
    edges = sorted({t for lo, hi, _ in intervals for t in (lo, hi)} | set(atom_vals))
    cells = []
    for lo, hi in zip(edges, edges[1:]):
        covering = [v for (a, b, v) in intervals if a <= lo and hi <= b]
        if covering:
            cells.append((lo, hi, sum_finite(covering)))

    sets = []
    pieces = []
    for t in sorted(atom_vals):
        # a crossing background line misses exactly its own crossing foot
        val = sum_finite(atom_vals[t])
        for tc, _ in crossing_lines:
            if tc != t:
                val = add(val, HValue.of(0, 1))
        n_parallel = len(background) - len(crossing_lines)
        for _ in range(n_parallel):
            val = add(val, HValue.of(0, 1))
        name = f"pt:{t}"
        sets.append(CatalogSet(name, ambient=2, hvalue=HValue.of(0, 1), kind="finite-points"))
        if not val.is_zero:
            pieces.append((val, CatalogUnion.of(name)))
    for lo, hi, val in cells:
        val = add(val, bg)
        name = f"iv:{lo}:{hi}"
        length = _param_distance(e, lo, hi)
        sets.append(CatalogSet(name, ambient=2, hvalue=HValue(Fraction(1), ExtRat(length)), kind="interval"))
        if not val.is_zero:
            pieces.append((val, CatalogUnion.of(name)))
    sets.append(CatalogSet("rest", ambient=2, hvalue=HValue(Fraction(1), INF), kind="line"))
    if not bg.is_zero:
        pieces.append((bg, CatalogUnion.of("rest")))

    space = CatalogSpace.of(sets)
    return integrate_simple(space, SimpleFn.of(pieces, i_simple=True))


def defi_lineness(s: LinenessScenario) -> Tuple[HValue, Line2]:
    """Minimum section-defect integral over the candidate lines.

    An upper bound for the infimum over all lines of the plane; the
    returned line is the first candidate attaining the minimum.
    """
    best = None
    best_line = None
    for e in s.candidates:
        v = _lineness_value(e, s.primitives)
        if best is None or v < best:
            best, best_line = v, e
    return best, best_line


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------


def defi_convexity(s: ConvexityScenario) -> HValue:
    """h-integral of the missing-segment measure over ordered pairs.

    For finite K the product space is counting atoms (0,1) per ordered
    pair, and the integrand at (x,y) is the length of the segment xy
    (removing the finitely many points of K is null at dimension 1)
    unless the segment lies inside K.  A single convex primitive gives
    (0,0) outright.
    """
    if s.convex_primitive is not None:
        return ZERO
    sets = []
    pieces = []
    for i, x in enumerate(s.points):
        for j, y in enumerate(s.points):
            name = f"pair:{i}:{j}"
            sets.append(CatalogSet(name, ambient=4, hvalue=HValue.of(0, 1), kind="finite-points"))
            if x == y:
                continue
            # removing the finitely many points of K is null at dimension 1
            gap = HValue(Fraction(1), ExtRat(rational_distance(x, y)))
            pieces.append((gap, CatalogUnion.of(name)))
    space = CatalogSpace.of(sets)
    return integrate_simple(space, SimpleFn.of(pieces))


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
        return LinePrimitive(kind, _point_from_json(obj["p"]), _point_from_json(obj["q"]))
    raise ParseError(f"unknown primitive type {kind!r}")


def scenario_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("scenario must be an object with a 'kind'")
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
