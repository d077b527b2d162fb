"""Deficiency functionals: continuity, lineness and convexity.

Each functional measures how far an object is from a property as the
h-integral of a declared "defect" integrand.  Scenarios carry the
defect data explicitly (cluster remainders, catalog primitives, point
sets); the module never computes cluster sets analytically.  Every
integrand is simple, so each functional is a dominance sum of value x
measure over disjoint sets: (0,1) for each point, jump or ordered pair,
and the declared measure of a global cluster component.

Lineness is a closed form (:func:`_lineness_value`): a line other than
the candidate gives (1, inf), segments add the lengths the sections
see, and distinct points count only at dimension 0.  The value is the
minimum over the listed candidates, an upper bound for the infimum
over every line in the plane.

The geometry is exact and on integers: a point is read straight onto
one denominator (:class:`Point2`), and lines, incidence and squared
distances are integer expressions in those numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Sequence, Tuple

from .errors import ParseError, UnsupportedScenarioError, json_list, json_loader
from .hvalue import INF, ZERO, ExtRat, HValue, RatLike, add, as_pair, mul, pair_fraction, sum_finite
from .space import check_declared

ONE = Fraction(1)

# ---------------------------------------------------------------------------
# exact plane geometry
# ---------------------------------------------------------------------------


class Point2:
    """A point of the plane with rational coordinates, held on one
    denominator: the integers ``X``, ``Y``, ``D`` with ``(x, y) = (X/D, Y/D)``
    and ``D`` the lcm of the denominators of x and y in lowest terms, so
    equal points hold equal integers.  ``x`` and ``y`` give the
    coordinates as Fractions."""

    __slots__ = ("X", "Y", "D")

    def __init__(self, x: RatLike, y: RatLike):
        _set_point(self, *as_pair(x), *as_pair(y))

    @staticmethod
    def of(x: RatLike, y: RatLike) -> "Point2":
        return Point2(x, y)

    @property
    def x(self) -> Fraction:
        return Fraction(self.X, self.D)

    @property
    def y(self) -> Fraction:
        return Fraction(self.Y, self.D)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Point2:
            return NotImplemented
        return self.X == other.X and self.Y == other.Y and self.D == other.D

    def __hash__(self) -> int:
        return hash((self.X, self.Y, self.D))

    def __repr__(self) -> str:
        return f"Point2(x={self.x!r}, y={self.y!r})"


def _set_point(p: Point2, a: int, b: int, c: int, d: int) -> Point2:
    """p set to (a/b, c/d), two coprime pairs (:func:`as_pair`) put on one denominator."""
    den = lcm(b, d)
    p.X, p.Y, p.D = a * (den // b), c * (den // d), den
    return p


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
        # the cross product of the points (X, Y, D) in homogeneous coordinates
        a = p.D * q.Y - p.Y * q.D
        b = p.X * q.D - p.D * q.X
        c = p.X * q.Y - p.Y * q.X
        g = gcd(a, b, c)
        if a < 0 or (a == 0 and b < 0):
            g = -g
        return Line2(a // g, b // g, c // g)

    def contains(self, p: Point2) -> bool:
        return self.a * p.X + self.b * p.Y == self.c * p.D

    def perpendicular_to(self, other: "Line2") -> bool:
        # directions (b, -a); dot product of directions
        return self.b * other.b + self.a * other.a == 0

    def along(self, p: Point2) -> Fraction:
        """The position of p along the line's direction (b, -a), scaled
        by the direction's length."""
        return Fraction(self.b * p.X - self.a * p.Y, p.D)


def _pair_root(p: Point2, q: Point2) -> Tuple[int, int, int]:
    """(r, n, L) for two points: their squared distance is n / L**2 with
    L the lcm of their denominators, and r = isqrt(n).  The distance is
    r / L, rational exactly when r * r == n."""
    d1, d2 = p.D, q.D
    den = lcm(d1, d2)
    s, t = den // d1, den // d2
    dx, dy = p.X * s - q.X * t, p.Y * s - q.Y * t
    n = dx * dx + dy * dy
    return isqrt(n), n, den


def rational_distance(p: Point2, q: Point2) -> Fraction:
    """Euclidean distance, demanded exact; raises when irrational."""
    r, n, den = _pair_root(p, q)
    if r * r != n:
        raise UnsupportedScenarioError(
            f"distance between {p} and {q} is irrational (squared: {Fraction(n, den * den)})"
        )
    return Fraction(r, den)


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
        read = [(as_pair(x), r) for x, r in jumps]
        if len({xy for xy, _ in read}) != len(read):  # reduced pairs: equal exactly when the values are
            raise ValueError("jump locations must be pairwise distinct")
        js = tuple((pair_fraction(*xy), r) for xy, r in read)
        remainders = [r for _, r in js]
        if global_component is not None:
            name, mu, remainder = global_component
            check_declared(name, mu, ambient=1)  # mu is a declared measure on R
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

    Each jump point carries the counting measure (0,1), and r x (0,1) = r
    for every r, so the remainders are added as they are; the optional
    global component carries its declared measure.  (0,0) exactly when
    there is no defect anywhere.
    """
    total = sum_finite(remainder for _, remainder in s.jumps)
    if s.global_component is not None:
        _, mu, remainder = s.global_component
        total = add(total, mul(remainder, mu))
    return total


# ---------------------------------------------------------------------------
# lineness
# ---------------------------------------------------------------------------


def _union_on(line: Line2, segments) -> list:
    """The union of segments (p, q) on one line, as disjoint segments
    [p, q] in order along the line; overlapping or touching ones merge."""

    along = line.along
    spans = sorted((sorted(pq, key=along) for pq in segments), key=lambda pq: along(pq[0]))
    union = []
    for p, q in spans:
        if union and along(p) <= along(union[-1][1]):
            union[-1][1] = max(union[-1][1], q, key=along)
        else:
            union.append([p, q])
    return union


def _lineness_value(e: Line2, prims: Sequence[LinePrimitive]) -> HValue:
    """Integral along e = {a*x + b*y = c} of the measure of each
    perpendicular section of K minus its foot, in closed form:

    - a line of K other than e meets almost every section off e, or is
      one whole section: the integral reaches (1, inf), and no more, as
      only finitely many sections have dimension 1;
    - a segment perpendicular to e lies in one section, whose foot has
      measure (0, 1): it adds (1, length);
    - any other segment off e meets each section over its shadow once:
      it adds (0, 1) x (1, |b*dx - a*dy| / sqrt(a^2 + b^2));
    - points off e and segment ends are dimension 0, dominated once any
      segment lies off e.

    K is a set, so a repeated point counts once, and the segments on a
    common line are merged into their union before their lengths add.
    """
    if any(prim.kind == "line" and prim.line() != e for prim in prims):
        return HValue(ONE, INF)
    points = set()  # distinct points off e
    segments = {}  # carrying line -> its segments (p, q)
    for prim in prims:
        if prim.kind == "point":
            if not e.contains(prim.p):
                points.add(prim.p)
        elif prim.kind == "segment":
            segments.setdefault(prim.line(), []).append((prim.p, prim.q))
        elif prim.kind != "line":  # every line is e itself
            raise UnsupportedScenarioError(f"unknown primitive kind {prim.kind!r}")
    length = Fraction(0)  # perpendicular segments
    shadow = Fraction(0)  # shadow lengths times sqrt(a^2 + b^2)
    for line, on_line in segments.items():
        if line == e:
            continue
        for p, q in _union_on(line, on_line):
            if line.perpendicular_to(e):
                length += rational_distance(p, q)
            else:
                shadow += abs(e.along(q) - e.along(p))
    if shadow:
        n2 = e.a**2 + e.b**2
        norm = isqrt(n2)
        if norm * norm != n2:
            raise UnsupportedScenarioError(
                f"shadow length along {e} is irrational (direction norm^2: {n2})"
            )
        length += shadow / norm
    return HValue(ONE, ExtRat(length)) if length else HValue.of(0, len(points))


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

    Every term (1, |xy|) x (0, 1) has dimension 1, so the masses add: the
    value is (1, 2 * sum |xy|) over the unordered pairs of distinct
    points, each standing for (x, y) and (y, x), and (0, 0) without one.

    Each |xy| is one ``isqrt`` on integers (:func:`_pair_root`), r / L
    with L the lcm of the pair's denominators.  The numerators r are
    summed per L, and the sums are added pairwise, level by level, as
    integer pairs (L, r): two nodes with g = gcd(L1, L2) give
    (L1 // g * L2, r1 * (L2 // g) + r2 * (L1 // g)).  Only the last few
    additions carry the denominator of the whole sum, which for coprime
    pair denominators is their product, and one Fraction is built at
    the end.
    """
    if s.convex_primitive is not None:
        return ZERO
    pts = list(dict.fromkeys(s.points))  # K is a set: one copy of each point
    sums = {}  # pair denominator L -> sum of the numerators r over L
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            r, n, den = _pair_root(p, q)
            if r * r != n:
                rational_distance(p, q)  # raises, naming the pair
            sums[den] = sums.get(den, 0) + r
    total = _pairwise_sum(sums)
    return HValue(ONE, ExtRat(2 * total)) if total else ZERO


def _pairwise_sum(sums: dict) -> Fraction:
    """The sum of r / L over the items (L, r) of sums, added pairwise,
    level by level, as unreduced integer pairs (L, r) on lcm denominators."""
    terms = list(sums.items())
    while len(terms) > 1:
        level = []
        for (d1, n1), (d2, n2) in zip(terms[::2], terms[1::2]):
            g = gcd(d1, d2)
            level.append((d1 // g * d2, n1 * (d2 // g) + n2 * (d1 // g)))
        terms = level + terms[len(terms) & ~1 :]
    den, r = terms[0] if terms else (1, 0)
    return Fraction(r, den)


# ---------------------------------------------------------------------------
# JSON scenarios
# ---------------------------------------------------------------------------


def _pair(x, memo: dict) -> Tuple[int, int]:
    """as_pair(x), once per memo for a string: JSON 1, 1.0 and true are one Python key."""
    if type(x) is not str:
        return as_pair(x)
    pair = memo.get(x)
    if pair is None:
        pair = memo[x] = as_pair(x)
    return pair


def _point_from_json(obj, memo: dict) -> Point2:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ParseError(f"a point is a pair of rationals, got {obj!r}")
    return _set_point(object.__new__(Point2), *_pair(obj[0], memo), *_pair(obj[1], memo))


def _line_from_json(obj, memo: dict) -> Line2:
    return Line2.through(_point_from_json(obj["p"], memo), _point_from_json(obj["q"], memo))


def _primitive_from_json(obj, memo: dict) -> LinePrimitive:
    kind = obj.get("type")
    if kind == "point":
        p, q = _point_from_json(obj["p"], memo), None
    elif kind in ("line", "segment"):
        p, q = _point_from_json(obj["p"], memo), _point_from_json(obj["q"], memo)
        if p == q:
            raise ParseError(f"a {kind} needs two distinct points, got ({p.x}, {p.y}) twice")
    else:
        raise ParseError(f"unknown primitive type {kind!r}")
    # LinePrimitive(kind, p, q), its fields written straight into its __dict__ (it is frozen)
    prim = object.__new__(LinePrimitive)
    fields = vars(prim)
    fields["kind"], fields["p"], fields["q"] = kind, p, q
    return prim


@json_loader
def scenario_from_json(obj):
    """The scenario obj describes, read in one pass.  A memo for this call only reads each
    distinct coordinate text once (:func:`_pair`); a jump's x is read by
    :meth:`ClusterScenario.of`.  A list field given as anything else is a ParseError."""
    kind = obj["kind"]
    memo = {}
    if kind == "continuity":
        jumps = [
            (j["x"], HValue.parse(j["remainder"])) for j in json_list(obj.get("jumps", []), "jumps")
        ]
        g = obj.get("global")
        global_component = None
        if g is not None:
            name = g.get("name", "global")
            if not isinstance(name, str):
                raise ParseError(f"a global component's name must be a string, got {name!r}")
            global_component = (
                name,
                HValue.parse(g["hvalue"]),
                HValue.parse(g["remainder"]),
            )
        return ClusterScenario.of(jumps, global_component)
    if kind == "lineness":
        prims = [_primitive_from_json(p, memo) for p in json_list(obj.get("primitives", []), "primitives")]
        cands = [_line_from_json(c, memo) for c in json_list(obj.get("candidates", []), "candidates")]
        return LinenessScenario.of(prims, cands)
    if kind == "convexity":
        prim = None
        if "segment" in obj:
            ends = json_list(obj["segment"], "segment")
            if len(ends) != 2:
                raise ParseError(f"segment must be two points, got {len(ends)}")
            p, q = ends
            prim = _primitive_from_json({"type": "segment", "p": p, "q": q}, memo)
        pts = [_point_from_json(p, memo) for p in json_list(obj.get("points", []), "points")]
        return ConvexityScenario.of(pts, prim)
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
