"""Deficiency functional tests.

GOLDEN VALUE ORACLE (hand-computed weighted sums, frozen before the
implementation; each deficiency is a sum of coeff * measure products
under dominance addition):

continuity
  no jumps               integrand empty                         -> (0, 0)
  one jump, rem (0,1)    (0,1) * mu({x0}) = (0,1)(0,1)           -> (0, 1)
  Dirichlet global       (0,1) * mu(R)   = (0,1)(1,inf)          -> (1, inf)

lineness (candidate e = the x-axis)
  K = e only             every section loses its own base point  -> (0, 0)
  K = e + point (0,1)    (0,1) * mu({foot}) = (0,1)(0,1)         -> (0, 1)
  K = e + parallel line  (0,1) * mu(e) = (0,1)(1,inf)            -> (1, inf)
  K = e + (0,1) twice    K is a set: one point, as above          -> (0, 1)

convexity
  segment (convex)       every chord inside K                    -> (0, 0)
  {(0,0),(1,0)}          2 ordered pairs, each (1,1)(0,1)=(1,1)  -> (1, 2)
  {0,1,2} on a line      pairs 0-1,1-0,1-2,2-1: (1,1) each;
                         0-2,2-0: (1,2) each; masses 1+1+1+1+2+2 -> (1, 8)
  (0,0) twice, (3,4)     K = {(0,0),(3,4)}: 2 ordered pairs, (1,5) each -> (1, 10)
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import re
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hintegral import deficiency
from hintegral.cli import main
from hintegral.errors import ParseError, UnsupportedScenarioError, json_field, json_loader
from hintegral.exprs import nth_root
from hintegral.hvalue import HValue, ZERO, add, as_fraction, as_pair, mul, sum_finite
from hintegral.deficiency import (
    _pairwise_sum,
    ClusterScenario,
    ConvexityScenario,
    Line2,
    LinenessScenario,
    Point2,
    defi_continuity,
    defi_convexity,
    defi_lineness,
    evaluate_scenario,
    rational_distance,
    scenario_from_json,
)
from hintegral.space import check_declared
from test_hvalue import rational_texts, ref_as_fraction, unbounded_int_text

H = HValue.of
P = Point2.of

X_AXIS = Line2.through(P(0, 0), P(1, 0))
X_AXIS_ENDS = (P(0, 0), P(1, 0))
DIRECTIONS = [(1, 0), (0, 1), (3, 4), (4, -3), (1, 1)]


def lineness(prims, candidates):
    """The scenario of the primitives (kind, p, q), kind "point", "line" or
    "segment" and q None for a point, each filed into its field in order."""
    fields = {"line": [], "segment": [], "point": []}
    for kind, p, q in prims:
        fields[kind].append(p if kind == "point" else (p, q))
    return LinenessScenario.of(fields["line"], fields["segment"], fields["point"], candidates)


class TestGeometry:
    def test_line_normalization(self):
        assert Line2.through(P(0, 0), P(2, 0)) == X_AXIS
        assert Line2.through(P(5, 0), P(-3, 0)) == X_AXIS
        assert Line2.through(P(0, 0), P(1, 1)) == Line2.through(P(2, 2), P(-1, -1))

    def test_parallel_perpendicular(self):
        other = Line2.through(P(0, 1), P(1, 1))
        vert = Line2.through(P(0, 0), P(0, 1))
        assert X_AXIS.perpendicular_to(vert)
        assert not X_AXIS.perpendicular_to(other)

    def test_rational_distance(self):
        assert rational_distance(P(0, 0), P(3, 4)) == 5
        with pytest.raises(UnsupportedScenarioError):
            rational_distance(P(0, 0), P(1, 1))


class TestContinuity:
    def test_no_defect(self):
        assert defi_continuity(ClusterScenario.of([])) == ZERO

    def test_single_jump(self):
        s = ClusterScenario.of([(F(1, 2), H(0, 1))])
        assert defi_continuity(s) == H(0, 1)

    def test_dirichlet_global(self):
        s = ClusterScenario.of([], ("R", H(1, "inf"), H(0, 1)))
        assert defi_continuity(s) == H(1, "inf")

    def test_jumps_are_monotone(self):
        base = ClusterScenario.of([(0, H(0, 1))])
        bigger = ClusterScenario.of([(0, H(0, 1)), (1, H(0, 2))])
        assert defi_continuity(base) <= defi_continuity(bigger)

    def test_duplicate_jumps_rejected(self):
        with pytest.raises(ValueError):
            ClusterScenario.of([(0, H(0, 1)), (0, H(0, 2))])

    @pytest.mark.parametrize(
        "mu, remainder", [(H(2, 1), H(0, 1)), (H(0, F(1, 2)), H(0, 1)), (H(1, 1), H(0, -1))]
    )
    def test_invalid_global_component_rejected(self, mu, remainder):
        with pytest.raises(ValueError):
            ClusterScenario.of([], ("R", mu, remainder))

    @pytest.mark.parametrize("mu", [H(2, 1), H(0, F(1, 2)), H(1, -1)])
    def test_global_measure_is_checked_as_a_declared_value(self, mu):
        with pytest.raises(ValueError) as declared:
            check_declared("R", mu, ambient=1)
        with pytest.raises(ValueError, match=re.escape(str(declared.value))):
            ClusterScenario.of([], ("R", mu, H(0, 1)))

    def test_global_name_is_free(self):
        s = ClusterScenario.of([(0, H(0, 1))], ("jump:0", H(1, "inf"), H(0, 1)))
        assert defi_continuity(s) == H(1, "inf")


# directions of rational length 1, 5 or 13
PYTHAGOREAN = [(1, 0), (0, 1), (-1, 0), (0, -1), (3, 4), (4, -3), (-4, 3), (5, 12), (12, -5)]


def _section_integral(origin, direction, s):
    """The lineness integral from its definition, on the line through
    origin along direction (of rational length), which is in K or not at
    all: the sections are constant between the feet of the points, the
    segment ends and the segments' crossings with the line and with each
    other, so each foot counts with measure (0, 1) and each cell between
    feet with (1, its length), at the section through its midpoint.  A
    section is a set:
    it has the length of the union of the segments inside it, or else
    counts each point of K on it off the line once."""
    norm = rational_distance(P(0, 0), P(*direction))
    ux, uy = direction[0] / norm, direction[1] / norm

    def along(p):  # foot parameter of p, and its signed distance from e
        dx, dy = p.x - origin.x, p.y - origin.y
        return dx * ux + dy * uy, dy * ux - dx * uy

    def section(t):
        offsets = set()  # signed distances of K's points on the section, off e
        inside = []  # the segments inside the section, as distance intervals
        for point in s.points:
            foot, off = along(point)
            if foot == t and off != 0:
                offsets.add(off)
        for p, q in s.segments:
            (fp, op), (fq, oq) = along(p), along(q)
            if fp == fq:  # perpendicular to e: inside the section or apart
                if fp == t:
                    inside.append(sorted((op, oq)))
            elif min(fp, fq) <= t <= max(fp, fq):
                offsets.add(op + (oq - op) * (t - fp) / (fq - fp))
        offsets.discard(0)  # the foot
        if not inside:
            return H(0, len(offsets))
        length, reach = F(0), None
        for lo, hi in sorted(inside):
            start = lo if reach is None else max(lo, reach)
            length += max(hi - start, 0)
            reach = hi if reach is None else max(reach, hi)
        return H(1, length)

    ends = [*s.points, *(p for pq in s.segments for p in pq)]
    feet = {along(p)[0] for p in ends}
    slanted = []  # (slope, intercept) of the offset of each segment not perpendicular to e
    for p, q in s.segments:  # where a segment crosses e, its point there is a foot, removed
        (fp, op), (fq, oq) = along(p), along(q)
        if op * oq < 0:
            feet.add(fp + (fq - fp) * op / (op - oq))
        if fp != fq:
            slope = (oq - op) / (fq - fp)
            slanted.append((slope, op - slope * fp))
    # where two segments cross, a section holds one point fewer
    for i, (s1, c1) in enumerate(slanted):
        feet.update((c2 - c1) / (s1 - s2) for s2, c2 in slanted[:i] if s1 != s2)
    feet = sorted(feet)
    total = ZERO
    for t in feet:
        total = add(total, mul(section(t), H(0, 1)))
    for lo, hi in zip(feet, feet[1:]):
        total = add(total, mul(section((lo + hi) / 2), H(1, hi - lo)))
    return total


class TestLineness:
    def test_line_alone(self):
        s = LinenessScenario.of(lines=[X_AXIS_ENDS], candidates=[X_AXIS])
        assert defi_lineness(s) == (ZERO, X_AXIS)

    def test_line_plus_point(self):
        s = LinenessScenario.of(lines=[X_AXIS_ENDS], points=[P(0, 1)], candidates=[X_AXIS])
        assert defi_lineness(s) == (H(0, 1), X_AXIS)

    def test_point_on_the_line_is_free(self):
        s = LinenessScenario.of(lines=[X_AXIS_ENDS], points=[P(7, 0)], candidates=[X_AXIS])
        assert defi_lineness(s)[0] == ZERO

    def test_two_parallel_lines(self):
        s = LinenessScenario.of(lines=[X_AXIS_ENDS, (P(0, 1), P(1, 1))], candidates=[X_AXIS])
        assert defi_lineness(s)[0] == H(1, "inf")

    def test_crossing_line(self):
        # a non-parallel line also hits almost every section once
        s = LinenessScenario.of(lines=[X_AXIS_ENDS, (P(0, 0), P(1, 1))], candidates=[X_AXIS])
        assert defi_lineness(s)[0] == H(1, "inf")

    def test_perpendicular_line(self):
        # a perpendicular line sits inside a single section entirely
        s = LinenessScenario.of(lines=[X_AXIS_ENDS, (P(2, 0), P(2, 1))], candidates=[X_AXIS])
        assert defi_lineness(s)[0] == H(1, "inf")

    def test_parallel_segment(self):
        s = LinenessScenario.of(lines=[X_AXIS_ENDS], segments=[(P(0, 1), P(3, 1))], candidates=[X_AXIS])
        # shadow of length 3 at value (0,1), plus two endpoint feet
        assert defi_lineness(s)[0] == H(1, 3)

    def test_overlapping_parallel_segments(self):
        # shadows (0, 3) and (1, 4): depth 1, 2, 1 on cells of length 1, 2, 1
        segs = [(P(0, 1), P(3, 1)), (P(1, 2), P(4, 2))]
        s = LinenessScenario.of(lines=[X_AXIS_ENDS], segments=segs, candidates=[X_AXIS])
        assert defi_lineness(s)[0] == H(1, 6)

    def test_overlapping_collinear_segments_count_their_union(self):
        # K holds (0,1)-(4,1) and no more, whichever segments cover it
        segs = [(P(0, 1), P(3, 1)), (P(4, 1), P(1, 1))]
        s = LinenessScenario.of(lines=[X_AXIS_ENDS], segments=segs, candidates=[X_AXIS])
        assert defi_lineness(s)[0] == H(1, 4)
        perpendicular = [(P(2, 0), P(2, 3)), (P(2, 5), P(2, 1)), (P(2, 7), P(2, 8))]
        s = LinenessScenario.of(lines=[X_AXIS_ENDS], segments=perpendicular, candidates=[X_AXIS])
        assert defi_lineness(s)[0] == H(1, 6)

    def test_perpendicular_segment_and_point_share_a_foot(self):
        s = LinenessScenario.of(
            lines=[X_AXIS_ENDS], segments=[(P(2, 0), P(2, 5))], points=[P(2, 7)], candidates=[X_AXIS]
        )
        assert defi_lineness(s)[0] == H(1, 5)

    @given(st.data())
    def test_primitive_order_is_irrelevant(self, data):
        coords = st.integers(-3, 3)
        prims = []
        kinds = st.sampled_from(["point", "line", "segment"])
        for kind in data.draw(st.lists(kinds, max_size=8)):
            p = P(data.draw(coords), data.draw(coords))
            u, v = data.draw(st.sampled_from(DIRECTIONS))
            k = data.draw(st.integers(1, 2))
            q = None if kind == "point" else P(p.x + k * u, p.y + k * v)
            prims.append((kind, p, q))
        candidates = [X_AXIS, Line2.through(P(0, 1), P(3, 5))]
        shuffled = data.draw(st.permutations(prims))
        assert defi_lineness(lineness(shuffled, candidates)) == defi_lineness(lineness(prims, candidates))

    def test_repeated_point_counts_once(self):
        s = LinenessScenario.of(lines=[X_AXIS_ENDS], points=[P(0, 1), P(0, 1)], candidates=[X_AXIS])
        assert defi_lineness(s)[0] == H(0, 1)

    def test_other_line_beats_an_irrational_norm(self):
        # the shadow of the segment along y = x would need sqrt(2), but the
        # line x = 0 already gives (1, inf)
        diagonal = Line2.through(P(0, 0), P(1, 1))
        y_axis, segment = (P(0, 0), P(0, 1)), (P(0, 0), P(2, 0))
        s = LinenessScenario.of(lines=[y_axis], segments=[segment], candidates=[diagonal])
        assert defi_lineness(s) == (H(1, "inf"), diagonal)
        with pytest.raises(UnsupportedScenarioError, match="direction norm\\^2: 2"):
            defi_lineness(LinenessScenario.of(segments=[segment], candidates=[diagonal]))

    @given(st.data())
    def test_closed_form_matches_the_section_integral(self, data):
        coords = st.integers(-4, 4)
        points = data.draw(st.lists(st.tuples(coords, coords), max_size=4, unique=True))
        points = [P(x, y) for x, y in points]
        segments, lines = [], []
        drawn = []  # (start, direction) of each segment
        for _ in range(data.draw(st.integers(0, 4))):
            p = P(data.draw(coords), data.draw(coords))
            u, v = data.draw(st.sampled_from(PYTHAGOREAN))
            k = data.draw(st.integers(1, 2))
            segments.append((p, P(p.x + k * u, p.y + k * v)))
            drawn.append((p, u, v))
        for _ in range(data.draw(st.integers(0, 2)) if drawn else 0):
            # on the line of a drawn segment, mostly overlapping it
            p, u, v = data.draw(st.sampled_from(drawn))
            j, k = data.draw(st.integers(-1, 2)), data.draw(st.integers(1, 3))
            a, b = P(p.x + j * u, p.y + j * v), P(p.x + (j + k) * u, p.y + (j + k) * v)
            segments.append(tuple(data.draw(st.permutations([a, b]))))
        origin = P(data.draw(coords), data.draw(coords))
        u, v = data.draw(st.sampled_from(PYTHAGOREAN))
        tip = P(origin.x + u, origin.y + v)
        if data.draw(st.booleans()):
            lines.append((origin, tip))
        e = Line2.through(origin, tip)
        s = LinenessScenario.of(lines, segments, points, [e])
        assert defi_lineness(s) == (_section_integral(origin, (F(u), F(v)), s), e)

    def test_more_candidates_never_increase(self):
        k = {"lines": [X_AXIS_ENDS], "points": [P(0, 1)]}
        few = LinenessScenario.of(**k, candidates=[X_AXIS])
        more = LinenessScenario.of(**k, candidates=[X_AXIS, Line2.through(P(0, 1), P(1, 1))])
        assert defi_lineness(more)[0] <= defi_lineness(few)[0]

    def test_best_candidate_returned(self):
        off = Line2.through(P(0, 1), P(1, 1))
        v, best = defi_lineness(LinenessScenario.of(lines=[X_AXIS_ENDS], candidates=[off, X_AXIS]))
        assert v == ZERO and best == X_AXIS

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            LinenessScenario.of(lines=[X_AXIS_ENDS], candidates=[])


def ref_distance(p, q):
    """The distance on Fractions, as computed before the integer kernel."""
    d2 = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
    r = nth_root(d2, 2)
    if r is None:
        raise UnsupportedScenarioError(
            f"distance between {p} and {q} is irrational (squared: {d2})"
        )
    return r


def ref_convexity(pts):
    pts = list(dict.fromkeys(pts))
    total = sum(ref_distance(x, y) for i, x in enumerate(pts) for y in pts[i + 1 :])
    return H(1, 2 * total) if total else ZERO


def _outcome(f, *args):
    """f(*args), or the message of the UnsupportedScenarioError it raises."""
    try:
        return f(*args)
    except UnsupportedScenarioError as exc:
        return str(exc)


def _circle(draw, radius):
    """Points at double rational angles on a circle: the chord between
    two of them is 2 * radius * |sin(a1 - a2)|, which is rational."""
    centre = [F(draw(st.integers(-50, 50)), draw(st.integers(1, 12))) for _ in range(2)]
    pts = []
    for t in draw(st.lists(st.fractions(-1, 1, max_denominator=16), min_size=2, max_size=6)):
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        pts.append(P(centre[0] + radius * (c * c - s * s), centre[1] + radius * 2 * c * s))
    return pts


NEAR_2_48 = st.integers(2**48 - 2**20, 2**48 + 2**20)
HUGE = 10**4400  # past the 4300-digit limit of int/str conversion


@st.composite
def point_family(draw):
    """A few points of one kind: on a shared denominator, on mixed ones,
    on integers (most distances irrational), on a rational circle (every
    distance rational), near 2**48, or with numerators past 4300 digits."""
    kind = draw(st.sampled_from(["shared", "mixed", "integer", "circle", "near 2^48", "huge"]))
    if kind == "shared":
        den = draw(st.integers(1, 60))
        coords = st.integers(-200, 200).map(lambda n: F(n, den))
    elif kind == "mixed":
        coords = st.builds(F, st.integers(-200, 200), st.integers(1, 60))
    elif kind == "integer":
        coords = st.integers(-6, 6).map(F)
    elif kind == "circle":
        return _circle(draw, F(draw(st.integers(1, 50)), draw(st.integers(1, 12))))
    elif kind == "near 2^48":
        if draw(st.booleans()):
            return _circle(draw, F(draw(NEAR_2_48) | 1))
        coords = NEAR_2_48.map(F)
    else:
        # on a line of direction (3, 4), or anywhere
        huge = st.builds(F, st.integers(HUGE, HUGE + 10**6), st.integers(1, 99))
        ts = draw(st.lists(huge, min_size=1, max_size=5))
        if draw(st.booleans()):
            return [P(3 * t, 4 * t) for t in ts]
        coords = st.sampled_from(ts)
    return draw(st.lists(st.builds(P, coords, coords), min_size=2, max_size=6))


def point_sets():
    """One family of points, or two side by side, whose cross pairs mix
    denominators and are mostly irrational."""
    return st.lists(point_family(), min_size=1, max_size=2).map(lambda fams: sum(fams, []))


class TestConvexity:
    def test_convex_segment(self):
        s = ConvexityScenario.of(segment=(P(0, 0), P(1, 0)))
        assert defi_convexity(s) == ZERO

    def test_two_points_distance_one(self):
        assert defi_convexity(ConvexityScenario.of([P(0, 0), P(1, 0)])) == H(1, 2)

    def test_three_collinear(self):
        s = ConvexityScenario.of([P(0, 0), P(1, 0), P(2, 0)])
        assert defi_convexity(s) == H(1, 8)

    def test_symmetry(self):
        # the ordered-pair sum is invariant under reversing every pair
        pts = [P(0, 0), P(3, 4), P(6, 0)]
        forward = defi_convexity(ConvexityScenario.of(pts))
        backward = defi_convexity(ConvexityScenario.of(list(reversed(pts))))
        assert forward == backward

    def test_repeated_point_counts_once(self):
        s = ConvexityScenario.of([P(0, 0), P(0, 0), P(3, 4)])
        assert defi_convexity(s) == H(1, 10)

    def test_fewer_than_two_distinct_points(self):
        for pts in ([], [P(1, 1)], [P(1, 1), P(1, 1)]):
            assert defi_convexity(ConvexityScenario.of(pts)) == ZERO

    @given(st.lists(st.integers(-9, 9), max_size=7))
    def test_closed_form_is_the_sum_over_ordered_pairs(self, ts):
        # points t * (3, 4) lie 5 * |t - u| apart
        pts = list(dict.fromkeys(P(3 * t, 4 * t) for t in ts))
        terms = [
            mul(H(1, rational_distance(x, y)), H(0, 1)) for x in pts for y in pts if x != y
        ]
        assert defi_convexity(ConvexityScenario.of(pts)) == sum_finite(terms)

    def test_irrational_distance_unsupported(self):
        with pytest.raises(UnsupportedScenarioError):
            defi_convexity(ConvexityScenario.of([P(0, 0), P(1, 1)]))
        # the first irrational pair in pair order is named
        with pytest.raises(UnsupportedScenarioError) as first:
            rational_distance(P(0, 0), P(1, 2))
        with pytest.raises(UnsupportedScenarioError, match=re.escape(str(first.value))):
            defi_convexity(ConvexityScenario.of([P(0, 0), P(3, 4), P(1, 2), P(5, 5)]))

    @given(point_sets())
    @settings(max_examples=300, deadline=None)
    def test_integer_kernel_matches_the_fraction_reference(self, pts):
        with unbounded_int_text():  # the messages print every digit
            for i, p in enumerate(pts):
                for q in pts[i + 1 :]:
                    assert _outcome(rational_distance, p, q) == _outcome(ref_distance, p, q)
            scenario = ConvexityScenario.of(pts)
            assert _outcome(defi_convexity, scenario) == _outcome(ref_convexity, pts)

    def test_forty_points_with_distinct_1000_bit_denominators(self):
        # nearly every pair has a denominator of its own, and the sum has
        # their product; on t * (3, 4) the distances are 5 |t - u|, and
        # the k-th smallest t (from 0) adds k times and subtracts n - 1 - k
        rng = random.Random(0)
        dens = set()
        while len(dens) < 40:
            dens.add(rng.getrandbits(1000) | 1 << 999 | 1)
        ts = sorted(F(rng.randrange(1, den), den) for den in dens)
        pts = [P(3 * t, 4 * t) for t in ts]
        rng.shuffle(pts)
        expected = sum((2 * k - len(ts) + 1) * t for k, t in enumerate(ts))
        assert defi_convexity(ConvexityScenario.of(pts)) == H(1, 10 * expected)


def ref_through(p, q):
    """Line2.through on the Fractions of p and q, as computed before the
    points held integers."""
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


def _point_outcome(x, y):
    """Point2.of(x, y) as its repr, str and coordinates, or the text of
    its ParseError."""
    try:
        p = P(x, y)
    except ParseError as exc:
        return str(exc)
    return repr(p), str(p), p.x, p.y


def _ref_point_outcome(x, y):
    try:
        fx, fy = ref_as_fraction(x), ref_as_fraction(y)
    except ParseError as exc:
        return str(exc)
    return f"Point2(x={fx!r}, y={fy!r})", f"({fx}, {fy})", fx, fy


class TestPoint2:
    """A point keeps its public face on integers: the repr of its
    Fraction coordinates, equality by value and the Fraction line formula."""

    def test_repr(self):
        assert repr(P(1, 0)) == repr(P("1", "0")) == "Point2(x=Fraction(1, 1), y=Fraction(0, 1))"
        assert repr(P("-2/4", 3)) == "Point2(x=Fraction(-1, 2), y=Fraction(3, 1))"
        # a message prints a point as the CLI prints a pair
        assert str(P("1", "0")) == "(1, 0)" and str(P("-2/4", 3)) == "(-1/2, 3)"

    def test_equal_points_are_equal_and_hash_alike_across_input_forms(self):
        forms = [P("1/2", 1), P(F(2, 4), "1"), P(" 3/6 ", F(1)), P("0.5", "+1"), P("5e-1", "2/2")]
        assert all(p == forms[0] and hash(p) == hash(forms[0]) for p in forms)
        assert len(set(forms)) == 1
        assert P("1/2", 1) != P(1, "1/2") and P(1, 2) != P("1/3", "2/3")
        assert P(1, 0) != (1, 0)

    def test_irrational_distance_message(self):
        with pytest.raises(UnsupportedScenarioError) as exc:
            rational_distance(P(1, 0), P(0, 1))
        assert str(exc.value) == "distance between (1, 0) and (0, 1) is irrational (squared: 2)"

    def test_irrational_shadow_message(self):
        # a line prints as the CLI prints the best line
        diagonal = Line2.through(P(0, 0), P(1, 1))
        assert str(diagonal) == "1*x + -1*y = 0"
        with pytest.raises(UnsupportedScenarioError) as exc:
            defi_lineness(LinenessScenario.of(segments=[(P(0, 0), P(1, 0))], candidates=[diagonal]))
        assert str(exc.value) == "shadow length along 1*x + -1*y = 0 is irrational (direction norm^2: 2)"

    @given(rational_texts(), rational_texts())
    @settings(max_examples=300, deadline=None)
    def test_reader_matches_the_fraction_route(self, x, y):
        with unbounded_int_text():
            assert _point_outcome(x, y) == _ref_point_outcome(x, y)

    @given(point_sets())
    @settings(max_examples=200, deadline=None)
    def test_lines_match_the_fraction_formula(self, pts):
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                if p == q:
                    continue
                line = Line2.through(p, q)
                assert line == ref_through(p, q) == Line2.through(q, p)
                for r in pts:
                    assert line.contains(r) == (line.a * r.x + line.b * r.y == line.c)


class TestScenarioJson:
    def test_continuity(self):
        s = scenario_from_json(
            {"kind": "continuity", "jumps": [{"x": "1/2", "remainder": "(0, 1)"}]}
        )
        assert evaluate_scenario(s) == (H(0, 1), None)

    def test_lineness(self):
        s = scenario_from_json(
            {
                "kind": "lineness",
                "primitives": [
                    {"type": "line", "p": ["0", "0"], "q": ["1", "0"]},
                    {"type": "point", "p": ["0", "1"]},
                ],
                "candidates": [{"p": ["0", "0"], "q": ["1", "0"]}],
            }
        )
        value, best = evaluate_scenario(s)
        assert value == H(0, 1) and best == X_AXIS

    def test_convexity(self):
        s = scenario_from_json(
            {"kind": "convexity", "points": [["0", "0"], ["1", "0"]]}
        )
        assert evaluate_scenario(s) == (H(1, 2), None)

    def test_bad_kind(self):
        with pytest.raises(ParseError):
            scenario_from_json({"kind": "perimeter"})

    def test_each_coordinate_text_is_read_once(self, monkeypatch):
        # "1" is read once however often it appears, and the JSON int 1 is
        # not a key of the memo: it is read at each of its two places
        reads = []
        monkeypatch.setattr(deficiency, "as_pair", lambda x: reads.append(x) or as_pair(x))
        obj = {
            "kind": "lineness",
            "primitives": [
                {"type": "point", "p": ["1", "1"]},
                {"type": "segment", "p": ["1", 1], "q": [" 1 ", "0"]},
            ],
            "candidates": [{"p": ["1", "0"], "q": [1, "2/4"]}],
        }
        scenario_from_json(obj)
        assert sorted(map(repr, reads)) == ["' 1 '", "'0'", "'1'", "'2/4'", "1", "1"]


# ---------------------------------------------------------------------------
# the one-pass reader against a point-by-point reference
# ---------------------------------------------------------------------------


def _ref_point(obj):
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ParseError(f"a point is a pair of rationals, got {obj!r}")
    return Point2(obj[0], obj[1])


def _ref_distinct(p, q, what):
    if p == q:
        raise ParseError(f"{what} needs two distinct points, got ({p.x}, {p.y}) twice")
    return p, q


def _ref_primitive(obj):
    """The primitive as (kind, p, q), q None for a point."""
    kind = obj.get("type")
    if kind == "point":
        return kind, _ref_point(obj["p"]), None
    if kind in ("line", "segment"):
        return (kind, *_ref_distinct(_ref_point(obj["p"]), _ref_point(obj["q"]), f"a {kind}"))
    raise ParseError(f"unknown primitive type {kind!r}")


def _ref_cluster(jumps, global_component):
    """ClusterScenario.of as it read jump locations onto Fractions and
    compared them by hashing."""
    js = tuple((as_fraction(x), r) for x, r in jumps)
    if len({x for x, _ in js}) != len(js):
        raise ParseError("jump locations must be pairwise distinct")
    remainders = [r for _, r in js]
    if global_component is not None:
        name, mu, remainder = global_component
        check_declared(name, mu, ambient=1)
        remainders.append(remainder)
    if not all(r.is_nonneg() for r in remainders):
        raise ParseError("cluster remainders must be nonnegative")
    return ClusterScenario(js, global_component)


def _ref_read(obj):
    """scenario_from_json read item by item, without a memo."""
    kind = obj["kind"]
    if kind == "continuity":
        jumps = json_field(obj, "jumps", "a continuity scenario", list, [])
        jumps = [(j["x"], HValue.parse(j["remainder"])) for j in jumps]
        g = obj.get("global")
        glob = None if g is None else (g["name"], HValue.parse(g["hvalue"]), HValue.parse(g["remainder"]))
        return _ref_cluster(jumps, glob)
    if kind == "lineness":
        prims = [_ref_primitive(p) for p in json_field(obj, "primitives", "a lineness scenario", list, [])]
        cands = json_field(obj, "candidates", "a lineness scenario", list, [])
        if not cands:
            raise ParseError("a lineness scenario needs at least one candidate")
        cands = [Line2.through(*_ref_distinct(_ref_point(c["p"]), _ref_point(c["q"]), "a candidate")) for c in cands]
        return lineness(prims, cands)
    segment = None
    if "segment" in obj:
        p, q = obj["segment"]
        segment = _ref_distinct(_ref_point(p), _ref_point(q), "a segment")
    return ConvexityScenario.of([_ref_point(p) for p in json_field(obj, "points", "a convexity scenario", list, [])], segment)


_ref_read.__name__ = "scenario_from_json"  # the loader's messages name the function
ref_scenario_from_json = json_loader(_ref_read)


def _read_outcome(read, obj):
    """The scenario read, with its repr and hash, or the type and text of the error."""
    try:
        s = read(obj)
    except Exception as exc:
        return type(exc), str(exc)
    return s, repr(s), hash(s)


HVALUE_TEXTS = ["(0, 1)", "(0, 0)", "(1, 2/4)", "(1, inf)", "(1/2, 3)", " (0, 0.5) "]
VALUES = [F(-1), F(0), F(1, 2), F(1), F(3, 4), F(2), F(5, 2)]


@st.composite
def number_json(draw, refused):
    """One of a few values, spelled one of several ways, a JSON int among
    them; with ``refused``, one time in four a value the reader must refuse."""
    if refused and draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["1/0", "x", True, 1.0, None]))
    q = draw(st.sampled_from(VALUES))
    n, d = q.numerator, q.denominator
    if d == 1 and draw(st.booleans()):
        return n
    forms = [str(q), f"{2 * n}/{2 * d}", f" {q} ", f"{n * 10**3}e-3" if d == 1 else f"{n}/{d}"]
    if d == 1:
        forms.append(f"{n}e0")
    if d in (1, 2, 4):
        forms.append(str(float(q)))
    return draw(st.sampled_from(forms))


@st.composite
def scenario_json(draw):
    """A scenario whose numbers come from a small pool, so that one text,
    or one value in two spellings, or 1 and true, often meet in a file."""
    mode = draw(st.sampled_from(["clean", "refused", "1 then true"]))
    pool = draw(st.lists(number_json(mode == "refused"), min_size=3, max_size=10))
    if mode == "1 then true":
        # JSON 1, 1.0 and true are one Python key, but only 1 is a number
        pool = ["1", 1, 1, draw(st.sampled_from([True, 1.0, None]))]
    number = st.sampled_from(pool)
    point = st.lists(number, min_size=2, max_size=2)

    @st.composite
    def primitive(draw):
        kinds = ["point", "line", "segment", "segment"] + ["blob"] * (draw(st.integers(0, 19)) == 0)
        kind = draw(st.sampled_from(kinds))
        return {"type": kind, "p": draw(point), "q": draw(point)}

    kind = draw(st.sampled_from(["continuity", "lineness", "convexity"]))
    if kind == "continuity":
        remainder = st.sampled_from(HVALUE_TEXTS + ["(0, -1)"] * (draw(st.integers(0, 9)) == 0))
        jumps = draw(st.lists(number, max_size=6, unique_by=repr if draw(st.booleans()) else None))
        obj = {"kind": kind, "jumps": [{"x": x, "remainder": draw(remainder)} for x in jumps]}
        if draw(st.integers(0, 3)) == 0:
            mu = draw(st.sampled_from(HVALUE_TEXTS))
            obj["global"] = {"name": "rest", "hvalue": mu, "remainder": draw(remainder)}
        return obj
    if kind == "lineness":
        lines = st.fixed_dictionaries({"p": point, "q": point})
        return {
            "kind": kind,
            "primitives": draw(st.lists(primitive(), max_size=8)),
            "candidates": draw(st.lists(lines, min_size=draw(st.sampled_from([0, 1, 1, 1])), max_size=3)),
        }
    obj = {"kind": kind, "points": draw(st.lists(point, max_size=6))}
    if draw(st.integers(0, 4)) == 0:
        obj["segment"] = draw(st.lists(point, min_size=2, max_size=2))
    return obj


class TestOnePassReader:
    @given(scenario_json())
    @settings(max_examples=500, deadline=None)
    def test_reader_matches_the_point_by_point_reference(self, obj):
        text = json.dumps(obj)
        got = _read_outcome(scenario_from_json, json.loads(text))
        assert got == _read_outcome(ref_scenario_from_json, json.loads(text))

    def test_a_json_int_then_true_or_a_float(self):
        # 1, 1.0 and true are one Python dict key, but only an int is a number here
        for later in (True, 1.0, None):
            obj = {"kind": "convexity", "points": [["1", 1], [later, "0"]]}
            assert _read_outcome(scenario_from_json, obj) == _read_outcome(ref_scenario_from_json, obj)
            assert _read_outcome(scenario_from_json, obj)[0] is ParseError


def ref_tree(sums):
    """The sum of r / L over sums' items (L, r), one Fraction per L added pairwise."""
    terms = [F(r, den) for den, r in sums.items()]
    while len(terms) > 1:
        terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1 :]
    return terms[0] if terms else F(0)


@st.composite
def denominator_maps(draw):
    """Pair denominators L with numerator sums r: small ones, families
    sharing a long factor, powers of 2 and 3, and 1000-bit ones, alone
    or with a shared factor."""
    kind = draw(st.sampled_from(["small", "shared", "powers", "1000-bit", "1000-bit shared"]))
    if kind == "small":
        dens = st.integers(1, 60)
    elif kind == "shared":
        base = draw(st.integers(2, 2**64))
        dens = st.integers(1, 30).map(lambda k: base * k)
    elif kind == "powers":
        dens = st.builds(lambda i, j: 2**i * 3**j, st.integers(0, 40), st.integers(0, 25))
    elif kind == "1000-bit":
        dens = st.integers(2**999, 2**1000)
    else:
        base = draw(st.integers(2**500, 2**501))
        dens = st.integers(2**498, 2**499).map(lambda k: base * k)
    nums = st.one_of(st.integers(1, 10**6), st.integers(1, 2**1100))
    return draw(st.dictionaries(dens, nums, max_size=40))


class TestPairwiseSum:
    @given(denominator_maps())
    @settings(max_examples=300, deadline=None)
    def test_integer_pairs_match_the_fraction_tree(self, sums):
        total = _pairwise_sum(sums)
        assert type(total) is F and total == ref_tree(sums)


ROOT = Path(__file__).resolve().parent.parent
DEFI_SHA256 = "a260cb53f500ab66cf379d586a8926270771e13d7e12c91476ad8c14328bc2b2"


def _defi_digest(paths):
    """One SHA-256 over the exit code, stdout and stderr of ``defi`` on each
    path, without and with ``--json``."""
    digest = hashlib.sha256()
    for path in paths:
        for flags in ([], ["--json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["defi", str(path), *flags])
            digest.update(f"{code}\n{out.getvalue()}\0{err.getvalue()}\0".encode())
    return digest.hexdigest()


class TestPinnedOutput:
    def test_scenario_workload_defi_output_is_byte_identical(self, tmp_path):
        # the benchmark's 180 defi requests (seeds 101-103, cycles 0-3) and
        # the bundled scenario files; its generator imports nothing from hintegral
        spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        ops = [
            op
            for seed in (101, 102, 103)
            for cycle in range(4)
            for op in gen.scenario_cycle(seed, cycle)
            if not op["kind"].startswith("eval")
        ]
        assert len(ops) == 180
        paths = []
        for i, op in enumerate(ops):
            (scenario,) = op["files"]
            paths.append(tmp_path / f"{i}.json")
            paths[-1].write_text(json.dumps(scenario))
        bundled = sorted(
            p for p in (ROOT / "scenarios").glob("*.json")
            if p.name.startswith(("continuity", "convexity", "lineness"))
        )
        assert len(bundled) == 7
        assert _defi_digest(paths + bundled) == DEFI_SHA256
