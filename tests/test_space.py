"""Measure space tests: sets, disjointness, h-measures, JSON."""

from fractions import Fraction as F
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hintegral import exprs
from hintegral.errors import NonDisjointError, ParseError, UnknownSetError, UnsupportedExpressionError
from hintegral.hvalue import INF, ZERO, ExtRat, HValue, sum_finite
from hintegral.oracle import scaled_embedding
from hintegral.space import (
    AtomSet,
    AtomSpace,
    IntervalSet,
    IntervalSpace,
    check_declared,
    meeting,
    set_from_json,
    set_to_json,
    space_from_json,
    union,
)

H = HValue.of


class TestSets:
    def test_interval_overlap_rejected(self):
        with pytest.raises(NonDisjointError):
            IntervalSet.of([(0, 1), (F(1, 2), 2)])
        with pytest.raises(NonDisjointError):
            IntervalSet.of([(0, 1)], points=[F(1, 2)])

    @settings(max_examples=200)
    @given(st.sets(st.integers(0, 20), max_size=8),
           st.sets(st.fractions(min_value=-1, max_value=11, max_denominator=2), max_size=6))
    def test_a_point_inside_an_interval_is_named_with_it(self, ends, points):
        # the first such point in sorted order, and the one interval holding it
        ends = sorted(ends)
        ivs = [(F(a, 2), F(b, 2)) for a, b in zip(ends[::2], ends[1::2])]
        inside = [(p, a, b) for p in sorted(points) for a, b in ivs if a < p < b]
        if not inside:
            assert IntervalSet.of(ivs[::-1], points).points == tuple(sorted(points))
            return
        with pytest.raises(NonDisjointError) as refused:
            IntervalSet.of(ivs[::-1], points)
        p, a, b = inside[0]
        assert str(refused.value) == f"point {p} inside interval ({a}, {b})"

    def test_a_duplicate_point_is_named(self):
        with pytest.raises(NonDisjointError, match="^duplicate point 1/2$"):
            IntervalSet.of(points=[F(1, 2), 2, F(1, 4), F(1, 2), 2])
        with pytest.raises(NonDisjointError, match="^duplicate point 1/2$"):
            union([IntervalSet.of(points=[F(1, 2)]), IntervalSet.of([(0, F(1, 4))], [F(1, 2)])])

    def test_touching_intervals_allowed(self):
        s = IntervalSet.of([(0, 1), (1, 2)], points=[1])
        assert s.intervals == ((F(0), F(1)), (F(1), F(2)))
        assert s.points == (F(1),)

    def test_union_atom_overlap(self):
        with pytest.raises(NonDisjointError):
            union([AtomSet.of("a", "b"), AtomSet.of("b")])

    def test_union_catalog_duplicate(self):
        # a catalog set is an atom set of names
        parts = [set_from_json({"catalog": ["L"]}), set_from_json({"catalog": ["L"]})]
        with pytest.raises(NonDisjointError):
            union(parts)

    def test_union_of_mixed_kinds(self):
        with pytest.raises(UnknownSetError):
            union([AtomSet.of("a"), IntervalSet.of([(0, 1)])])
        with pytest.raises(UnknownSetError):
            union([IntervalSet.of([(0, 1)]), set_from_json({"catalog": ["L"]})])

    def test_contains(self):
        big = IntervalSet.of([(0, 1)], points=[2])
        assert F(1, 4) in big and 2 in big
        assert 1 not in big and F(3, 2) not in big

    def test_catalog_algebra(self):
        L, Lp = set_from_json({"catalog": ["L"]}), set_from_json({"catalog": ["p", "L"]})
        assert "L" in Lp
        assert Lp & L == L and L & AtomSet.of("p") == AtomSet.of()

    def test_mixed_kinds_rejected(self):
        with pytest.raises(UnknownSetError):
            AtomSet.of("a") & IntervalSet.of(points=[1])


_POOL = [F(k, 2) for k in range(5)]  # a small pool, so sets often share endpoints


def _draw_grid(draw):
    """Sorted cuts and, for each gap between neighbours, whether the set
    may use it."""
    cuts = sorted(draw(st.lists(st.sampled_from(_POOL), min_size=3, max_size=5, unique=True)))
    n = len(cuts) - 1
    return cuts, draw(st.lists(st.sampled_from([True, True, False]), min_size=n, max_size=n))


def _draw_interval_set(draw, cuts, keep):
    """Each kept gap is an open interval; each cut is left out, kept as a
    point, or bridged (an interval runs on across it)."""
    n = len(cuts)
    marks = draw(st.lists(st.sampled_from(["out", "point", "bridge"]), min_size=n, max_size=n))
    ivs = []
    for a, b, k, m in zip(cuts, cuts[1:], keep, marks):
        if k and ivs and ivs[-1][1] == a and m == "bridge":
            ivs[-1] = (ivs[-1][0], b)
        elif k:
            ivs.append((a, b))
    return IntervalSet.of(ivs, [c for c, m in zip(cuts, marks) if m == "point"])


@st.composite
def _interval_set_pairs(draw):
    """Half the time both sets use one grid and the same gaps, so one
    often spans an interval that the other splits at a point or a gap."""
    cuts, keep = _draw_grid(draw)
    s = _draw_interval_set(draw, cuts, keep)
    if not draw(st.booleans()):
        cuts, keep = _draw_grid(draw)
    return s, _draw_interval_set(draw, cuts, keep)


def _probes(s, w):
    """Every endpoint and point of s and w, every midpoint between
    neighbouring ones, and one value beyond each end: membership in
    either set is constant between neighbouring probes."""
    marks = sorted({x for t in (s, w) for iv in t.intervals for x in iv} | set(s.points + w.points))
    mids = [(a + b) / 2 for a, b in zip(marks, marks[1:])]
    return marks + mids + [marks[0] - 1, marks[-1] + 1] if marks else []


def _scan(s, x):
    """x in s by a scan of every point and interval: a reference
    independent of the bisect lookup of membership."""
    return x in s.points or any(a < x < b for a, b in s.intervals)


@st.composite
def _sorted_intervals(draw):
    """Sorted disjoint open intervals on integer cuts, some touching, the
    empty list included."""
    cuts = sorted(draw(st.sets(st.integers(0, 12), max_size=8)))
    keep = draw(st.lists(st.booleans(), min_size=len(cuts), max_size=len(cuts)))
    return [(a, b) for a, b, k in zip(cuts, cuts[1:], keep) if k]


ENDS = (itemgetter(0), itemgetter(1))


class TestMeeting:
    @settings(max_examples=200)
    @given(_sorted_intervals())
    @example([])
    def test_agrees_with_a_scan(self, ivs):
        # every end, every midpoint between ends, and a probe past each side
        ends = sorted({x for iv in ivs for x in iv})
        probes = [F(x) for x in ends] + [F(a + b, 2) for a, b in zip(ends, ends[1:])] + [F(-1), F(13)]
        for lo in probes:
            assert ivs[meeting(ivs, lo, lo, *ENDS)] == [(a, b) for a, b in ivs if a < lo < b]
            for hi in (x for x in probes if lo < x):
                assert ivs[meeting(ivs, lo, hi, *ENDS)] == [(a, b) for a, b in ivs if a < hi and lo < b]


class TestSetAlgebraProperties:
    @settings(max_examples=300)
    @given(_interval_set_pairs())
    def test_interval_membership_agrees_with_a_scan(self, pair):
        s, w = pair
        for x in _probes(s, w):
            assert (x in s) == _scan(s, x)
            assert (x in w) == _scan(w, x)

    @given(st.frozensets(st.sampled_from("abcde")), st.frozensets(st.sampled_from("abcde")))
    def test_atom_algebra_agrees_with_membership(self, a, b):
        s, w = AtomSet(a), AtomSet(b)
        assert s & w == w & s
        for x in "abcdef":
            assert (x in s & w) == (x in s and x in w)


class TestAtomSpace:
    def test_measure_is_dominance_sum(self):
        sp = AtomSpace.of({"a": H(1, 2), "b": H(0, 5), "c": H(1, 3)})
        assert sp.measure(AtomSet.of("a", "b", "c")) == H(1, 5)
        assert sp.measure(AtomSet.of("b")) == H(0, 5)
        assert sp.measure(AtomSet(frozenset())) == ZERO

    def test_unknown_atom(self):
        sp = AtomSpace.of({"a": H(1, 2)})
        with pytest.raises(UnknownSetError):
            sp.measure(AtomSet.of("z"))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AtomSpace.of({"a": H(1, -1)})


class TestIntervalSpace:
    def test_positive_length(self):
        sp = IntervalSpace.of(0, 1, dim_offset=1)
        assert sp.measure(IntervalSet.of([(0, F(1, 2))])) == H(1, "1/2")

    def test_null_sets_are_zero(self):
        sp = IntervalSpace.of(0, 1, dim_offset=1)
        assert sp.measure(IntervalSet.of(points=[F(1, 3), F(2, 3)])) == ZERO

    def test_density(self):
        # density 2x on (0,1): nu((0,1)) = 1, nu((0,1/2)) = 1/4
        sp = IntervalSpace.of(0, 1, dim_offset=2, density=(0, 2))
        assert sp.nu(IntervalSet.of([(0, 1)])) == 1
        assert sp.measure(IntervalSet.of([(0, F(1, 2))])) == H(2, "1/4")

    def test_the_space_integrates_against_its_measure(self):
        # density 2x on (0, 2): x integrates to 2x**3/3, and 1 to nu
        sp = IntervalSpace.of(0, 2, density=(0, 2))
        assert sp.integral(exprs.affine(0, 1), 0, 1) == F(2, 3)
        assert sp.integral(exprs.const(1), 0, 1) == sp.nu(IntervalSet.of([(0, 1)])) == 1
        # x**(1/2) integrates to 4x**(5/2)/5: 4/5 on (0, 1), 16 * 2**(1/2) / 5 on (0, 2)
        root = exprs.power(F(1, 2))
        assert sp.integral(root, 0, 1) == sp.integral_bounds(root, 0, 1)[0] == F(4, 5)
        low, high = sp.integral_bounds(root, 0, 2)
        assert 0 < low < high and low**2 < F(512, 25) < high**2
        with pytest.raises(UnsupportedExpressionError):
            sp.integral(root, 0, 2)

    def test_only_the_zero_density_is_null(self):
        assert IntervalSpace.of(0, 1, density=(0,)).is_null
        assert IntervalSpace.of(0, 1, density=(0, 0)).is_null
        # a nonzero density vanishes at finitely many points
        for density in [(1,), (1, -1), (F(1, 9), F(-2, 3), 1)]:
            assert not IntervalSpace.of(0, 1, density=density).is_null

    def test_negative_density_rejected(self):
        # the last one is 1/20 at both ends and -1/5 at 1/2
        for density in [(-1,), (1, -2), (-1, 2), (0, 0, -1), (F(1, 20), -1, 1)]:
            with pytest.raises(ValueError):
                IntervalSpace.of(0, 1, density=density)
        IntervalSpace.of(0, 1, density=(1, -1))  # 0 at the right end is fine
        IntervalSpace.of(0, 1, density=(F(1, 9), F(-2, 3), 1))  # (x - 1/3)**2, 0 inside

    @settings(max_examples=200)
    @given(st.data())
    def test_nu_is_the_sum_over_the_intervals(self, data):
        # adjacent intervals make runs whose integrals telescope; gaps and
        # points between them; densities of degree 0-2, nonnegative on (0, 2)
        c = data.draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
        r = data.draw(st.sampled_from(_POOL))
        density = data.draw(st.sampled_from([(c,), (c, c), (2 * c, -c), (c * r * r, -2 * c * r, c)]))
        sp = IntervalSpace.of(0, 2, density=density)
        cuts, keep = _draw_grid(data.draw)
        s = _draw_interval_set(data.draw, cuts, keep)
        s = IntervalSet.of(s.intervals, [p for p in s.points if 0 < p < 2])

        def antiderivative(x):
            return sum(w * x ** (k + 1) / (k + 1) for k, w in enumerate(density))

        assert sp.nu(s) == sum(antiderivative(b) - antiderivative(a) for a, b in s.intervals)

    def test_out_of_bounds(self):
        sp = IntervalSpace.of(0, 1)
        with pytest.raises(UnknownSetError):
            sp.nu(IntervalSet.of([(0, 2)]))
        for p in (0, 1, 2):  # the space is open: its ends lie outside it
            with pytest.raises(UnknownSetError):
                sp.nu(IntervalSet.of(points=[p]))
        assert sp.nu(IntervalSet.of(points=[F(1, 2)])) == 0


def _catalog(*entries):
    return space_from_json({"kind": "catalog", "sets": list(entries)})


class TestCatalogSpace:
    def test_declared_values_dominance_sum(self):
        sp = _catalog(
            {"name": "L", "ambient": 2, "hvalue": "(1, inf)", "set_kind": "line"},
            {"name": "p", "ambient": 2, "hvalue": "(0, 1)", "set_kind": "finite-points"},
        )
        assert sp.measure(AtomSet.of("L", "p")) == H(1, "inf")
        assert sp.measure(AtomSet.of("p")) == H(0, 1)

    def test_dim0_must_be_count(self):
        with pytest.raises(ValueError):
            check_declared("bad", H(0, "1/2"), ambient=1)
        with pytest.raises(ParseError):
            _catalog({"name": "bad", "hvalue": "(0, 1/2)"})
        assert check_declared("ok", H(0, "inf"), ambient=0) == H(0, "inf")

    def test_dim_bounded_by_ambient(self):
        with pytest.raises(ValueError):
            check_declared("bad", H(2, 1), ambient=1)
        with pytest.raises(ParseError):
            _catalog({"name": "bad", "ambient": 1, "hvalue": "(2, 1)"})

    def test_ambient_is_an_integer(self):
        for ambient in (True, 1.0, "1"):
            with pytest.raises(ValueError):
                check_declared("bad", H(1, 1), ambient=ambient)

    def test_unknown_name(self):
        sp = _catalog()
        with pytest.raises(UnknownSetError):
            sp.measure(set_from_json({"catalog": ["ghost"]}))

    def test_unknown_set_kind(self):
        with pytest.raises(ParseError):
            _catalog({"name": "L", "hvalue": "(1, 1)", "set_kind": "blob"})
        for kind in ("declared", "segment", "self-similar", "countable"):
            _catalog({"name": "L", "hvalue": "(1, 1)", "set_kind": kind})

    def test_names_are_distinct_strings(self):
        for names in (["a", "a"], [1, "a"]):
            with pytest.raises(ParseError):
                _catalog(*({"name": n, "hvalue": "(0, 1)"} for n in names))


class TestScaledEmbedding:
    def test_atoms(self):
        sp = scaled_embedding(2, {"a": "3/2", "b": 0})
        assert sp.weights["a"] == H(2, "3/2")
        # null atoms embed to (0,0), not (d0, 0)
        assert sp.weights["b"] == ZERO


def _additive(sp, parts):
    """The measure of the union of disjoint parts is the sum of theirs."""
    return sp.measure(union(parts)) == sum_finite(sp.measure(p) for p in parts)


class TestHMeasureValidation:
    def test_additive_partition(self):
        sp = AtomSpace.of({"a": H(1, 2), "b": H(0, "inf"), "c": H(1, 1)})
        assert _additive(sp, [AtomSet.of("a"), AtomSet.of("b", "c")])

    def test_interval_partition(self):
        sp = IntervalSpace.of(0, 1, dim_offset=1)
        parts = [
            IntervalSet.of([(0, F(1, 2))]),
            IntervalSet.of([(F(1, 2), 1)], points=[F(1, 2)]),
        ]
        assert _additive(sp, parts)

    def test_overlap_raises(self):
        with pytest.raises(NonDisjointError):
            union([AtomSet.of("a"), AtomSet.of("a")])


class TestJson:
    def test_set_round_trip(self):
        for s in [
            AtomSet.of("a", "b"),
            IntervalSet.of([(0, F(1, 2))], points=[F(3, 4)]),
        ]:
            assert set_from_json(set_to_json(s)) == s

    def test_atoms_and_catalog_read_alike(self):
        assert set_from_json({"catalog": ["p", "L"]}) == set_from_json({"atoms": ["L", "p"]})
        assert set_to_json(set_from_json({"catalog": ["p", "L"]})) == {"atoms": ["L", "p"]}

    def test_set_names_are_distinct_strings(self):
        for key in ("atoms", "catalog"):
            for names in (["a", "a"], [1], ["a", 1], "ab"):
                with pytest.raises(ParseError):
                    set_from_json({key: names})

    def test_space_parse(self):
        golden = [
            (
                AtomSpace.of({"a": H(1, "inf"), "b": H(0, 3)}),
                {"kind": "atoms", "atoms": {"a": "(1, inf)", "b": "(0, 3)"}},
            ),
            (
                IntervalSpace.of(0, 1, dim_offset="3/2", density=(1, 2)),
                {"kind": "interval", "bounds": ["0", "1"], "dim_offset": "3/2", "density": ["1", "2"]},
            ),
            (
                AtomSpace.of({"L": H(1, "inf")}),
                {
                    "kind": "catalog",
                    "sets": [{"name": "L", "ambient": 2, "hvalue": "(1, inf)", "set_kind": "line"}],
                },
            ),
        ]
        for sp, obj in golden:
            assert space_from_json(obj) == sp
