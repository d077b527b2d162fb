"""Call-count ladder: an entry point's work grows linearly with its input.

cProfile's ``total_calls`` repeats exactly for a fixed input, so the
ratio of the counts at 2n and at n measures growth without timing
noise: a linear path gives about 2, a quadratic one about 4.  Each row
builds its input outside the profiled call.
"""

import cProfile
import pstats
from fractions import Fraction as F

import pytest

from hintegral import exprs
from hintegral.hvalue import HValue
from hintegral.integral import PiecewiseFn, SimpleFn, sublevel_set
from hintegral.space import IntervalSet, IntervalSpace

SIZES = (200, 400, 800, 1600)
RATIO = 2.3


def total_calls(run) -> int:
    profile = cProfile.Profile()
    profile.runcall(run)
    return pstats.Stats(profile).total_calls


def sublevel(n):
    """sublevel_set of n touching pieces, every other one below the
    level: about n/2 intervals and the n - 1 piece ends as points."""
    space = IntervalSpace.of(0, n)
    f = PiecewiseFn.of([(k, k + 1, exprs.const(k % 2), exprs.const(1)) for k in range(n)])
    return lambda: sublevel_set(space, f, HValue.of(1, 1))


def simple_on_intervals(n):
    """A simple function of n interval pieces that each hold a point."""
    pieces = [(HValue.of(1, 1), IntervalSet.of([(2 * k, 2 * k + 1)], [2 * k + F(3, 2)])) for k in range(n)]
    return lambda: SimpleFn.of(pieces)


@pytest.mark.parametrize("entry", [sublevel, simple_on_intervals], ids=["sublevel_set", "SimpleFn"])
def test_calls_at_most_double_with_the_input(entry):
    counts = [total_calls(entry(n)) for n in SIZES]
    ratios = [big / small for small, big in zip(counts, counts[1:])]
    assert all(r <= RATIO for r in ratios), (counts, ratios)
