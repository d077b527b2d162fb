"""Randomized generators, brute-force law checkers and the other test
machinery of the package.

Every law stated for the value semiring and for the integral is checked
here against independent computations: the integral laws run on atom
spaces small enough (at most 6 atoms) that subsets, disjoint families
and full partitions can be enumerated exhaustively, so the checkers
never trust the code paths they are checking.  All comparisons are
exact; a nonzero tolerance anywhere is a bug.  The integral under test
is :func:`integrate`'s value, the one ``hintegral eval`` prints.

Beside :func:`brute_force_integral` sit two closed-form references the
general integral must agree with: :func:`graded_integral` (a constant
dimension coordinate shifts the ordinary integral of the mass
coordinate; a simple function's is the defining sum
:func:`integrate_simple`) and :func:`integrate_ordinary` (the ordinary
evaluation on a dimension-0 atom embedding, checked by the
``ordinary-agreement`` law).  No reference calls :func:`integrate`.
The indefinite integral over a part L of a partition is
``integrate(space, restrict(f, L))``.

The module also samples random i-simple minorants of a function (the
integral is the supremum of their integrals) and builds the witness
that a diagonal function escapes every chain of simple functions.  Of
the other modules only the CLI imports it, for ``laws`` and ``demo``.

The ``*_fn`` keyword arguments exist solely to inject broken
implementations (mutants) in tests; production callers leave them
unset.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from . import exprs
from .errors import UndefinedSumError, UnsupportedExpressionError
from .hvalue import (
    INF,
    ZERO,
    ExtRat,
    HValue,
    SeqDescriptor,
    _ext,
    _hv,
    add,
    as_ext,
    as_fraction,
    mul,
    pair_fraction,
    scalar_mul,
    sum_described,
)
from .space import AtomSet, AtomSpace, IntervalSet, IntervalSpace
from .integral import (
    SimpleFn,
    _uncovered,
    integrate,
    integrate_simple,
    pointwise_add_fn,
    restrict,
)

# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class LawReport:
    law: str
    trials: int
    seed_lo: int
    seed_hi: int
    violations: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, law: str, trial_seed: int, **inputs):
        self.violations.append(
            {"law": law, "seed": trial_seed, **{k: str(v) for k, v in inputs.items()}}
        )

    def to_json(self):
        return {
            "law": self.law,
            "trials": self.trials,
            "seed_range": [self.seed_lo, self.seed_hi],
            "violations": self.violations,
        }


def _trial_seed(seed: int, i: int) -> int:
    return (seed << 24) + i


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``, drawn as CPython's ``_randbelow`` draws it:
    ``getrandbits(k)`` for k the bit length of n = hi - lo + 1, again until
    it is below n.  The value and the generator's state after it are
    ``randint``'s own, without ``randrange``'s argument checks."""
    n = hi - lo + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _random_pair(rng: random.Random, signed: bool) -> Tuple[int, int]:
    """A random rational as a coprime pair (n, d), d > 0: ``randint(0, 100)``
    and ``randint(1, 100)``, inlined as in :func:`_randint` (101 and 100 have 7 bits)."""
    bits = rng.getrandbits
    num = bits(7)
    while num > 100:
        num = bits(7)
    if signed and rng.random() < 0.5:
        num = -num
    den = bits(7)
    while den >= 100:
        den = bits(7)
    den += 1
    g = gcd(num, den)
    return num // g, den // g


def _random_rat(rng: random.Random, signed: bool) -> Fraction:
    return pair_fraction(*_random_pair(rng, signed))


def random_hvalue(seed, profile: str = "nonneg") -> HValue:
    """Deterministic random value; numerators and denominators stay
    below 100, infinities appear with probability 1/8 when allowed."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n, d = _random_pair(rng, signed=False)
    if profile == "nonneg":
        return _hv(n, d, _ext(*_random_pair(rng, signed=False), 0))
    if profile == "signed":
        if rng.random() < 0.125:
            return _hv(n, d, INF if rng.random() < 0.5 else -INF)
        return _hv(n, d, _ext(*_random_pair(rng, signed=True), 0))
    if profile == "with-infinities":
        if rng.random() < 0.125:
            return _hv(n, d, INF)
        return _hv(n, d, _ext(*_random_pair(rng, signed=False), 0))
    raise ValueError(f"unknown profile {profile!r}")


ATOM_NAMES = ("a", "b", "c", "d", "e", "f")


def random_atom_space(seed, n: int = 4) -> AtomSpace:
    """n atoms (n <= 6) with nonnegative weights, infinite mass allowed."""
    if not 1 <= n <= 6:
        raise ValueError("atom spaces are capped at 6 atoms")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    weights = {}
    for name in ATOM_NAMES[:n]:
        if rng.random() < 0.15:
            weights[name] = ZERO
        else:
            weights[name] = random_hvalue(rng, "with-infinities")
    return AtomSpace.of(weights)


def random_simple_fn(rng: random.Random, space: AtomSpace, i_simple: bool = False) -> SimpleFn:
    pieces = []
    for a in space.atoms:
        roll = rng.random()
        if roll < 0.25:
            continue
        profile = "with-infinities" if i_simple else "nonneg"
        v = random_hvalue(rng, profile)
        if not v.is_zero:
            pieces.append((v, AtomSet.of(a)))
    return SimpleFn.of(pieces, i_simple=i_simple)


# ---------------------------------------------------------------------------
# algebra laws
# ---------------------------------------------------------------------------

_UNDEF = object()


def _try(fn, *args):
    try:
        return fn(*args)
    except UndefinedSumError:
        return _UNDEF


def check_algebra_laws(
    trials: int,
    seed: int = 0,
    add_fn: Callable[[HValue, HValue], HValue] = add,
    mul_fn: Callable[[HValue, HValue], HValue] = mul,
) -> LawReport:
    """Commutativity, associativity, zero product, distributivity on
    nonnegative values, series distributivity, order compatibility,
    the real-number embedding, and the fixed distributivity
    counterexample."""
    report = LawReport(
        "algebra", trials, _trial_seed(seed, 0), _trial_seed(seed, max(trials - 1, 0))
    )
    for i in range(trials):
        ts = _trial_seed(seed, i)
        rng = random.Random(ts)
        a = random_hvalue(rng, "signed")
        b = random_hvalue(rng, "signed")
        c = random_hvalue(rng, "signed")

        if _try(add_fn, a, b) != _try(add_fn, b, a):
            report.record("add-commutative", ts, a=a, b=b)
        if mul_fn(a, b) != mul_fn(b, a):
            report.record("mul-commutative", ts, a=a, b=b)

        lhs = _try(lambda: add_fn(add_fn(a, b), c))
        rhs = _try(lambda: add_fn(a, add_fn(b, c)))
        # partial addition: a grouping that hits (d,+inf)+(d,-inf) is
        # undefined while the other may collapse by dominance first, so
        # only compare when both groupings are defined
        if lhs is not _UNDEF and rhs is not _UNDEF and lhs != rhs:
            report.record("add-associative", ts, a=a, b=b, c=c)
        if mul_fn(mul_fn(a, b), c) != mul_fn(a, mul_fn(b, c)):
            report.record("mul-associative", ts, a=a, b=b, c=c)

        if mul_fn(a, ZERO) != ZERO or mul_fn(ZERO, a) != ZERO:
            report.record("zero-product", ts, a=a)

        an = random_hvalue(rng, "with-infinities")
        bn = random_hvalue(rng, "with-infinities")
        cn = random_hvalue(rng, "with-infinities")
        if mul_fn(an, add_fn(bn, cn)) != add_fn(mul_fn(an, bn), mul_fn(an, cn)):
            report.record("distributivity", ts, a=an, b=bn, c=cn)

        prefix = [random_hvalue(rng, "nonneg") for _ in range(_randint(rng, 0, 4))]
        tail = random_hvalue(rng, "nonneg") if rng.random() < 0.5 else ZERO
        s = SeqDescriptor.of(prefix, tail)
        if mul_fn(an, sum_described(s)) != sum_described(s.map(lambda t: mul_fn(an, t))):
            report.record("series-distributivity", ts, a=an, series=s)

        folded = ZERO
        for t in prefix:
            folded = add_fn(folded, t)
        if folded != sum_described(SeqDescriptor.of(prefix)):
            report.record("series-finite-consistency", ts, series=s)

        lo, hi = sorted([an, bn])
        if not mul_fn(lo, cn) <= mul_fn(hi, cn):
            report.record("order-compatibility", ts, lo=lo, hi=hi, c=cn)

        x = _random_rat(rng, signed=False)
        y = _random_rat(rng, signed=False)
        ex, ey = HValue.of(0, x), HValue.of(0, y)
        if add_fn(ex, ey) != HValue.of(0, x + y) or mul_fn(ex, ey) != HValue.of(0, x * y):
            report.record("embedding", ts, x=x, y=y)
        if x > 0 and not an.is_zero and scalar_mul(x, an) != mul_fn(ex, an):
            report.record("embedding-scalar", ts, x=x, a=an)

    if trials > 0:
        one = HValue.of(1, 1)
        pos = HValue.of(0, 5)
        neg = HValue.of(0, -5)
        lhs = mul_fn(one, add_fn(pos, neg))
        rhs = add_fn(mul_fn(one, pos), mul_fn(one, neg))
        if lhs != ZERO or rhs != HValue.of(1, 0):
            report.record("counterexample-instance", _trial_seed(seed, 0), lhs=lhs, rhs=rhs)
    return report


# ---------------------------------------------------------------------------
# exhaustive set machinery
# ---------------------------------------------------------------------------


def all_partitions(items: Tuple[str, ...]):
    """Every set partition (Bell(n) many) of the items."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] + [first]] + part[k + 1 :]
        yield part + [[first]]


def brute_force_integral(space: AtomSpace, f: SimpleFn) -> HValue:
    """Independent evaluation of the integral from its supremum
    characterization: dimension from single positive sets, mass from
    exhaustive enumeration of disjoint qualifying families."""
    atoms = space.atoms
    values = [f.value_at(a) for a in atoms]
    qualifying = []  # (mask, dimension of inf_f * measure, its mass)
    for mask in range(1, 1 << len(atoms)):
        sub = [k for k in range(len(atoms)) if mask >> k & 1]
        mv = space.measure(AtomSet(frozenset(atoms[k] for k in sub)))
        if not mv > ZERO:
            continue
        inf_f = min(values[k] for k in sub)
        if not inf_f > ZERO:
            continue
        qualifying.append((mask, inf_f.d + mv.d, inf_f.m * mv.m))
    if not qualifying:
        return ZERO
    d = max(dim for _, dim, _ in qualifying)
    top = [(mask, mass) for mask, dim, mass in qualifying if dim == d]

    best = ExtRat(0)
    seen = set()

    def extend(used: int, total: ExtRat):
        nonlocal best
        if total > best:
            best = total
        key = (used, total)
        if key in seen:
            return
        seen.add(key)
        for mask, mass in top:
            if not mask & used:
                extend(used | mask, total + mass)

    extend(0, ExtRat(0))
    return HValue(d, best)


def graded_integral(space, f) -> HValue:
    """Integral of a function whose dimension coordinate is constant.

    The evaluation shifts the lifted ordinary integral of the mass
    coordinate by the shared dimension; it must agree with the general
    integral.
    """
    if isinstance(f, SimpleFn):
        dims = {coeff.d for coeff, _ in f.pieces if not coeff.is_zero}
        if len(dims) > 1:
            raise ValueError("dimension coordinate is not constant")
        return integrate_simple(space, f)
    if not isinstance(space, IntervalSpace):
        raise UnsupportedExpressionError("graded piecewise functions need an interval space")
    dims = {p.pi1 for p in f.pieces}
    if len(dims) > 1 or any(not (isinstance(e, exprs.Poly) and e.degree == 0) for e in dims):
        raise ValueError("dimension coordinate is not constant")
    d = dims.pop().coeffs[0] if dims else Fraction(0)
    gaps, _ = _uncovered(space, f)
    if d > 0 and gaps:
        raise ValueError(f"a positive-dimension graded function must cover the space: {gaps}")
    nu_total = space.nu(IntervalSet.of([(p.lo, p.hi) for p in f.pieces]))
    mass = sum((space.integral(p.pi2, p.lo, p.hi) for p in f.pieces), Fraction(0))
    if nu_total == 0 or (d == 0 and mass == 0):
        return ZERO
    return HValue(space.dim_offset + d, ExtRat(mass))


def integrate_ordinary(space: AtomSpace, f: SimpleFn) -> HValue:
    """The ordinary-measure evaluation for a dimension-0 embedding:
    (ess sup of the dimension coordinate, mass summed over the atoms
    where that supremum is attained)."""
    live = [a for a in space.atoms if space.weights[a] != ZERO]
    if any(space.weights[a].d != 0 for a in live):
        raise ValueError("ordinary evaluation needs a dimension-0 embedding")
    if not live:
        return ZERO
    s = max(f.value_at(a).d for a in live)
    m = ExtRat(0)
    for a in live:
        v = f.value_at(a)
        if v.d == s:
            m = m + v.m * space.weights[a].m
    if s == 0 and m.sign() == 0:
        return ZERO
    return HValue(s, m)


# ---------------------------------------------------------------------------
# integral laws
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)  # n <= 6: at most 279 partitions in all
def _partitions(n: int) -> Tuple[Tuple[list, Tuple[Tuple[int, int], ...], int], ...]:
    """The set partitions of range(n) in :func:`all_partitions` order, each
    as its blocks' index lists, the steps of its left fold over its blocks'
    bit masks and the node that holds its sum.  A node is a prefix of some
    partition's masks, numbered in order of first appearance from node 0,
    the empty prefix; a step (parent, mask) adds the block mask to the
    parent's sum and makes the next node.  A partition's steps are the
    prefixes no earlier partition has, so each is summed once: 405 sums for
    the 674 blocks of the 203 partitions of 6 atoms."""
    nodes = {(): 0}
    out = []
    for part in all_partitions(tuple(range(n))):
        masks = tuple(sum(1 << k for k in block) for block in part)
        steps = []
        for j in range(len(masks)):
            if masks[: j + 1] not in nodes:
                nodes[masks[: j + 1]] = len(nodes)
                steps.append((nodes[masks[:j]], masks[j]))
        out.append((part, tuple(steps), nodes[masks]))
    return tuple(out)


def _unsummed(target: HValue, parts, sets: list, value_of: Callable[[AtomSet], HValue]):
    """The index lists of the first partition in parts whose blocks' values
    do not sum_finite to target, or None.  A block's value is
    value_of(sets[mask]), computed on its first lookup, and a prefix's sum
    on its first partition: the same fold, in the same order, as a
    sum_finite per partition."""
    values = [None] * len(sets)
    sums = [ZERO]
    for part, steps, node in parts:
        for parent, mask in steps:
            v = values[mask]
            if v is None:
                v = values[mask] = value_of(sets[mask])
            sums.append(add(sums[parent], v))
        if target != sums[node]:
            return part
    return None


def scaled_embedding(d0, base: Mapping) -> AtomSpace:
    """Lift an ordinary measure on atoms, a mapping atom -> nonnegative
    scalar mass, to an h-measure space: sets of positive ordinary measure
    get ``(d0, mass)``; nonempty null sets get ``(0, 0)``.  The interval
    counterpart is :meth:`IntervalSpace.of`."""
    d0 = as_fraction(d0)
    if d0 < 0:
        raise ValueError("dim_offset must be nonnegative")
    weights = {}
    for name, nu in base.items():
        nu = as_ext(nu)
        if nu.sign() < 0:
            raise ValueError(f"negative mass for atom {name!r}")
        weights[name] = HValue(d0, nu) if nu.sign() > 0 else ZERO
    return AtomSpace.of(weights)


def check_integral_laws(
    trials: int,
    seed: int = 0,
    measure_fn: Optional[Callable] = None,
    integrate_fn: Optional[Callable] = None,
) -> LawReport:
    """Integral laws on random atom spaces with exhaustive partition
    coverage; see the module docstring for the independence principle.

    The two sigma-additivity laws sum the measure and the restricted
    integral over every block of every partition (all 203 partitions of
    a 6-atom set, 674 blocks), but each distinct block (at most 63) is
    evaluated once per trial, on its first lookup, and its value reused
    by every partition holding it; each distinct prefix of a partition's
    blocks is summed once (see :func:`_partitions`).  The partitions are
    built once per atom count, a block as the bit mask of its atoms'
    indices, and the values are cached by mask for one trial alone;
    ``brute_force_integral`` keeps its own enumeration.  An injected
    ``measure_fn`` or ``integrate_fn`` must be deterministic, a function
    of its arguments alone; then a cached value is the value each
    partition would have recomputed, and a cache cannot hide a
    violation.  The laws check :func:`integrate`'s value;
    ``integrate_fn`` replaces it only to inject a mutant.
    """
    measure_fn = measure_fn or (lambda sp, s: sp.measure(s))
    value_fn = integrate_fn or (lambda sp, g: integrate(sp, g)[0])
    report = LawReport(
        "integral", trials, _trial_seed(seed, 0), _trial_seed(seed, max(trials - 1, 0))
    )
    for i in range(trials):
        ts = _trial_seed(seed, i)
        rng = random.Random(ts)
        n = _randint(rng, 1, 6)
        space = random_atom_space(rng, n)
        f = random_simple_fn(rng, space)
        g = random_simple_fn(rng, space)
        F = value_fn(space, f)
        G = value_fn(space, g)

        if value_fn(space, pointwise_add_fn(f, g)) != add(F, G):
            report.record("additivity", ts, f=F, g=G)

        c = _random_rat(rng, signed=False)
        cf = SimpleFn.of([(scalar_mul(c, v), s) for v, s in f.pieces if not scalar_mul(c, v).is_zero])
        if value_fn(space, cf) != scalar_mul(c, F):
            report.record("homogeneity", ts, c=c, f=F)

        minor = SimpleFn.of(
            [
                (v, s)
                for v, s in f.pieces
                if rng.random() < 0.7
            ]
        )
        if not value_fn(space, minor) <= F:
            report.record("monotonicity", ts, f=F)

        pointwise_zero = all(
            mul(f.value_at(a), space.weights[a]) == ZERO for a in space.atoms
        )
        if (F == ZERO) != pointwise_zero:
            report.record("zero-law", ts, f=F)

        atoms = space.atoms
        sets = [AtomSet(frozenset(a for k, a in enumerate(atoms) if m >> k & 1)) for m in range(1 << n)]
        whole = measure_fn(space, space.full_set())
        for law, target, value_of in (
            ("measure-sigma-additivity", whole, lambda s: measure_fn(space, s)),
            ("indefinite-sigma-additivity", F, lambda s: value_fn(space, restrict(f, s))),
        ):
            part = _unsummed(target, _partitions(n), sets, value_of)
            if part is not None:
                report.record(law, ts, partition=[[atoms[k] for k in block] for block in part])

        brute = brute_force_integral(space, f)
        if brute != F:
            report.record("sup-characterization-agreement", ts, f=F, brute=brute)

        masses = {a: abs(_random_rat(rng, signed=False)) for a in space.atoms}
        space0 = scaled_embedding(0, masses)
        f0 = random_simple_fn(rng, space0)
        if integrate_ordinary(space0, f0) != value_fn(space0, f0):
            report.record("ordinary-agreement", ts, f=integrate_ordinary(space0, f0))

        gap = minorant_sample_check(space, f, 5, ts, integrate_fn)
        if not gap.ok:
            first = {k: v for k, v in gap.violations[0].items() if k != "law"}
            report.record("isimple-minorant", ts, detail=first)
    return report


# ---------------------------------------------------------------------------
# minorant sampling and the approximation gap
# ---------------------------------------------------------------------------


def random_isimple_minorant(rng: random.Random, space: AtomSpace, f: SimpleFn) -> SimpleFn:
    """A random i-simple g with (0,0) <= g <= f pointwise."""
    pieces = []
    for a in space.atoms:
        v = f.value_at(a)
        roll = rng.random()
        if roll < 0.25 or v.is_zero:
            continue
        if roll < 0.5 and v.d > 0:
            d = _quarters(v.d, _randint(rng, 0, 3))  # at most 3/4 of v.d, so below it
            m = INF if rng.random() < 0.25 else _randint(rng, 0, 100)
            pieces.append((HValue.of(d, m), AtomSet.of(a)))
            continue
        m_cap = v.m
        if m_cap.is_finite:
            m = _quarters(m_cap.frac, _randint(rng, 0, 4))
            pieces.append((HValue.of(v.d, m), AtomSet.of(a)))
        else:
            pieces.append((HValue.of(v.d, _randint(rng, 0, 100)), AtomSet.of(a)))
    return SimpleFn.of(pieces, i_simple=True)


def _quarters(q: Fraction, k: int) -> Fraction:
    """q * k/4, reduced once."""
    return Fraction(q.numerator * k, q.denominator * 4)


def minorant_sample_check(
    space: AtomSpace,
    f: SimpleFn,
    samples: int,
    seed: int = 0,
    integrate_fn: Optional[Callable] = None,
) -> LawReport:
    """Random i-simple minorants integrate below the integral, and the
    function itself attains the supremum.

    The attainment check (reported as sample -1) together with the
    per-sample bound means a clean report has the integral of f as the
    largest value seen.  The minorants and f itself are integrated by
    :func:`integrate`; ``integrate_fn``, which exists for mutants,
    replaces only the target they are held to.
    """
    attained = integrate(space, f)[0]
    target = integrate_fn(space, f) if integrate_fn else attained
    rng = random.Random(seed)
    report = LawReport("minorant", samples, seed, seed)

    def violation(sample: int, got: HValue):
        report.violations.append(
            {
                "law": "isimple-minorant",
                "sample": sample,
                "seed": seed,
                "minorant": str(got),
                "target": str(target),
            }
        )

    for i in range(samples):
        got = integrate(space, random_isimple_minorant(rng, space, f))[0]
        if not got <= target:
            violation(i, got)
    if attained != target:
        violation(-1, attained)
    return report


@dataclass(frozen=True)
class ApproxGapWitness:
    x: Fraction
    checks: Tuple[Tuple[str, str], ...]  # (chain value at x, verdict)


def approx_gap_witness(chain: Sequence[SimpleFn]) -> ApproxGapWitness:
    """A rational x in (0,1) whose diagonal value (x,x) no chain member
    can approach: every simple function misses the open interval
    ((x,0), (x,1)) at x, because only countably many dimensions occur
    in the chain's ranges."""
    used = {
        coeff.d for g in chain for coeff, _ in g.pieces
    }
    x = None
    for den in range(2, 10_000):
        for num in range(1, den):
            cand = Fraction(num, den)
            if cand not in used:
                x = cand
                break
        if x is not None:
            break
    assert x is not None  # the used set is finite
    lo = HValue(x, ExtRat(0))
    hi = HValue(x, ExtRat(1))
    checks = []
    for g in chain:
        v = g.value_at(x)
        inside = lo < v < hi
        if inside:
            raise AssertionError(f"chain member takes value {v} inside the gap at {x}")
        checks.append((str(v), "outside"))
    return ApproxGapWitness(x, tuple(checks))


# ---------------------------------------------------------------------------
# documented mutants (test fixtures for detection checks)
# ---------------------------------------------------------------------------


def mutant_add_drops_dominance(a: HValue, b: HValue) -> HValue:
    """Broken add: always sums masses, ignoring dimension dominance."""
    return HValue(max(a.d, b.d), a.m + b.m)


def mutant_measure_non_additive(space: AtomSpace, s: AtomSet) -> HValue:
    """Broken measure: inflates every set of 2 or more atoms at its own
    top dimension (so the inflation is never swallowed by dominance)."""
    v = space.measure(s)
    if len(s.atoms) >= 2:
        return HValue(v.d, v.m + ExtRat(1))
    return v


def mutant_integrate_drops_atom(space: AtomSpace, f: SimpleFn) -> HValue:
    """Broken integral: silently ignores the first atom of the space."""
    rest = restrict(f, AtomSet(frozenset(space.atoms[1:])))
    return integrate(space, rest)[0]
