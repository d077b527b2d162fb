"""Seeded input generators for the hintegral benchmark.

Plain Python and :mod:`fractions` only: this module never imports
``hintegral``, so generating inputs cannot call into the code under test
and only the package's own import cost can move the benchmark's set-up
time.  Every generator returns JSON-ready objects together with the
expected answer, derived here from its closed form.

Sizes are stratified: each *cycle* of a workload holds a fixed ladder
of size strata and request kinds, and the seed picks the values inside
each stratum, the contents and the order.  Every seed therefore sees the
same mix of work, which keeps run-to-run spread small while the inputs
themselves differ.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

INF = "inf"

# ---------------------------------------------------------------------------
# the value semiring, independently of hintegral.hvalue
# ---------------------------------------------------------------------------


def v_zero():
    return (Fraction(0), Fraction(0))


def v_is_zero(v) -> bool:
    return v[0] == 0 and v[1] == 0


def m_add(a, b):
    if a == INF or b == INF:
        return INF
    return a + b


def m_mul(a, b):
    if a == 0 or b == 0:
        return Fraction(0)
    if a == INF or b == INF:
        return INF
    return a * b


def v_add(a, b):
    """Dominance sum of two nonnegative values."""
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return (a[0], m_add(a[1], b[1]))


def v_mul(a, b):
    if v_is_zero(a) or v_is_zero(b):
        return v_zero()
    return (a[0] + b[0], m_mul(a[1], b[1]))


def v_sum(values):
    total = v_zero()
    for v in values:
        total = v_add(total, v)
    return total


def v_str(v) -> str:
    """The canonical ``(d, m)`` text hintegral prints for a value."""
    return f"({v[0]}, {v[1]})"


def rat(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    """A rational in [lo, hi] on the grid 1/den."""
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_value(rng: random.Random, max_d: int = 3, allow_inf: bool = False):
    d = rat(rng, 0, max_d, rng.choice((1, 2, 3, 4)))
    if allow_inf and rng.random() < 0.1:
        return (d, INF)
    return (d, rat(rng, 0, 20, rng.choice((1, 2, 5, 7))))


def stratified(rng: random.Random, lo: int, hi: int, strata: int):
    """One integer from each of ``strata`` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / strata
    return [lo + int(width * k + rng.random() * width) for k in range(strata)]


def log_stratified(rng: random.Random, lo: int, hi: int, strata: int):
    """One integer from each of ``strata`` log-equal slices of [lo, hi]."""
    ratio = (hi / lo) ** (1 / strata)
    return [int(lo * ratio ** (k + rng.random())) for k in range(strata)]


# ---------------------------------------------------------------------------
# interval spaces and piecewise functions
# ---------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_integral(coeffs, lo, hi):
    return sum(
        (c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs)),
        Fraction(0),
    )


def _expr(kind, **fields):
    def text(v):
        return [str(c) for c in v] if isinstance(v, list) else str(v)

    return {"kind": kind, **{k: text(v) for k, v in fields.items()}}


def _shuffled(rng: random.Random, count: int, shares):
    """``count`` labels in the exact proportions ``shares``, shuffled."""
    labels = []
    for label, share in shares:
        labels += [label] * round(count * share)
    labels = (labels + [shares[0][0]] * count)[:count]
    rng.shuffle(labels)
    return labels


DIM_SHARES = (("lower", 0.4), ("affine", 0.35), ("pow", 0.25))
MASS_SHARES = (("const", 0.3), ("affine", 0.3), ("poly", 0.3), ("pow", 0.1))
TOP_SHARE = 0.1
POLY_MASSES = ((Fraction(1), Fraction(0), Fraction(1)), (Fraction(1, 4), Fraction(-1), Fraction(1)))  # 1+x^2, (x-1/2)^2


def interval_case(rng: random.Random, pieces: int, poly_tops: int = 0, h: int = 1, degree: int = 0):
    """A piecewise function over an interval space and its exact integral.

    The space is (0, h**2) with a positive density of the given degree.
    Cut points are squares of rationals r, so ``x**(1/2)`` has a rational
    supremum on every piece.  A tenth of the pieces (at least one, and
    at least ``poly_tops``) are tied at the top constant dimension
    ``c_top``; the rest are lower constants, affine maps and
    ``x**(1/2)``, all strictly below ``c_top``.  The integral is
    therefore ``(dim_offset + c_top, M)`` with ``M`` the exact integral
    of mass times density over the tied pieces.

    Exactly ``poly_tops`` tied pieces carry a polynomial mass: those are
    the pieces whose certificate needs Lipschitz bisection, the cost
    that dominates this function.  Other coordinate kinds come in exact
    proportions, so two seeds give the same amount of work for the same
    arguments.  Tied power masses only appear over a constant density:
    over a degree-k density their mass integral needs ``hi**(k + 3/2)``,
    whose numerators pass 2**106 at a few hundred pieces, where the
    float guess in ``exprs.int_nth_root`` fails.  That defect is measured
    by the large-bit convexity requests of the ``scenarios`` workload.
    """
    c_top = h + 1 + Fraction(rng.randint(0, 7), 8)
    dim_offset = Fraction(rng.randint(0, 8), 4)
    density = [rat(rng, 1, 3, 2)] + [rat(rng, 1, 6, 3) for _ in range(degree)]

    gaps = pieces // 8
    grid = 4 * pieces + 4
    js = sorted(rng.sample(range(grid + 1), pieces + gaps + 1))
    roots = [Fraction(h * j, grid) for j in js]
    spans = list(zip(roots, roots[1:]))
    for k in sorted(rng.sample(range(len(spans)), gaps), reverse=True):
        del spans[k]

    tops = max(1, poly_tops, round(pieces * TOP_SHARE))
    other_tops = (("const", 0.4), ("affine", 0.4), ("pow", 0.2)) if degree == 0 else (("const", 0.5), ("affine", 0.5))
    dims = ["top"] * tops + _shuffled(rng, pieces - tops, DIM_SHARES)
    masses = (
        ["poly"] * poly_tops
        + _shuffled(rng, tops - poly_tops, other_tops)
        + _shuffled(rng, pieces - tops, MASS_SHARES)
    )
    order = list(range(pieces))
    rng.shuffle(order)

    out_pieces = [None] * pieces
    top_mass = Fraction(0)
    for k, (r_lo, r_hi) in zip(order, spans):
        lo, hi = r_lo * r_lo, r_hi * r_hi
        if dims[k] == "top":
            pi1 = _expr("const", value=c_top)
        elif dims[k] == "lower":
            pi1 = _expr("const", value=c_top * rng.randint(0, 15) / 16)
        elif dims[k] == "affine":
            v_lo = c_top * rng.randint(0, 15) / 16
            v_hi = c_top * rng.randint(0, 15) / 16
            b = (v_hi - v_lo) / (hi - lo)
            pi1 = _expr("affine", a=v_lo - b * lo, b=b)
        else:
            pi1 = _expr("pow", q=Fraction(1, 2))

        if masses[k] == "const":
            mass = [rat(rng, 1, 6, rng.choice((1, 2, 3)))]
            pi2 = _expr("const", value=mass[0])
        elif masses[k] == "affine":
            m_lo, m_hi = rat(rng, 0, 4, 2), rat(rng, 1, 4, 2)
            b = (m_hi - m_lo) / (hi - lo)
            mass = [m_lo - b * lo, b]
            pi2 = _expr("affine", a=mass[0], b=mass[1])
        elif masses[k] == "poly":
            mass = list(rng.choice(POLY_MASSES))
            pi2 = _expr("poly", coeffs=mass)
        else:
            mass = None
            pi2 = _expr("pow", q=Fraction(1, 2))

        if dims[k] == "top":
            if mass is None:  # x**(1/2) over a constant density c: c * (2/3) r**3
                top_mass += density[0] * Fraction(2, 3) * (r_hi**3 - r_lo**3)
            else:
                top_mass += _poly_integral(_poly_mul(mass, density), lo, hi)
        out_pieces[k] = {"set": {"intervals": [[str(lo), str(hi)]]}, "pi1": pi1, "pi2": pi2}

    out_pieces.sort(key=lambda p: Fraction(p["set"]["intervals"][0][0]))
    space = {
        "kind": "interval",
        "bounds": ["0", str(h * h)],
        "dim_offset": str(dim_offset),
        "density": [str(c) for c in density],
    }
    value = v_str((dim_offset + c_top, top_mass))
    return space, {"pieces": out_pieces}, value


# ---------------------------------------------------------------------------
# atom and catalog spaces with simple functions
# ---------------------------------------------------------------------------


def atom_case(rng: random.Random):
    n = rng.randint(2, 8)
    names = [f"a{k}" for k in range(n)]
    weights = {a: (v_zero() if rng.random() < 0.15 else rand_value(rng)) for a in names}
    used = [a for a in names if rng.random() < 0.8] or names[:1]
    rng.shuffle(used)
    pieces, value = [], v_zero()
    while used:
        size = rng.randint(1, 3)
        group, used = used[:size], used[size:]
        coeff = rand_value(rng)
        if v_is_zero(coeff):
            continue
        pieces.append({"coeff": v_str(coeff), "set": {"atoms": sorted(group)}})
        value = v_add(value, v_mul(coeff, v_sum(weights[a] for a in sorted(group))))
    space = {"kind": "atoms", "atoms": {a: v_str(w) for a, w in weights.items()}}
    return space, {"simple": pieces}, v_str(value)


def _catalog_value(rng: random.Random, ambient: int):
    d = rat(rng, 0, ambient, rng.choice((1, 2, 4)))
    if d == 0:
        return (d, INF if rng.random() < 0.2 else Fraction(rng.randint(1, 9)))
    return (d, INF if rng.random() < 0.1 else rat(rng, 1, 20, rng.choice((1, 3))))


def catalog_case(rng: random.Random):
    n = rng.randint(2, 8)
    sets = []
    for k in range(n):
        ambient = rng.randint(1, 3)
        sets.append({
            "name": f"s{k}",
            "ambient": ambient,
            "hvalue": _catalog_value(rng, ambient),
            "set_kind": rng.choice(("declared", "segment", "self-similar", "countable")),
        })
    names = [s["name"] for s in sets if rng.random() < 0.8] or [sets[0]["name"]]
    rng.shuffle(names)
    declared = {s["name"]: s["hvalue"] for s in sets}
    pieces, value = [], v_zero()
    while names:
        size = rng.randint(1, 3)
        group, names = names[:size], names[size:]
        coeff = rand_value(rng)
        if v_is_zero(coeff):
            continue
        pieces.append({"coeff": v_str(coeff), "set": {"catalog": group}})
        value = v_add(value, v_mul(coeff, v_sum(declared[g] for g in group)))
    space = {"kind": "catalog", "sets": [{**s, "hvalue": v_str(s["hvalue"])} for s in sets]}
    return space, {"simple": pieces}, v_str(value)


# ---------------------------------------------------------------------------
# deficiency scenarios
# ---------------------------------------------------------------------------


def continuity_case(rng: random.Random, jumps: int):
    xs = sorted(rng.sample(range(-50 * jumps - 50, 50 * jumps + 50), jumps))
    out, value = [], v_zero()
    for x in xs:
        rem = v_zero() if rng.random() < 0.1 else rand_value(rng, allow_inf=True)
        out.append({"x": str(Fraction(x, 7)), "remainder": v_str(rem)})
        value = v_add(value, v_mul(rem, (Fraction(0), Fraction(1))))
    scenario = {"kind": "continuity", "jumps": out}
    if rng.random() < 0.3:
        mu = rng.choice([
            (Fraction(1), INF), (Fraction(1), Fraction(2)),
            (Fraction(0), INF), (Fraction(1, 2), Fraction(3)),
        ])
        rem = rand_value(rng, max_d=1)
        scenario["global"] = {"name": "rest", "hvalue": v_str(mu), "remainder": v_str(rem)}
        value = v_add(value, v_mul(rem, mu))
    return scenario, v_str(value)


def _circle_angles(rng: random.Random, count: int):
    """Distinct half-angle tangents t in (-1, 1); each gives the rational
    angle a with cos a = (1-t^2)/(1+t^2), sin a = 2t/(1+t^2)."""
    seen, ts = set(), []
    while len(ts) < count:
        q = rng.randint(1, 16)
        t = Fraction(rng.randint(-q + 1, q - 1), q)
        if t not in seen:
            seen.add(t)
            ts.append(t)
    return [((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]


def convexity_case(rng: random.Random, points: int, scaled: bool):
    """Points at double rational angles on the unit circle.

    The point for angle a is (cos 2a, sin 2a); the chord between two of
    them is 2|sin(a1 - a2)|, rational because a1 and a2 have rational
    sine and cosine.  A scaled case multiplies every coordinate by an
    odd integer near 2**48, so every distance scales by it too.
    """
    scale = 2**48 + 2 * rng.randint(0, 2**20) + 1 if scaled else 1
    angles = _circle_angles(rng, points)
    pts = [((c * c - s * s) * scale, 2 * c * s * scale) for c, s in angles]
    total = Fraction(0)
    for i, (c1, s1) in enumerate(angles):
        for j, (c2, s2) in enumerate(angles):
            if i != j:
                total += 2 * abs(s1 * c2 - c1 * s2) * scale
    scenario = {"kind": "convexity", "points": [[str(x), str(y)] for x, y in pts]}
    return scenario, v_str((Fraction(1), total))


PRIMITIVE_SHARES = (("point", 0.4), ("line", 0.2), ("segment", 0.4))
PYTHAGOREAN = ((1, 0), (0, 1), (3, 4), (4, -3), (5, 12), (-12, 5), (8, 15), (15, -8), (7, 24))


def normalized_line(p, q) -> str:
    """The ``a*x + b*y = c`` text of the line through p and q, normalized
    to coprime integers with a > 0, or a == 0 and b > 0."""
    a = q[1] - p[1]
    b = p[0] - q[0]
    c = a * p[0] + b * p[1]
    den = 1
    for f in (a, b, c):
        den = den * f.denominator // gcd(den, f.denominator)
    ai, bi, ci = int(a * den), int(b * den), int(c * den)
    g = gcd(gcd(abs(ai), abs(bi)), abs(ci)) or 1
    ai, bi, ci = ai // g, bi // g, ci // g
    if ai < 0 or (ai == 0 and bi < 0):
        ai, bi, ci = -ai, -bi, -ci
    return f"{ai}*x + {bi}*y = {ci}"


def _point(rng: random.Random):
    return tuple(rat(rng, -10, 10, rng.choice((1, 2, 4, 8))) for _ in range(2))


def lineness_case(rng: random.Random, primitives: int, candidates: int):
    """Points, lines and segments in exact proportions; segments and
    candidate lines run along Pythagorean directions so every length the
    reduction needs is rational.  The expected answer is that the best
    line is one of the candidates."""
    prims = []
    for kind in _shuffled(rng, primitives, PRIMITIVE_SHARES):
        p = _point(rng)
        if kind == "point":
            prims.append({"type": "point", "p": [str(c) for c in p]})
            continue
        if kind == "line":
            u, v = rng.randint(-5, 5), rng.randint(-5, 5)
        else:
            u, v = rng.choice(PYTHAGOREAN)
        if u == 0 and v == 0:
            u = 1
        k = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))
        q = (p[0] + k * u, p[1] + k * v)
        prims.append({"type": kind, "p": [str(c) for c in p], "q": [str(c) for c in q]})
    cands, names = [], []
    for _ in range(candidates):
        p = _point(rng)
        u, v = rng.choice(PYTHAGOREAN)
        q = (p[0] + u, p[1] + v)
        cands.append({"p": [str(c) for c in p], "q": [str(c) for c in q]})
        names.append(normalized_line(p, q))
    return {"kind": "lineness", "primitives": prims, "candidates": cands}, sorted(set(names))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def rng_for(workload: str, seed: int, cycle: int = 0) -> random.Random:
    return random.Random(f"hintegral-bench/{workload}/{seed}/{cycle}")


# laws: each operation runs the two law suites through the CLI with a
# fresh suite seed.  Why: hvalue arithmetic, the oracle's brute force and
# the atom-space certificates that the suite discards do most of the
# work here.  It never touches polynomial bounds or deficiency.
#
# An operation's cost is mostly its 6-atom integral trials (exhaustive
# partitions of 6 atoms): 0 to 4 of the T/10 trials, binomial with p 1/6.
# Drawn freely, half the operations have at most one, so the median
# latency sat between two clusters and moved by 10% from seed to seed.
# Every cycle therefore holds the same ladder of 6-atom trial counts, in
# the binomial's proportions (mean 5/3), with the median and the 90th
# percentile inside a block of like operations.  Each slot's suite seed
# is drawn until its trials have the slot's count.
LAWS_TRIALS = 100
LAWS_SIX_ATOM_LADDER = (0, 1, 1, 1, 2, 2, 2, 3, 3)


def six_atom_trials(suite_seed: int, trials: int) -> int:
    """How many of the integral law suite's ``trials`` trials draw a
    6-atom space.  Trial i seeds random.Random((suite_seed << 24) + i)
    (the suite's reported seed_range) and draws its atom count first, as
    randint(1, 6); the self-tests check this against the suite itself."""
    return sum(random.Random((suite_seed << 24) + i).randint(1, 6) == 6 for i in range(trials))


def laws_cycle(seed: int, cycle: int):
    rng = rng_for("laws", seed, cycle)
    integral_trials = max(LAWS_TRIALS // 10, 1)
    ops = []
    for target in LAWS_SIX_ATOM_LADDER:
        suite_seed = rng.randrange(1, 2**31)
        while six_atom_trials(suite_seed, integral_trials) != target:
            suite_seed = rng.randrange(1, 2**31)
        argv = ["laws", "--trials", str(LAWS_TRIALS), "--seed", str(suite_seed), "--json"]
        ops.append({"argv": argv, "trials": LAWS_TRIALS})
    rng.shuffle(ops)
    return ops


# interval: parse, integrate, serialise the certificate and verify it.
# Why: integral._poly_lower bisection and the quadratic _piece_covering
# lookup in verification dominate here and nowhere else.  Every cycle
# holds the same 15 slots (pieces, tied polynomial masses, space size h,
# density degree), piece counts from a handful to a few hundred.  Cost
# rises along the slots; the 7th-9th and the 11th-13th slots are three
# copies each, so the median and the 75th percentile of the latencies
# fall inside a block of like operations rather than between two sizes.
INTERVAL_SLOTS = (
    (4, 0, 1, 0), (5, 0, 2, 1), (7, 0, 3, 2), (10, 0, 1, 0), (13, 0, 2, 1), (17, 0, 3, 2),
    (31, 1, 2, 1), (31, 1, 2, 1), (31, 1, 2, 1),
    (56, 3, 1, 0),
    (100, 6, 3, 2), (100, 6, 3, 2), (100, 6, 3, 2),
    (179, 10, 2, 1), (240, 12, 1, 0),
)


def interval_cycle(seed: int, cycle: int):
    rng = rng_for("interval", seed, cycle)
    slots = list(INTERVAL_SLOTS)
    rng.shuffle(slots)
    ops = []
    for n, poly_tops, h, degree in slots:
        space, fn, value = interval_case(rng, n, poly_tops, h, degree)
        ops.append({"space": space, "function": fn, "value": value, "pieces": n})
    return ops


# scenarios: a mixed stream of small-to-medium user requests through the
# CLI on files written before each cycle.  Why: argparse, JSON parsing, space
# building and deficiency do most of the work; certificates are built
# and printed, so skipping them elsewhere must not slow this down.  One
# convexity request in five carries coordinates scaled near 2**48
# (coordinate bit-length is a varied property).  Scaled requests have at
# least 12 points: with 2 or 3 points the float root guess in
# exprs.int_nth_root sometimes lands on every pair, so whether such a
# request fails would depend on the seed.  With 12 or more (66 pairs and
# up) none was seen to pass (none of 3000 at 8 points did), so the
# failure count is the same for every seed until that defect is fixed.
SCENARIO_MIX = (
    ("eval-atoms", 2), ("eval-catalog", 2), ("eval-interval", 2),
    ("continuity", 4), ("convexity", 4), ("convexity-scaled", 1), ("lineness", 6),
)


def scenario_cycle(seed: int, cycle: int):
    rng = rng_for("scenarios", seed, cycle)
    sizes = {
        "eval-interval": stratified(rng, 1, 8, 2),
        "continuity": stratified(rng, 0, 200, 4),
        "convexity": stratified(rng, 2, 40, 4),
        "convexity-scaled": stratified(rng, 12, 40, 1),
        # the two costliest requests of a cycle are lineness requests
        # drawn alike from the top of the range, so the 95th latency
        # percentile (one request in twenty) falls inside that block
        # rather than on its edge
        "lineness": stratified(rng, 10, 169, 4) + [rng.randint(170, 200) for _ in range(2)],
    }
    # two candidates for the two largest lineness requests, then
    # alternating, so the costliest requests form one continuous range
    candidates = [1, 1, 2, 1, 2, 2]
    kinds = [k for k, n in SCENARIO_MIX for _ in range(n)]
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        if kind.startswith("eval"):
            if kind == "eval-atoms":
                space, fn, value = atom_case(rng)
            elif kind == "eval-catalog":
                space, fn, value = catalog_case(rng)
            else:
                n, h, degree = sizes[kind].pop(), rng.randint(1, 3), rng.randint(0, 2)
                space, fn, value = interval_case(rng, n, 0, h, degree)
            ops.append({"kind": kind, "files": [space, fn],
                        "flags": ["--certificate", "--json"], "value": value})
        elif kind == "lineness":
            scenario, lines = lineness_case(rng, sizes[kind].pop(), candidates.pop())
            ops.append({"kind": kind, "files": [scenario], "flags": ["--json"], "lines": lines})
        else:
            if kind == "continuity":
                scenario, value = continuity_case(rng, sizes[kind].pop())
            else:
                scenario, value = convexity_case(rng, sizes[kind].pop(), kind.endswith("scaled"))
            ops.append({"kind": kind, "files": [scenario], "flags": ["--json"], "value": value})
    return ops


CYCLES = {"laws": laws_cycle, "interval": interval_cycle, "scenarios": scenario_cycle}


def workload_ops(workload: str, seed: int, cycles: int):
    """The first ``cycles`` cycles of a workload's operation stream."""
    return [op for c in range(cycles) for op in CYCLES[workload](seed, c)]
