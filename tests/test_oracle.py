"""Oracle tests: generator contracts, law suites, exhaustive coverage,
minorant sampling, the approximation gap, detection of the three
documented mutants and of a mutant of integrate, and the boundary
between the production modules and this test machinery."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import hintegral
from hintegral import cli
from hintegral.hvalue import INF, ExtRat, HValue, ZERO, add, sum_finite
from hintegral.space import AtomSet, AtomSpace, IntervalSet
from hintegral.integral import SimpleFn, integrate, integrate_simple, restrict
from hintegral.oracle import (
    _partitions,
    _randint,
    _random_rat,
    _unsummed,
    all_partitions,
    approx_gap_witness,
    brute_force_integral,
    check_algebra_laws,
    check_integral_laws,
    minorant_sample_check,
    mutant_add_drops_dominance,
    mutant_integrate_drops_atom,
    mutant_measure_non_additive,
    random_atom_space,
    random_hvalue,
    random_isimple_minorant,
    random_simple_fn,
)

H = HValue.of


class TestGenerators:
    def test_deterministic(self):
        assert random_hvalue(17, "signed") == random_hvalue(17, "signed")
        assert random_atom_space(17, 4) == random_atom_space(17, 4)

    def test_nonneg_profile(self):
        for seed in range(200):
            v = random_hvalue(seed, "nonneg")
            assert v.d >= 0 and v.m.sign() >= 0 and v.m.is_finite

    def test_signed_profile_reaches_negatives_and_infinities(self):
        vals = [random_hvalue(seed, "signed") for seed in range(1000)]
        assert any(v.m.sign() < 0 and v.m.is_finite for v in vals)
        assert any(not v.m.is_finite for v in vals)

    def test_with_infinities_profile(self):
        vals = [random_hvalue(seed, "with-infinities") for seed in range(500)]
        assert all(v.m.sign() >= 0 for v in vals)
        assert any(not v.m.is_finite for v in vals)

    def test_magnitude_caps(self):
        for seed in range(300):
            v = random_hvalue(seed, "signed")
            assert v.d.numerator <= 100 and v.d.denominator <= 100
            if v.m.is_finite:
                assert abs(v.m.frac.numerator) <= 100
                assert v.m.frac.denominator <= 100

    def test_atom_space_size_cap(self):
        with pytest.raises(ValueError):
            random_atom_space(0, 7)

    @pytest.mark.parametrize("profile", ["nonneg", "signed", "with-infinities"])
    def test_draws_match_the_fraction_reference(self, profile):
        # same values from the same randint/random calls: each rng ends in the same state
        for seed in range(3000):
            rng, ref = random.Random(seed), random.Random(seed)
            v, expected = random_hvalue(rng, profile), reference_hvalue(ref, profile)
            assert (v, str(v), hash(v), v.d) == (expected, str(expected), hash(expected), expected.d)
            assert type(v.d) is F and rng.getstate() == ref.getstate()
            for signed in (False, True):
                x, y = _random_rat(rng, signed), reference_rat(ref, signed)
                assert type(x) is F and (x, hash(x), str(x)) == (y, hash(y), str(y))
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("lo, hi", [(0, 100), (1, 100), (1, 6), (0, 4), (0, 3)])
    def test_randint_draws_as_random_randint(self, lo, hi):
        # the value and the generator's state after it, for every range the suites draw;
        # _random_pair's two inlined draws are checked against randint above
        seen = set()
        for seed in range(3000):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                got = _randint(rng, lo, hi)
                assert got == ref.randint(lo, hi) and rng.getstate() == ref.getstate()
                seen.add(got)
        assert seen == set(range(lo, hi + 1))


def reference_rat(rng, signed):
    """The draw of a random rational, built through Fraction."""
    num = rng.randint(0, 100)
    if signed and rng.random() < 0.5:
        num = -num
    return F(num, rng.randint(1, 100))


def reference_hvalue(rng, profile):
    """The draw of a random value, built through Fraction, ExtRat and HValue."""
    d = reference_rat(rng, signed=False)
    if profile == "nonneg":
        return HValue(d, ExtRat(reference_rat(rng, signed=False)))
    if profile == "signed":
        if rng.random() < 0.125:
            return HValue(d, INF if rng.random() < 0.5 else -INF)
        return HValue(d, ExtRat(reference_rat(rng, signed=True)))
    if rng.random() < 0.125:
        return HValue(d, INF)
    return HValue(d, ExtRat(reference_rat(rng, signed=False)))


class TestPartitions:
    def test_bell_numbers(self):
        for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
            items = tuple("abcdef"[:n])
            parts = list(all_partitions(items))
            assert len(parts) == bell
            # each partition covers the items exactly once
            for p in parts:
                flat = sorted(a for block in p for a in block)
                assert flat == sorted(items)


class TestBruteForceIntegral:
    def test_matches_weighted_sum(self):
        rng = random.Random(99)
        for _ in range(50):
            sp = random_atom_space(rng, rng.randint(1, 5))
            f = random_simple_fn(rng, sp)
            assert brute_force_integral(sp, f) == integrate(sp, f)[0]
        # 6-atom spaces, some with atoms of weight (0, 0) and of infinite mass at once
        zero_and_infinite = full_support = False
        for _ in range(60):
            sp = random_atom_space(rng, 6)
            f = random_simple_fn(rng, sp)
            assert brute_force_integral(sp, f) == integrate(sp, f)[0]
            weights = list(sp.weights.values())
            zero_and_infinite |= ZERO in weights and any(not w.m.is_finite for w in weights)
            full_support |= len(f.pieces) == 6
        assert zero_and_infinite and full_support

    def test_zero_cases(self):
        sp = AtomSpace.of({"a": ZERO, "b": H(1, 2)})
        f = SimpleFn.of([(H(3, 1), AtomSet.of("a"))])  # only on the null atom
        assert brute_force_integral(sp, f) == ZERO


class TestCleanSuites:
    def test_algebra_clean(self):
        report = check_algebra_laws(400, seed=0)
        assert report.ok
        assert report.trials == 400

    def test_algebra_empty(self):
        report = check_algebra_laws(0, seed=0)
        assert report.ok and report.trials == 0

    def test_integral_clean(self):
        report = check_integral_laws(60, seed=7)
        assert report.ok

    def test_integral_suite_values_match_integrate(self):
        # the suite integrates through integrate, the evaluator eval
        # runs; the reference sum integrate_simple must give each
        # function it integrates the same value
        spaces = {}

        def both(space, f):
            value = integrate(space, f)[0]
            if (id(space), f) not in spaces:
                spaces[id(space), f] = space  # keeps the id from reuse
                assert integrate_simple(space, f) == value
            return value

        assert check_integral_laws(200, seed=7, integrate_fn=both).ok
        assert len(spaces) > 1000

    def test_minorant_clean(self):
        sp = random_atom_space(3, 5)
        f = random_simple_fn(random.Random(3), sp)
        assert minorant_sample_check(sp, f, 200, seed=0).ok

    def test_a_mutant_of_integrate_fails_the_default_suite(self, monkeypatch):
        # with no injected integrate_fn the suite checks integrate itself,
        # so dropping the last piece of a simple function there is caught
        def drops_last_piece(space, f):
            if isinstance(f, SimpleFn):
                f = SimpleFn(f.pieces[:-1], f.i_simple)
            return integrate(space, f)

        monkeypatch.setattr(hintegral.integral, "integrate", drops_last_piece)
        monkeypatch.setattr(hintegral.oracle, "integrate", drops_last_piece)
        for seed in range(1, 21):
            assert not check_integral_laws(10, seed).ok, seed

    def test_reports_are_deterministic(self):
        a = check_algebra_laws(50, seed=5).to_json()
        b = check_algebra_laws(50, seed=5).to_json()
        assert a == b


# the first trial of this seed draws 6 atoms, and f is nonzero on each
SIX_ATOM_SEED = 56


def _support(g: SimpleFn) -> set:
    return {a for _, s in g.pieces for a in s.atoms}


class TestBlockCache:
    def test_each_block_is_evaluated_once_per_trial(self):
        measured, integrated = [], []

        def measure_fn(space, s):
            measured.append(s)
            return space.measure(s)

        def integrate_fn(space, g):
            integrated.append((space, g))
            return integrate_simple(space, g)

        assert check_integral_laws(
            1, seed=SIX_ATOM_SEED, measure_fn=measure_fn, integrate_fn=integrate_fn
        ).ok
        space, f = integrated[0]
        assert len(space.atoms) == 6 and _support(f) == set(space.atoms)
        # 203 partitions hold 674 blocks, 63 of them distinct; beside the
        # blocks the suite measures the whole space once and integrates
        # seven times (f, g, f + g, c*f, a minorant of f, an ordinary
        # embedding and the minorant check's target)
        assert len(measured) <= 1 + 63
        assert len(integrated) <= 63 + 7

    def test_a_cached_block_still_reports_its_violation(self):
        # wrong on one 2-atom block only: f is nonzero on every atom, so
        # only its restriction to {a, b} has that support
        def wrong_on_ab(space, g):
            value = integrate_simple(space, g)
            return add(value, H(1000, 1)) if _support(g) == {"a", "b"} else value

        report = check_integral_laws(1, seed=SIX_ATOM_SEED, integrate_fn=wrong_on_ab)
        [v] = [v for v in report.violations if v["law"] == "indefinite-sigma-additivity"]
        assert ["a", "b"] in [sorted(block) for block in ast.literal_eval(v["partition"])]

    def test_sigma_records_keep_their_order_and_partition_text(self):
        # both walks fail: the measure's record comes first, and each names the
        # first partition, in all_partitions order, that a frozenset walk finds
        calls = []

        def integrate_fn(space, g):
            calls.append((space, g))
            return wrong_on_pairs(space, g)

        report = check_integral_laws(
            1, seed=SIX_ATOM_SEED, measure_fn=mutant_measure_non_additive, integrate_fn=integrate_fn
        )
        space, f = calls[0]  # the suite integrates f first
        measure = lambda s: mutant_measure_non_additive(space, s)
        block_integral = lambda s: wrong_on_pairs(space, restrict(f, s))
        expected = {
            "measure-sigma-additivity": _first_unsummed(space, measure(space.full_set()), measure),
            "indefinite-sigma-additivity": _first_unsummed(space, wrong_on_pairs(space, f), block_integral),
        }
        records = [v for v in report.violations if v["law"] in expected]
        assert [v["law"] for v in records] == list(expected)
        assert [v["partition"] for v in records] == list(expected.values())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_prefix_sums_report_the_first_unsummed_partition(self, n):
        # block values of a measure, one block made wrong in most rounds: against a sum_finite
        # per partition, the same partition (or None), and the same blocks looked up first, in
        # the same order, up to it
        sets = [frozenset(k for k in range(n) if m >> k & 1) for m in range(1 << n)]
        parts = list(all_partitions(tuple(range(n))))
        outcomes = set()
        for seed in range(40):
            rng = random.Random(seed)
            weights = [random_hvalue(rng, "with-infinities") for _ in range(n)]
            block = {s: sum_finite(weights[k] for k in sorted(s)) for s in sets}
            if seed % 4:
                wrong = rng.choice(sets[1:])
                block[wrong] = add(block[wrong], H(1000, 1))
            target = sum_finite(weights)
            looked_up, expected_order = [], []
            got = _unsummed(target, _partitions(n), sets, lambda s: looked_up.append(s) or block[s])
            expected = None
            for part in parts:
                expected_order += [b for b in map(frozenset, part) if b not in expected_order]
                if sum_finite(block[frozenset(b)] for b in part) != target:
                    expected = part
                    break
            assert got == expected and looked_up == expected_order
            outcomes.add(-1 if expected is None else parts.index(expected))
        assert -1 in outcomes and max(outcomes) >= (n > 1)  # all summed, and a miss past the first


def _first_unsummed(space, target, value_of):
    """str of the first partition of the atoms whose blocks' values do not sum to target."""
    for part in all_partitions(space.atoms):
        if sum_finite(value_of(AtomSet(frozenset(block))) for block in part) != target:
            return str(part)
    return None


def wrong_on_pairs(space, g):
    """integrate, off by (1000, 1) on every function supported on two atoms."""
    value = integrate(space, g)[0]
    return add(value, H(1000, 1)) if len(_support(g)) == 2 else value


# SHA-256 of json.dumps of the 300 reports of TestPinnedReports, 5,870 violations
LAW_REPORTS_SHA256 = "40c23856c65015ba0597416bdc422aa8a3df7b40c38bc6c8bd0a411790eae6f5"
# SHA-256 of the concatenated stdout of the laws workload's 27 operations
LAWS_STDOUT_SHA256 = "747df29080655b723f580481478c55b32c304f657e59a9228c65ef4a752240b0"
ROOT = Path(__file__).resolve().parent.parent


class TestPinnedReports:
    def test_law_reports_are_byte_identical(self):
        reports = []
        for seed in range(60):
            reports += [
                check_integral_laws(10, seed),
                check_integral_laws(10, seed, measure_fn=mutant_measure_non_additive),
                check_integral_laws(10, seed, integrate_fn=mutant_integrate_drops_atom),
                check_integral_laws(10, seed, integrate_fn=wrong_on_pairs),
                check_algebra_laws(100, seed, add_fn=mutant_add_drops_dominance),
            ]
        assert sum(len(r.violations) for r in reports) == 5870
        text = json.dumps([r.to_json() for r in reports])
        assert hashlib.sha256(text.encode()).hexdigest() == LAW_REPORTS_SHA256

    def test_laws_workload_stdout_is_byte_identical(self):
        # the benchmark's laws operations of seed 101, cycles 0-2, in generated
        # order; its generator imports nothing from hintegral
        spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        ops = [op for cycle in range(3) for op in gen.laws_cycle(101, cycle)]
        digest = hashlib.sha256()
        for op in ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(op["argv"]) == 0
            digest.update(out.getvalue().encode())
        assert len(ops) == 27
        assert digest.hexdigest() == LAWS_STDOUT_SHA256


class TestMinorantGap:
    def test_sup_attained(self):
        sp = AtomSpace.of({"a": H(1, 2), "b": H(0, "inf")})
        f = SimpleFn.of([(H(1, 1), AtomSet.of("a")), (H(2, 3), AtomSet.of("b"))])
        rep = minorant_sample_check(sp, f, 300, seed=5)
        assert rep.ok
        # the largest integral over the sampled minorants and f itself
        # is the integral of f
        rng = random.Random(5)
        sampled = [
            integrate_simple(sp, random_isimple_minorant(rng, sp, f)) for _ in range(300)
        ]
        assert max(sampled + [integrate_simple(sp, f)]) == integrate(sp, f)[0]


class TestApproxGap:
    def test_witness_outside_diagonal_band(self):
        chain = [
            SimpleFn.of(
                [(H(F(k, 4), F(k, 4)), IntervalSet.of([(F(k, 4), F(k + 1, 4))]))
                 for k in range(1, 4)]
            )
        ]
        w = approx_gap_witness(chain)
        assert w.x not in {F(k, 4) for k in range(1, 4)}
        assert all(verdict == "outside" for _, verdict in w.checks)


# fixture space where the first atom dominates, so dropping it is visible
DOMINATED = AtomSpace.of({"a": H(2, 1), "b": H(0, 1)})
DOMINATED_F = SimpleFn.of(
    [(H(0, 1), AtomSet.of("a")), (H(0, 1), AtomSet.of("b"))]
)


class TestMutants:
    def test_add_mutant_detected(self):
        report = check_algebra_laws(500, seed=0, add_fn=mutant_add_drops_dominance)
        assert not report.ok
        v = report.violations[0]
        assert "seed" in v  # reproducer seed present
        # replaying the reproducer seed still finds the violation
        replay = check_algebra_laws(1, seed=0, add_fn=mutant_add_drops_dominance)
        assert replay.violations or len(report.violations) > 1

    def test_measure_mutant_detected(self):
        report = check_integral_laws(
            20, seed=0, measure_fn=mutant_measure_non_additive
        )
        assert any(
            v["law"] == "measure-sigma-additivity" for v in report.violations
        )
        assert all("seed" in v for v in report.violations)

    def test_integrate_mutant_detected(self):
        report = minorant_sample_check(
            DOMINATED, DOMINATED_F, 50, seed=0,
            integrate_fn=mutant_integrate_drops_atom,
        )
        assert not report.ok
        assert all("seed" in v for v in report.violations)

    def test_mutants_differ_from_reference(self):
        # sanity: each mutant really changes an output somewhere
        assert mutant_add_drops_dominance(H(1, 1), H(0, 1)) != H(1, 1)
        s = AtomSet.of("a", "b")
        assert mutant_measure_non_additive(DOMINATED, s) != DOMINATED.measure(s)
        assert (
            mutant_integrate_drops_atom(DOMINATED, DOMINATED_F)
            != integrate(DOMINATED, DOMINATED_F)[0]
        )


PRODUCTION = ("integral", "space", "exprs", "hvalue", "deficiency")


def _imported_modules(tree: ast.Module, package: str):
    """Absolute names of every module an import statement in the tree
    names, function-local imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join([package, base]) if base else package
                yield from (f"{base}.{a.name}" for a in node.names)
            yield base


class TestImportBoundary:
    def test_production_modules_import_no_test_machinery(self):
        src = str(Path(hintegral.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        code = (
            "import json, sys, hintegral; print(json.dumps({n: m.__file__ for n, m in "
            "sys.modules.items() if n.startswith('hintegral')}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        loaded = json.loads(out.stdout)
        assert "hintegral.oracle" not in loaded
        for name in PRODUCTION:
            tree = ast.parse(Path(loaded[f"hintegral.{name}"]).read_text())
            imported = set(_imported_modules(tree, "hintegral"))
            assert any(m.startswith("hintegral.") for m in imported)  # scan sees the package
            bad = {m for m in imported if m.split(".")[0] == "random" or m == "hintegral.oracle"}
            assert not bad, f"hintegral.{name} imports {sorted(bad)}"

    def test_deficiency_sums_without_the_integral_engine(self):
        # each functional is a direct dominance sum, not a catalog integral
        tree = ast.parse(Path(hintegral.deficiency.__file__).read_text())
        assert "hintegral.integral" not in set(_imported_modules(tree, "hintegral"))

    def test_integral_treats_expressions_as_opaque(self):
        # every decision that depends on the expression kind lives in exprs
        tree = ast.parse(Path(hintegral.integral.__file__).read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not names & {"Poly", "Power"}
        assert not attrs & {"Poly", "Power", "coeffs", "degree", "q"}
