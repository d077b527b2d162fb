"""CLI tests: subcommands, exit codes, output formats."""

import json
from pathlib import Path

import pytest

from hintegral.cli import main
from hintegral.hvalue import HValue


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


SPACE = {"kind": "interval", "bounds": ["0", "1"], "dim_offset": "1"}
ROOT2 = {
    "pieces": [
        {
            "set": {"intervals": [["0", "1"]]},
            "pi1": {"kind": "pow", "q": "1/2"},
            "pi2": {"kind": "pow", "q": "1/2"},
        }
    ]
}
CONST11 = {
    "pieces": [
        {
            "set": {"intervals": [["0", "1"]]},
            "pi1": {"kind": "const", "value": "1"},
            "pi2": {"kind": "const", "value": "1"},
        }
    ]
}


class TestEval:
    def test_root_function(self, tmp_path, capsys):
        code = main(
            ["eval", write(tmp_path, "s.json", SPACE), write(tmp_path, "f.json", ROOT2)]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "(2, 0)"

    def test_constant_function(self, tmp_path, capsys):
        code = main(
            ["eval", write(tmp_path, "s.json", SPACE), write(tmp_path, "f.json", CONST11)]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "(2, 1)"

    def test_certificate_json(self, tmp_path, capsys):
        code = main(
            [
                "eval",
                write(tmp_path, "s.json", SPACE),
                write(tmp_path, "f.json", CONST11),
                "--json",
                "--certificate",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == "(2, 1)"
        assert out["certificate"]["exact_m"] is True

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eval", str(bad), str(bad)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["eval", str(tmp_path / "none.json"), str(tmp_path / "none.json")]) == 2

    def test_unsupported_exit_3(self, tmp_path, capsys):
        sp = {"kind": "interval", "bounds": ["0", "2"], "dim_offset": "1"}
        fn = {
            "pieces": [
                {
                    "set": {"intervals": [["0", "2"]]},
                    "pi1": {"kind": "pow", "q": "1/2"},
                    "pi2": {"kind": "const", "value": "1"},
                }
            ]
        }
        code = main(
            ["eval", write(tmp_path, "s.json", sp), write(tmp_path, "f.json", fn)]
        )
        assert code == 3  # sup of sqrt on (0,2) is irrational


class TestLaws:
    def test_small_clean_run(self, capsys):
        assert main(["laws", "--trials", "50", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "algebra" in out and "integral" in out

    def test_zero_trials(self, capsys):
        assert main(["laws", "--trials", "0"]) == 0

    def test_json_report(self, capsys):
        assert main(["laws", "--trials", "20", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["law"] for r in reports] == ["algebra", "integral"]
        assert all(r["violations"] == [] for r in reports)


class TestDefi:
    def test_convexity_two_points(self, tmp_path, capsys):
        s = {"kind": "convexity", "points": [["0", "0"], ["1", "0"]]}
        assert main(["defi", write(tmp_path, "c.json", s)]) == 0
        assert capsys.readouterr().out.strip() == "(1, 2)"

    def test_continuity_no_jumps(self, tmp_path, capsys):
        s = {"kind": "continuity", "jumps": []}
        assert main(["defi", write(tmp_path, "c.json", s)]) == 0
        assert capsys.readouterr().out.strip() == "(0, 0)"

    def test_lineness_reports_best_line(self, tmp_path, capsys):
        s = {
            "kind": "lineness",
            "primitives": [
                {"type": "line", "p": ["0", "0"], "q": ["1", "0"]},
                {"type": "point", "p": ["0", "1"]},
            ],
            "candidates": [{"p": ["0", "0"], "q": ["1", "0"]}],
        }
        assert main(["defi", write(tmp_path, "c.json", s)]) == 0
        out = capsys.readouterr().out
        assert "(0, 1)" in out and "best line" in out

    def test_unsupported_scenario_exit_3(self, tmp_path):
        s = {"kind": "convexity", "points": [["0", "0"], ["1", "1"]]}
        assert main(["defi", write(tmp_path, "c.json", s)]) == 3


class TestDemo:
    def test_monotone_failure(self, capsys):
        assert main(["demo", "monotone-failure"]) == 0
        out = capsys.readouterr().out
        assert out.count("(2, 0)") == 3
        assert "(2, 1)" in out
        assert "MISMATCH" not in out

    def test_distributivity(self, capsys):
        assert main(["demo", "distributivity"]) == 0
        out = capsys.readouterr().out
        assert "(0, 0)" in out and "(1, 0)" in out

    def test_no_approx(self, capsys):
        assert main(["demo", "no-approx"]) == 0
        out = capsys.readouterr().out
        assert "witness x" in out and "outside" in out


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
UNIT_SPACE = SCENARIOS / "space_unit_interval.json"
# `defi --json` output of each bundled scenario file
DEFI_GOLDENS = {
    "continuity_dirichlet.json": {"value": "(1, inf)"},
    "continuity_single_jump.json": {"value": "(0, 1)"},
    "convexity_segment.json": {"value": "(0, 0)"},
    "convexity_three_collinear.json": {"value": "(1, 8)"},
    "convexity_two_points.json": {"value": "(1, 2)"},
    "lineness_line_and_point.json": {"value": "(0, 1)", "best_line": "0*x + 1*y = 0"},
}
# `eval --json` value of each bundled function over UNIT_SPACE
EVAL_GOLDENS = {
    "function_root2.json": "(2, 0)",
    "function_const_1_1.json": "(2, 1)",
}


class TestBundledScenarios:
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.name)
    def test_replay_matches_golden(self, path, capsys):
        if path.name in DEFI_GOLDENS:
            assert main(["defi", str(path), "--json"]) == 0
            assert json.loads(capsys.readouterr().out) == DEFI_GOLDENS[path.name]
        elif path.name in EVAL_GOLDENS:
            argv = ["eval", str(UNIT_SPACE), str(path), "--json", "--certificate"]
            assert main(argv) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["value"] == out["certificate"]["value"] == EVAL_GOLDENS[path.name]
        else:
            # the space file is replayed by every function golden
            assert path == UNIT_SPACE, f"{path.name} has no golden"


class TestRoundTrip:
    def test_rendered_values_reparse(self, capsys, tmp_path):
        main(["demo", "distributivity"])
        out = capsys.readouterr().out
        # every parenthesized pair in the transcript reparses
        import re

        for token in re.findall(r"\([^()]*\)", out):
            HValue.parse(token)
