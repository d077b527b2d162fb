"""CLI tests: subcommands, exit codes, output formats."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hintegral
from hintegral import cli
from hintegral.cli import build_parser, main
from hintegral.errors import ParseError, UndefinedSumError
from hintegral.exprs import MAX_DEGREE
from hintegral.hvalue import ExtRat, HValue
from hintegral.integral import T4Certificate, Witness, function_from_json, verify_certificate
from hintegral.oracle import LawReport
from hintegral.space import set_from_json, space_from_json


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


def _piece(lo, hi):
    return {
        "set": {"intervals": [[lo, hi]]},
        "pi1": {"kind": "const", "value": "1"},
        "pi2": {"kind": "const", "value": "1"},
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

    @pytest.mark.parametrize("top, code, out", [("5", 0, "(5, 2)\n"), ("1", 3, "")])
    def test_dominated_irrational_sup(self, top, code, out, tmp_path, capsys):
        # sqrt(2) on (0, 2) is below 5 on (2, 4), so the value is rational;
        # above 1 it is the supremum, which is irrational
        sp = {"kind": "interval", "bounds": ["0", "4"]}
        fn = {
            "pieces": [
                {**_piece("0", "2"), "pi1": {"kind": "pow", "q": "1/2"}},
                {**_piece("2", "4"), "pi1": {"kind": "const", "value": top}},
            ]
        }
        assert main(["eval", write(tmp_path, "s.json", sp), write(tmp_path, "f.json", fn)]) == code
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("sp, fn, message", [
        (SPACE, {"simple": "ab"}, "simple must be a list, got 'ab'"),
        (SPACE, {"pieces": "ab"}, "pieces must be a list, got 'ab'"),
        (SPACE, {"pieces": _piece("0", "1")}, f"pieces must be a list, got {_piece('0', '1')!r}"),
        ({"kind": "atoms", "atoms": "ab"}, CONST11, "atoms must be an object, got 'ab'"),
        ({"kind": "catalog", "sets": "ab"}, CONST11, "sets must be a list, got 'ab'"),
        ({"kind": "catalog", "sets": ["ab"]}, CONST11, "a catalog entry must be an object, got 'ab'"),
    ])
    def test_a_list_field_given_as_anything_else_exit_2(self, sp, fn, message, tmp_path, capsys):
        # each was once read one character or key at a time, and raised a Python error naming no field
        assert main(["eval", write(tmp_path, "s.json", sp), write(tmp_path, "f.json", fn)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"parse error: {message}\n"

    def test_undominated_irrational_sup_names_its_cause(self, tmp_path, capsys):
        # x**(2/3) on (0, 2) reaches 2**(2/3) > 3/2, which is irrational
        sp = {"kind": "interval", "bounds": ["0", "3"]}
        fn = {
            "pieces": [
                {**_piece("0", "2"), "pi1": {"kind": "pow", "q": "2/3"}},
                {**_piece("2", "3"), "pi1": {"kind": "const", "value": "3/2"}},
            ]
        }
        assert main(["eval", write(tmp_path, "s.json", sp), write(tmp_path, "f.json", fn)]) == 3
        assert capsys.readouterr().err == "unsupported: sup of pi1 on (0, 2) is irrational\n"

    def test_irrational_mass_names_its_cause(self, tmp_path, capsys):
        # the mass of x**(1/2) on (0, 2) is (2/3) * 2**(3/2), which is irrational
        sp = {"kind": "interval", "bounds": ["0", "2"]}
        fn = {"pieces": [{**_piece("0", "2"), "pi2": {"kind": "pow", "q": "1/2"}}]}
        assert main(["eval", write(tmp_path, "s.json", sp), write(tmp_path, "f.json", fn)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unsupported: integral of x**1/2 has irrational endpoint values\n"

    @pytest.mark.parametrize("hi, q", [("3", "1/1000"), ("3/2", "1/500")])
    def test_a_root_of_high_degree_names_its_irrational_mass(self, tmp_path, capsys, hi, q):
        # its rounding stays within the bound on exact powers, so that bound
        # is not named instead
        sp = {"kind": "interval", "bounds": ["0", hi]}
        fn = {"pieces": [{**_piece("0", hi), "pi2": {"kind": "pow", "q": q}}]}
        assert main(["eval", write(tmp_path, "s.json", sp), write(tmp_path, "f.json", fn)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"unsupported: integral of x**{q} has irrational endpoint values\n"

    def test_a_dimension_polynomial_of_degree_2_is_exit_3(self, tmp_path, capsys):
        fn = {"pieces": [{**_piece("0", "1"), "pi1": {"kind": "poly", "coeffs": ["0", "0", "1"]}}]}
        assert main(["eval", write(tmp_path, "s.json", SPACE), write(tmp_path, "f.json", fn)]) == 3
        assert capsys.readouterr() == ("", "unsupported: dimension coordinate must be constant, affine or a power\n")

    def test_an_unknown_expression_kind_is_exit_3(self, tmp_path, capsys):
        fn = {"pieces": [{**_piece("0", "1"), "pi1": {"kind": "sin"}}]}
        assert main(["eval", write(tmp_path, "s.json", SPACE), write(tmp_path, "f.json", fn)]) == 3
        assert capsys.readouterr().err == "unsupported: unknown expression kind 'sin'\n"

    def test_fractional_power_below_zero_exit_3(self, tmp_path, capsys):
        sp = {"kind": "interval", "bounds": ["-1", "1"]}
        fn = {"pieces": [{**_piece("-1", "1"), "pi1": {"kind": "pow", "q": "1/2"}}]}
        code = main(["eval", write(tmp_path, "s.json", sp), write(tmp_path, "f.json", fn)])
        assert code == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "q, lo",
        [
            ("1e5000", "0"),
            ("65536", "0"),
            ("1" + "0" * 5000 + "/3", "0"),
            ("400001/2", "0"),
            ("65535/65533", "1/3"),
            ("65535/65533", "1/1" + "0" * 5000),
        ],
        ids=["1e5000", "65536", "long/3", "400001/2", "65535/65533", "65535/65533-long-end"],
    )
    def test_huge_power_exponent_exit_3(self, q, lo, tmp_path, capsys):
        # 1e5000 used to end in an OverflowError, and the others to run
        # for minutes or more: x**65536 is a polynomial of that degree,
        # and x was raised to the numerator of the fractional exponents
        fn = {"pieces": [{**_piece(lo, "1"), "pi2": {"kind": "pow", "q": q}}]}
        argv = ["eval", write(tmp_path, "s.json", SPACE), write(tmp_path, "f.json", fn)]
        start = time.perf_counter()
        code = main([*argv, "--certificate"])
        assert time.perf_counter() - start < 10
        assert code == 3
        assert capsys.readouterr().err.startswith("unsupported:")

    @pytest.mark.parametrize(
        "space, pieces",
        [
            # a negative constant dimension
            (SPACE, [{**_piece("0", "1"), "pi1": {"kind": "const", "value": "-1"}}]),
            # x - 1 is negative on (0, 1), next to dimension 0 on (1, 2)
            (
                {"kind": "interval", "bounds": ["0", "2"]},
                [
                    {**_piece("0", "1"), "pi1": {"kind": "affine", "a": "-1", "b": "1"}},
                    {**_piece("1", "2"), "pi1": {"kind": "const", "value": "0"}},
                ],
            ),
            # the mass x**2 - 1 is negative on (0, 1)
            (SPACE, [{**_piece("0", "1"), "pi2": {"kind": "poly", "coeffs": ["-1", "0", "1"]}}]),
            # the mass x**2 - x + 1/20 is 1/20 at both ends and -1/5 at 1/2
            (SPACE, [{**_piece("0", "1"), "pi2": {"kind": "poly", "coeffs": ["1/20", "-1", "1"]}}]),
        ],
        ids=["negative-constant-dimension", "negative-affine-dimension", "negative-mass", "mass-dip"],
    )
    def test_negative_coordinate_exit_3(self, space, pieces, tmp_path, capsys):
        fn = {"pieces": pieces}
        code = main(["eval", write(tmp_path, "s.json", space), write(tmp_path, "f.json", fn)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("unsupported:") and "Traceback" not in captured.err

    @pytest.mark.parametrize("where", ["mass", "density"])
    def test_degree_past_the_bound_exit_3(self, where, tmp_path, capsys):
        coeffs = ["1"] * (MAX_DEGREE + 2)
        space, fn = SPACE, {"pieces": [_piece("0", "1")]}
        if where == "mass":
            fn = {"pieces": [{**_piece("0", "1"), "pi2": {"kind": "poly", "coeffs": coeffs}}]}
        else:
            space = {**SPACE, "density": coeffs}
        code = main(["eval", write(tmp_path, "s.json", space), write(tmp_path, "f.json", fn)])
        assert code == 3
        assert capsys.readouterr().err.startswith("unsupported:")

    @pytest.mark.parametrize("point", ["0", "1", "2"])
    def test_point_outside_the_open_space_exit_3(self, point, tmp_path, capsys):
        # the space (0, 1) is open: its ends lie outside it, like 2
        fn = {
            "simple": [
                {"coeff": "(1, 1)", "set": {"intervals": [["0", "1/2"]], "points": [point]}}
            ]
        }
        args = [write(tmp_path, "s.json", SPACE), write(tmp_path, "f.json", fn)]
        assert main(["eval", *args, "--certificate"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"unsupported: point {point} outside the space\n"

    def test_mixed_set_kinds_exit_3(self, tmp_path, capsys):
        fn = {
            "simple": [
                {"coeff": "(1, 1)", "set": {"atoms": ["a"]}},
                {"coeff": "(1, 1)", "set": {"intervals": [["0", "1"]]}},
            ]
        }
        code = main(["eval", write(tmp_path, "s.json", SPACE), write(tmp_path, "f.json", fn)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("unsupported:") and "Traceback" not in captured.err

    def test_a_point_in_two_pieces_is_named_exit_2(self, tmp_path, capsys):
        # the pieces of a simple function are disjoint, and both list 1/2
        fn = {"simple": [{"coeff": c, "set": {"points": ["1/2"]}} for c in ("(1, 1)", "(1, 2)")]}
        assert main(["eval", write(tmp_path, "s.json", SPACE), write(tmp_path, "f.json", fn)]) == 2
        assert capsys.readouterr() == ("", "parse error: duplicate point 1/2\n")


def _unpack_error(values):
    """Python's own message for unpacking `values` into two names; its
    wording differs between versions."""
    try:
        _, _ = values
    except ValueError as exc:
        return f"function_from_json: ValueError: {exc}"


ONE_INTERVAL = "each piecewise piece needs exactly one interval"
# The piece reader's error contract: a piece `set` of any shape but one
# interval keeps the exit code and stderr it had when every set went
# through `set_from_json`.
PIECE_SETS = {
    "two intervals": ({"intervals": [["0", "1/4"], ["1/2", "1"]]}, ONE_INTERVAL),
    "interval and point": ({"intervals": [["0", "1/2"]], "points": ["3/4"]}, ONE_INTERVAL),
    "point only": ({"points": ["1/2"]}, ONE_INTERVAL),
    "no interval": ({"intervals": []}, ONE_INTERVAL),
    "atoms": ({"atoms": ["a"]}, ONE_INTERVAL),
    "catalog": ({"catalog": ["a"]}, ONE_INTERVAL),
    "unknown key": ({"segment": [["0", "1"]]}, "unrecognized set description keys: ['segment']"),
    "two shapes": (
        {"intervals": [["0", "1"]], "atoms": ["a"]},
        "a set description names one shape, got the keys ['atoms', 'intervals']",
    ),
    "three numbers": ({"intervals": [["0", "1/2", "1"]]}, _unpack_error([0, 1, 2])),
    "one number": ({"intervals": [["0"]]}, _unpack_error([0])),
    "string": ("(0, 1)", "set description must be an object, got '(0, 1)'"),
    "list": ([["0", "1"]], "set description must be an object, got [['0', '1']]"),
    "null": (None, "set description must be an object, got None"),
    "intervals not a list": ({"intervals": "01"}, "intervals must be a list, got '01'"),
    "interval not a list": ({"intervals": ["01"]}, "an interval must be a list, got '01'"),
    "interval an object": (
        {"intervals": [{"lo": "0", "hi": "1"}]},
        "an interval must be a list, got {'lo': '0', 'hi': '1'}",
    ),
    "points not a list": ({"intervals": [["0", "1"]], "points": "1"}, "points must be a list, got '1'"),
    "degenerate": ({"intervals": [["1/2", "1/2"]]}, "degenerate interval (1/2, 1/2)"),
    "reversed": ({"intervals": [["1", "0"]]}, "degenerate interval (1, 0)"),
    "bad end": ({"intervals": [["0", "x"]]}, "not an exact rational: 'x'"),
    "bad ends": ({"intervals": [["y", "x"]]}, "not an exact rational: 'y'"),
    "zero denominator": ({"intervals": [["0", "1/0"]]}, "not an exact rational: '1/0'"),
    "float end": ({"intervals": [[0, 0.5]]}, "cannot interpret 0.5 as an exact rational"),
    "bool end": ({"intervals": [[False, 1]]}, "cannot interpret False as an exact rational"),
}


class TestPieceReader:
    @pytest.mark.parametrize("name", sorted(PIECE_SETS))
    def test_exit_2_and_the_same_message(self, name, tmp_path, capsys):
        # the set is read before the coordinates, so a bad one after it
        # does not change the message
        where, message = PIECE_SETS[name]
        bad = {"set": where, "pi1": {"kind": "const", "value": "1"}, "pi2": {"kind": "pow", "q": "x"}}
        space = write(tmp_path, "s.json", SPACE)
        for pieces in ([{**bad, "pi2": CONST11["pieces"][0]["pi2"]}], [_piece("0", "1/8"), bad]):
            fn = write(tmp_path, "f.json", {"pieces": pieces})
            assert main(["eval", space, fn, "--json", "--certificate"]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"parse error: {message}\n")

    @pytest.mark.parametrize(
        "where",
        [
            {"intervals": [["0", "1"]], "points": []},
            {"intervals": [[0, 1]]},
            {"intervals": [[" 0 ", "+1"]]},
            {"intervals": [["0", "1e0"]]},
            {"intervals": [["0", "1"]], "note": "ignored"},
        ],
    )
    def test_other_spellings_of_one_interval(self, where, tmp_path, capsys):
        fn = {"pieces": [{**CONST11["pieces"][0], "set": where}]}
        assert main(["eval", write(tmp_path, "s.json", SPACE), write(tmp_path, "f.json", fn)]) == 0
        assert capsys.readouterr().out == "(2, 1)\n"


def _memo_piece(lo, hi, value="1", coeff="1"):
    return {
        "set": {"intervals": [[lo, hi]]},
        "pi1": {"kind": "const", "value": value},
        "pi2": {"kind": "poly", "coeffs": [coeff]},
    }


class TestReaderMemo:
    """The reader reads each distinct end text and string expression once
    per function.  In Python true == 1 == 1.0, so a memo keyed by those
    values would read JSON true, 1.0 or null as the "1" or 1 that an earlier
    piece held at the same place; each keeps its own exit code and message."""

    @pytest.mark.parametrize("first", ["1", 1])
    @pytest.mark.parametrize("where", ["end", "value", "coeffs"])
    @pytest.mark.parametrize(
        "x, code, out, err",
        [
            (True, 2, "", "parse error: cannot interpret True as an exact rational\n"),
            (1.0, 2, "", "parse error: cannot interpret 1.0 as an exact rational\n"),
            (1, 0, "(1, 2)\n", ""),
            (None, 2, "", "parse error: cannot interpret None as an exact rational\n"),
        ],
    )
    def test_a_value_of_another_json_type_is_read_as_itself(
        self, first, where, x, code, out, err, tmp_path, capsys
    ):
        second = {
            "end": _memo_piece(x, "2"),
            "value": _memo_piece("1", "2", value=x),
            "coeffs": _memo_piece("1", "2", coeff=x),
        }[where]
        space = write(tmp_path, "s.json", {"kind": "interval", "bounds": ["0", "2"]})
        fn = write(tmp_path, "f.json", {"pieces": [_memo_piece("0", first, first, first), second]})
        assert main(["eval", space, fn]) == code
        assert capsys.readouterr() == (out, err)


def _continuity_global(hvalue, remainder):
    g = {"name": "R", "hvalue": hvalue, "remainder": remainder}
    return {"kind": "continuity", "global": g}


def _simple_on(set_obj):
    return {"simple": [{"coeff": "(0, 1)", "set": set_obj}]}


MALFORMED = {
    "space-without-bounds": ("eval", {"kind": "interval"}, CONST11),
    "const-without-value": (
        "eval",
        SPACE,
        {"pieces": [{**_piece("0", "1"), "pi2": {"kind": "const"}}]},
    ),
    "jump-without-remainder": ("defi", {"kind": "continuity", "jumps": [{"x": "0"}]}),
    "candidate-with-equal-points": (
        "defi",
        {
            "kind": "lineness",
            "primitives": [{"type": "point", "p": ["0", "0"]}],
            "candidates": [{"p": ["1", "1"], "q": ["1", "1"]}],
        },
    ),
    "overlapping-pieces": (
        "eval",
        SPACE,
        {"pieces": [_piece("0", "1/2"), _piece("1/4", "1")]},
    ),
    # a string where a list belongs must not be read one character at a time
    "density-as-string": ("eval", {**SPACE, "density": "12"}, CONST11),
    # a measure has a nonnegative density
    "negative-density": ("eval", {**SPACE, "density": ["-1"]}, CONST11),
    # 1/20 at both ends of the space and -1/5 at 1/2
    "density-dip": ("eval", {**SPACE, "density": ["1/20", "-1", "1"]}, CONST11),
    "bounds-as-string": ("eval", {**SPACE, "bounds": "01"}, CONST11),
    # Fraction would build 10**99999999 in full before reading it
    "bounds-with-a-huge-exponent": ("eval", {**SPACE, "bounds": ["0", "1e99999999"]}, CONST11),
    "coeffs-as-string": (
        "eval",
        SPACE,
        {"pieces": [{**_piece("0", "1"), "pi2": {"kind": "poly", "coeffs": "12"}}]},
    ),
    "atoms-as-string": (
        "eval",
        {"kind": "atoms", "atoms": {"a": "(0, 1)", "b": "(0, 1)"}},
        _simple_on({"atoms": "ab"}),
    ),
    "catalog-as-string": (
        "eval",
        {"kind": "catalog", "sets": [{"name": n, "hvalue": "(0, 1)"} for n in "ab"]},
        _simple_on({"catalog": "ab"}),
    ),
    # a list of named sets names each set once, by a string
    **{
        f"{key}-name-repeated": (
            "eval",
            {"kind": "catalog", "sets": [{"name": "a", "hvalue": "(0, 1)"}]},
            _simple_on({key: ["a", "a"]}),
        )
        for key in ("atoms", "catalog")
    },
    # sorting the unknown names 1 and "b" for the message once raised a TypeError
    "atom-name-not-a-string": (
        "eval",
        {"kind": "atoms", "atoms": {"a": "(0, 1)"}},
        _simple_on({"atoms": [1, "b"]}),
    ),
    "catalog-name-not-a-string": (
        "eval",
        {"kind": "catalog", "sets": [{"name": n, "hvalue": "(0, 1)"} for n in (1, "a")]},
        _simple_on({"catalog": ["a"]}),
    ),
    "catalog-name-repeated-in-space": (
        "eval",
        {"kind": "catalog", "sets": [{"name": "a", "hvalue": "(0, 1)"}] * 2},
        _simple_on({"catalog": ["a"]}),
    ),
    "unknown-set-kind": (
        "eval",
        {"kind": "catalog", "sets": [{"name": "a", "hvalue": "(0, 1)", "set_kind": "blob"}]},
        _simple_on({"catalog": ["a"]}),
    ),
    "points-as-string": ("eval", SPACE, _simple_on({"points": "12"})),
    "interval-as-string": ("eval", SPACE, _simple_on({"intervals": ["01"]})),
    # the global component of a continuity scenario is a declared measure on R
    "global-dimension-above-1": ("defi", _continuity_global("(2, 1)", "(0, 1)")),
    "global-fractional-count": ("defi", _continuity_global("(0, 1/2)", "(0, 1)")),
    "global-negative-remainder": ("defi", _continuity_global("(1, inf)", "(0, -1)")),
    # a JSON value of the wrong type: booleans are not rationals or flags
    "bounds-as-booleans": ("eval", {**SPACE, "bounds": [False, True]}, CONST11),
    "const-value-as-boolean": (
        "eval",
        SPACE,
        {"pieces": [{**_piece("0", "1"), "pi2": {"kind": "const", "value": True}}]},
    ),
    "i-simple-as-string": (
        "eval",
        SPACE,
        # a truthy string would admit the infinite coefficient
        {
            "simple": [{"coeff": "(0, inf)", "set": {"intervals": [["0", "1"]]}}],
            "i_simple": "false",
        },
    ),
    "ambient-as-fraction": (
        "eval",
        {"kind": "catalog", "sets": [{"name": "a", "hvalue": "(0, 1)", "ambient": 1.9}]},
        _simple_on({"catalog": ["a"]}),
    ),
    # a lineness primitive through one point twice has no line
    **{
        f"{kind}-with-equal-points": (
            "defi",
            {
                "kind": "lineness",
                "primitives": [{"type": kind, "p": ["0", "1"], "q": ["0", "1"]}],
                "candidates": [{"p": ["0", "0"], "q": ["1", "0"]}],
            },
        )
        for kind in ("segment", "line")
    },
    # one reader validates every segment, a convex one included
    "convexity-segment-with-equal-points": (
        "defi",
        {"kind": "convexity", "segment": [["0", "1"], ["0", "1"]]},
    ),
    # a description names one shape; the first key read used to win
    "simple-and-pieces": ("eval", SPACE, {**_simple_on({"intervals": [["0", "1"]]}), **CONST11}),
    "atoms-and-intervals": (
        "eval",
        {"kind": "atoms", "atoms": {"a": "(0, 1)"}},
        _simple_on({"atoms": ["a"], "intervals": [["0", "1"]]}),
    ),
    "atoms-and-catalog": (
        "eval",
        {"kind": "atoms", "atoms": {"a": "(0, 1)"}},
        _simple_on({"atoms": ["a"], "catalog": ["a"]}),
    ),
    # the name goes into the messages of the declared-measure checks
    "global-name-not-a-string": (
        "defi",
        {"kind": "continuity", "global": {"name": 5, "hvalue": "(1, inf)", "remainder": "(0, 1)"}},
    ),
    # an entry of the wrong JSON type is named, not indexed as a string (see FIELD_NAMED)
    "simple-piece-as-string": ("eval", {"kind": "atoms", "atoms": {"a": "(0, 1)"}}, {"simple": ["ab"]}),
    "piecewise-piece-as-string": ("eval", SPACE, {"pieces": ["ab"]}),
    "space-as-string": ("eval", "ab", CONST11),
    "one-bound": ("eval", {**SPACE, "bounds": ["0"]}, CONST11),
    "three-bounds": ("eval", {**SPACE, "bounds": ["0", "1", "2"]}, CONST11),
    "scenario-as-string": ("defi", "ab"),
    "function-as-boolean": ("eval", SPACE, True),
    "jump-as-string": ("defi", {"kind": "continuity", "jumps": ["0"]}),
    "global-as-number": ("defi", {"kind": "continuity", "global": 5}),
    "primitives-as-numbers": (
        "defi",
        {"kind": "lineness", "primitives": [0, 1], "candidates": [{"p": ["0", "0"], "q": ["1", "0"]}]},
    ),
    "candidate-as-boolean": (
        "defi",
        {"kind": "lineness", "primitives": [{"type": "point", "p": ["0", "0"]}], "candidates": [True]},
    ),
    "pi1-as-string": ("eval", SPACE, {"pieces": [{**_piece("0", "1"), "pi1": "1"}]}),
    "pi2-as-list": ("eval", SPACE, {"pieces": [{**_piece("0", "1"), "pi2": [1]}]}),
    # an expression's kind is a string that must be there; an unknown one is exit 3
    "pi1-without-kind": ("eval", SPACE, {"pieces": [{**_piece("0", "1"), "pi1": {"value": "1"}}]}),
    "pi1-kind-as-number": ("eval", SPACE, {"pieces": [{**_piece("0", "1"), "pi1": {"kind": 5}}]}),
    # refusals of the readers that name their cause
    "space-kind-unknown": ("eval", {"kind": "sphere"}, CONST11),
    "negative-dim-offset": ("eval", {**SPACE, "dim_offset": "-1"}, CONST11),
    "negative-simple-coefficient": (
        "eval",
        SPACE,
        {"simple": [{"coeff": "(1, -1)", "set": {"intervals": [["0", "1"]]}}]},
    ),
    "lineness-point-of-one-coordinate": (
        "defi",
        {
            "kind": "lineness",
            "primitives": [{"type": "point", "p": ["1"]}],
            "candidates": [{"p": ["0", "0"], "q": ["1", "0"]}],
        },
    ),
    # a candidate is read as a line and a segment are: it names itself and its point
    "candidate-with-equal-ends": (
        "defi",
        {
            "kind": "lineness",
            "primitives": [{"type": "point", "p": ["0", "0"]}],
            "candidates": [{"p": ["0", "0"], "q": ["0", "0"]}],
        },
    ),
}

# the whole message of the MALFORMED entries that name their field
FIELD_NAMED = {
    "simple-piece-as-string": "parse error: a simple piece must be an object, got 'ab'\n",
    "piecewise-piece-as-string": "parse error: a piecewise piece must be an object, got 'ab'\n",
    "space-as-string": "parse error: space description must be an object, got 'ab'\n",
    "one-bound": "parse error: bounds must be two numbers, got 1\n",
    "three-bounds": "parse error: bounds must be two numbers, got 3\n",
    "scenario-as-string": "parse error: scenario description must be an object, got 'ab'\n",
    "function-as-boolean": "parse error: function description must be an object, got True\n",
    "jump-as-string": "parse error: a jump must be an object, got '0'\n",
    "global-as-number": "parse error: a global component must be an object, got 5\n",
    "primitives-as-numbers": "parse error: a primitive must be an object, got 0\n",
    "candidate-as-boolean": "parse error: a candidate must be an object, got True\n",
    "pi1-as-string": "parse error: pi1 must be an object, got '1'\n",
    "pi2-as-list": "parse error: pi2 must be an object, got [1]\n",
    "pi1-without-kind": "parse error: expr_from_json: KeyError: 'kind'\n",
    "pi1-kind-as-number": "parse error: an expression's kind must be a string, got 5\n",
    "space-kind-unknown": "parse error: unknown space kind 'sphere'\n",
    "negative-dim-offset": "parse error: space_from_json: ValueError: dim_offset must be nonnegative\n",
    "negative-simple-coefficient": "parse error: function_from_json: ValueError: negative coefficient (1, -1)\n",
    "lineness-point-of-one-coordinate": "parse error: a point is a pair of rationals, got ['1']\n",
    "candidate-with-equal-ends": "parse error: a candidate needs two distinct points, got (0, 0) twice\n",
}


class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_exit_2_without_traceback(self, name, tmp_path, capsys):
        sub, *files = MALFORMED[name]
        paths = [write(tmp_path, f"{k}.json", obj) for k, obj in enumerate(files)]
        assert main([sub, *paths]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error") and "Traceback" not in err
        assert err == FIELD_NAMED.get(name, err)


def _not_text_input(where, value):
    """A subcommand and its files, with the JSON value `value` where a
    "(d, m)" text belongs: a continuity remainder, an atom weight or a
    simple function's coefficient."""
    if where == "remainder":
        return "defi", [{"kind": "continuity", "jumps": [{"x": "1", "remainder": value}]}]
    if where == "weight":
        return "eval", [{"kind": "atoms", "atoms": {"a": value}}, {"simple": []}]
    coeff = {"simple": [{"coeff": value, "set": {"atoms": ["a"]}}]}
    return "eval", [{"kind": "atoms", "atoms": {"a": "(0, 1)"}}, coeff]


class TestValueNotText:
    @pytest.mark.parametrize("value", [1, True, None, 2.5, [1]], ids=json.dumps)
    @pytest.mark.parametrize("where", ["remainder", "weight", "coeff"])
    def test_exit_2_naming_the_expected_form(self, where, value, tmp_path, capsys):
        sub, files = _not_text_input(where, value)
        paths = [write(tmp_path, f"{k}.json", obj) for k, obj in enumerate(files)]
        assert main([sub, *paths]) == 2
        assert capsys.readouterr().err == f"parse error: expected '(d, m)', got {value!r}\n"


def _unreadable(tmp_path, name):
    """A path that cannot be read as JSON text: a directory, bytes that
    are not UTF-8, or arrays nested past the parser's recursion limit."""
    if name == "directory":
        return str(tmp_path)
    p = tmp_path / f"{name}.json"
    if name == "not-utf8":
        p.write_bytes(b'{"kind": "\xff\xfe"}')
    else:
        p.write_text("[" * 100_000)
    return str(p)


class TestUnreadableInput:
    @pytest.mark.parametrize("name", ["directory", "not-utf8", "nested-too-deep"])
    @pytest.mark.parametrize("sub", ["eval", "defi"])
    def test_exit_2_without_traceback(self, sub, name, tmp_path, capsys):
        path = _unreadable(tmp_path, name)
        assert main([sub, path] + ([path] if sub == "eval" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {path}: ") and "Traceback" not in err


class TestInputEncoding:
    def test_utf8_input_reads_under_an_ascii_locale(self, tmp_path, capsys):
        # JSON text is UTF-8 whatever the locale; under the C locale, with
        # Python's UTF-8 mode and locale coercion off, the default encoding
        # for open() is ASCII
        space = tmp_path / "s.json"
        space.write_bytes('{"kind": "atoms", "atoms": {"é": "(0, 1)", "b": "(1, 2)"}}'.encode("utf-8"))
        fn = tmp_path / "f.json"
        fn.write_bytes(
            '{"simple": [{"coeff": "(1, 1)", "set": {"atoms": ["é"]}},'
            ' {"coeff": "(0, 3)", "set": {"atoms": ["b"]}}]}'.encode("utf-8")
        )
        argv = ["eval", str(space), str(fn), "--certificate", "--json"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        assert json.loads(expected)["value"] == "(1, 7)" and "\\u00e9" in expected
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        env["PYTHONPATH"] = str(Path(hintegral.__file__).parent.parent)
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from hintegral.cli import main; sys.exit(main())", *argv],
            env=env,
            capture_output=True,
            text=True,
        )
        assert (run.returncode, run.stderr, run.stdout) == (0, "", expected)


# SHA-256 of f"{exit code}\n{stdout}" of `laws --trials 100 --seed k --json`,
# k = 0..4: a change to the value arithmetic, the law suites or their draws
# that alters a report fails here.
LAWS_SHA256 = [
    "5d2503eea0df97134853f1bf05c4f5ccee829b0b7f394ca1e9c7afbef441c145",
    "5e14fd67a787982b9c4786c90740fd6b1201623ad5dd9f56da326ddd3930ccd9",
    "94b39b2fd71030c8cc73bccc495c92a3a1b8c327f643da35141ef19b9ea223d4",
    "6fdc08d0b0c6e94d32c75d5e324fd90342b8fc5a3c5e78cfccfc4ddee8144d83",
    "44191c8b637a4eec9490a54558c862c22cc2a602ea3a804ddbdd5396527bfa5e",
]


class TestLaws:
    @pytest.mark.parametrize("seed", range(len(LAWS_SHA256)))
    def test_pinned_json_output(self, seed, capsys):
        code = main(["laws", "--trials", "100", "--seed", str(seed), "--json"])
        out = capsys.readouterr().out
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == LAWS_SHA256[seed]

    def test_small_clean_run(self, capsys):
        assert main(["laws", "--trials", "50", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "algebra" in out and "integral" in out

    def test_zero_trials(self, capsys):
        assert main(["laws", "--trials", "0"]) == 0

    def test_negative_trials_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["laws", "--trials", "-5"])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    def test_json_report(self, capsys):
        assert main(["laws", "--trials", "20", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["law"] for r in reports] == ["algebra", "integral"]
        assert all(r["violations"] == [] for r in reports)

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_both_paths_print_the_same(self, seed, flags, monkeypatch, capsys):
        argv = ["--trials", "100", "--seed", str(seed), *flags]
        forked = run_laws(monkeypatch, capsys, 2, argv)
        in_turn = run_laws(monkeypatch, capsys, 1, argv)
        assert (forked[3], in_turn[3]) == (1, 0)
        assert forked[:3] == in_turn[:3]

    @pytest.mark.parametrize("error, code, prefix", [
        (UndefinedSumError, 4, "undefined sum"), (ParseError, 2, "parse error"),
    ])
    def test_a_package_error_in_the_child_exits_as_in_turn(self, error, code, prefix, monkeypatch, capsys):
        def failing(trials, seed):
            raise error(f"seed {seed}")

        monkeypatch.setattr(cli, "check_algebra_laws", failing)
        argv = ["--trials", "10", "--seed", "3"]
        assert run_laws(monkeypatch, capsys, 2, argv) == (code, "", f"{prefix}: seed 3\n", 1)
        assert run_laws(monkeypatch, capsys, 1, argv) == (code, "", f"{prefix}: seed 3\n", 0)

    def test_a_package_error_in_the_parent_reaps_the_child(self, monkeypatch, capsys):
        def failing(trials, seed):
            raise UndefinedSumError("integral")

        monkeypatch.setattr(cli, "check_integral_laws", failing)
        assert run_laws(monkeypatch, capsys, 2, ["--trials", "10"]) == (4, "", "undefined sum: integral\n", 1)

    @pytest.mark.parametrize("failing, message", [
        (lambda trials, seed: 1 / 0, "raised builtins.ZeroDivisionError: division by zero"),
        (lambda trials, seed: os._exit(3), "ended with code 3 and no report"),
    ])
    def test_any_other_failure_in_the_child_raises(self, failing, message, monkeypatch, capsys):
        monkeypatch.setattr(cli, "check_algebra_laws", failing)
        with pytest.raises(RuntimeError, match=message):
            run_laws(monkeypatch, capsys, 2, ["--trials", "10"])

    def test_a_report_longer_than_the_pipe_comes_through_whole(self, monkeypatch, capsys):
        violations = [{"law": "commutativity", "seed": i, "a": f"({i}, 1)"} for i in range(50_000)]
        report = LawReport("algebra", 10, 0, 9, violations)
        monkeypatch.setattr(cli, "check_algebra_laws", lambda trials, seed: report)
        argv = ["--trials", "10", "--json"]
        forked = run_laws(monkeypatch, capsys, 2, argv)
        assert forked[0] == 1 and forked[3] == 1
        assert json.loads(forked[1])[0] == report.to_json()
        assert forked[:3] == run_laws(monkeypatch, capsys, 1, argv)[:3]

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_in_turn_on_a_platform_without(self, missing, monkeypatch, capsys):
        argv = ["--trials", "20", "--seed", "5"]
        code, out, err, _ = run_laws(monkeypatch, capsys, 1, argv)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(os, missing)
        assert main(["laws", *argv]) == code
        assert capsys.readouterr() == (out, err)

    def test_in_turn_while_another_thread_runs(self, monkeypatch, capsys):
        argv = ["--trials", "20", "--seed", "5"]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with_thread = run_laws(monkeypatch, capsys, 2, argv)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert with_thread[3] == 0
        assert with_thread[:3] == run_laws(monkeypatch, capsys, 1, argv)[:3]

    def test_unflushed_output_before_a_forked_run_appears_once(self):
        # stdout is a buffered pipe, so the text waits in its buffer when the child forks
        script = (
            "import os, sys\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from hintegral.cli import main\n"
            "print('before the run', end=' ')\n"
            "code = main(['laws', '--trials', '20'])\n"
            "print(len(forks), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(hintegral.__file__).parent.parent)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert (run.returncode, run.stderr) == (0, "1\n")
        assert run.stdout.startswith("before the run algebra: 20 trials")
        assert run.stdout.count("before the run") == 1


def run_laws(monkeypatch, capsys, cpus, argv):
    """``main(["laws", *argv])`` with ``cpus`` CPUs for the process: its exit
    code, stdout, stderr and fork count.  No child is left behind, also
    when main raises."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(os, "fork", counted_fork)
        try:
            code = main(["laws", *argv])
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
    out, err = capsys.readouterr()
    return code, out, err, len(forks)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestParserReuse:
    def test_one_parser_serves_every_call_as_a_fresh_process_would(self, capsys):
        assert build_parser() is build_parser()
        space, fn = str(SCENARIOS / "space_unit_interval.json"), str(SCENARIOS / "function_root2.json")
        runs = [
            ["laws", "--trials", "-5"],
            ["eval", space, fn, "--certificate", "--json"],
            ["eval", space, fn],
            ["defi", str(SCENARIOS / "lineness_segments.json"), "--json"],
            ["laws", "--json"],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(hintegral.__file__).parent.parent))
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:  # an argparse error
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "hintegral.cli", *argv], env=env, capture_output=True, text=True
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert build_parser() is build_parser()


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

    def test_other_line_beats_an_irrational_norm(self, tmp_path, capsys):
        # the line x = 0 gives (1, inf) along y = x, whose norm sqrt(2) is
        # then never needed
        s = {
            "kind": "lineness",
            "primitives": [
                {"type": "line", "p": ["0", "0"], "q": ["0", "1"]},
                {"type": "segment", "p": ["0", "0"], "q": ["2", "0"]},
            ],
            "candidates": [{"p": ["0", "0"], "q": ["1", "1"]}],
        }
        assert main(["defi", write(tmp_path, "c.json", s)]) == 0
        assert capsys.readouterr().out == "(1, inf)\nbest line: 1*x + -1*y = 0\n"

    def test_global_name_next_to_a_jump(self, tmp_path, capsys):
        s = {
            "kind": "continuity",
            "jumps": [{"x": "0", "remainder": "(0, 1)"}],
            "global": {"name": "jump:0", "hvalue": "(1, inf)", "remainder": "(0, 1)"},
        }
        assert main(["defi", write(tmp_path, "c.json", s)]) == 0
        assert capsys.readouterr().out.strip() == "(1, inf)"

    def test_unsupported_scenario_exit_3(self, tmp_path):
        s = {"kind": "convexity", "points": [["0", "0"], ["1", "1"]]}
        assert main(["defi", write(tmp_path, "c.json", s)]) == 3

    def test_segment_with_points_exit_3(self, tmp_path, capsys):
        # the points were once dropped and the segment alone gave (0, 0)
        s = {
            "kind": "convexity",
            "segment": [["0", "0"], ["1", "0"]],
            "points": [["0", "1"], ["1", "1"]],
        }
        assert main(["defi", write(tmp_path, "c.json", s)]) == 3
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kind, field", [
        ("continuity", "jumps"), ("convexity", "points"),
        ("lineness", "primitives"), ("lineness", "candidates"),
    ])
    @pytest.mark.parametrize("value", ["", "ab", {}, {"p": ["0", "0"]}, 3, None])
    def test_a_list_field_given_as_anything_else_exit_2(self, kind, field, value, tmp_path, capsys):
        # an empty string or object was once read as an empty list, and exited 0
        s = {"kind": kind, field: value}
        if kind == "lineness":
            s = {"primitives": [], "candidates": [{"p": ["0", "0"], "q": ["1", "0"]}]} | s
        assert main(["defi", write(tmp_path, "c.json", s)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"parse error: {field} must be a list, got {value!r}\n"


    @pytest.mark.parametrize("segment, message", [
        ({"p": ["0", "0"], "q": ["1", "0"]}, "segment must be a list, got {'p': ['0', '0'], 'q': ['1', '0']}"),
        ("ab", "segment must be a list, got 'ab'"),
        ([["0", "0"]], "segment must be two points, got 1"),
        ([["0", "0"], ["1", "0"], ["2", "0"]], "segment must be two points, got 3"),
    ])
    def test_a_segment_not_two_points_exit_2(self, segment, message, tmp_path, capsys):
        # a dict or string was once unpacked as its keys or characters
        s = {"kind": "convexity", "segment": segment}
        assert main(["defi", write(tmp_path, "c.json", s)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"parse error: {message}\n"


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
CATALOG_SPACE = SCENARIOS / "space_catalog_line_point.json"
DENSITY_SPACE = SCENARIOS / "space_density_interval.json"
# `defi --json` output of each bundled scenario file
DEFI_GOLDENS = {
    "continuity_dirichlet.json": {"value": "(1, inf)"},
    "continuity_single_jump.json": {"value": "(0, 1)"},
    "convexity_segment.json": {"value": "(0, 0)"},
    "convexity_three_collinear.json": {"value": "(1, 8)"},
    "convexity_two_points.json": {"value": "(1, 2)"},
    "lineness_line_and_point.json": {"value": "(0, 1)", "best_line": "0*x + 1*y = 0"},
    "lineness_segments.json": {"value": "(1, 9)", "best_line": "0*x + 1*y = 0"},
}


def _witness(lo, hi, measure, inf_bound):
    where = {"intervals": [[lo, hi]], "points": []}
    return {"set": where, "measure": measure, "inf_bound": inf_bound}


def _eval_golden(value, witnesses, achieved_m):
    """Both witness lists are the one list of top terms."""
    cert = {
        "value": value,
        "d_witnesses": witnesses,
        "m_witnesses": witnesses,
        "exact_m": True,
        "achieved_m": achieved_m,
    }
    return {"value": value, "certificate": cert}


# each bundled function file: the space it runs over, and its
# `eval --json --certificate` output there
EVAL_GOLDENS = {
    # sup of sqrt(x) on (0, 1) is not attained and no piece is the
    # constant 1: one zero-mass witness, on whose closure sqrt(x)
    # reaches the bound's dimension 1 at x = 1
    "function_root2.json": (
        UNIT_SPACE,
        _eval_golden("(2, 0)", [_witness("0", "1", "(1, 1)", "(1, 0)")], "0"),
    ),
    "function_const_1_1.json": (
        UNIT_SPACE,
        _eval_golden("(2, 1)", [_witness("0", "1", "(1, 1)", "(1, 1)")], "1"),
    ),
    # one witness carries the piece's exact mass: x averages 1/2 on (0, 1)
    "function_affine_mass.json": (
        UNIT_SPACE,
        _eval_golden("(2, 1/2)", [_witness("0", "1", "(1, 1)", "(1, 1/2)")], "1/2"),
    ),
    # the mass of sqrt(x) goes through the power integral: 2/3 on (0, 1)
    "function_root_mass.json": (
        UNIT_SPACE,
        _eval_golden("(2, 2/3)", [_witness("0", "1", "(1, 1)", "(1, 2/3)")], "2/3"),
    ),
    # under the density 1/2 + 3x/4 the mass of sqrt(x) on (0, 1) is
    # 1/2 * 2/3 + 3/4 * 2/5 = 19/30 and the measure 1/2 + 3/8 = 7/8, so
    # the witness's bound is the mean 19/30 / (7/8) = 76/105
    "function_root_mass_density.json": (
        DENSITY_SPACE,
        _eval_golden("(2, 19/30)", [_witness("0", "1", "(1, 7/8)", "(1, 76/105)")], "19/30"),
    ),
    # the same function cut at 1/4 and 1/2: the three top pieces share
    # sqrt(x) and touch, so they are one run and one witness, and
    # sqrt(x)**3 at the irrational cut 1/2 never enters
    "function_split_root_mass.json": (
        UNIT_SPACE,
        _eval_golden("(2, 2/3)", [_witness("0", "1", "(1, 1)", "(1, 2/3)")], "2/3"),
    ),
    # on an interval space a simple function is lowered to constant
    # pieces and its null point 3/4 goes: the run of the top dimension is
    # one witness, and (1, 1) x (1, 1/2) is the whole value
    "function_simple_interval_point.json": (
        UNIT_SPACE,
        _eval_golden("(2, 1/2)", [_witness("0", "1/2", "(1, 1/2)", "(1, 1)")], "1/2"),
    ),
    # (0, 1) x ((1, inf) + (0, 1)); the catalog set {p, L} is written as its atoms
    "function_catalog_line_point.json": (
        CATALOG_SPACE,
        _eval_golden(
            "(1, inf)",
            [{"set": {"atoms": ["L", "p"]}, "measure": "(1, inf)", "inf_bound": "(0, 1)"}],
            "inf",
        ),
    ),
}


class TestBundledScenarios:
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.name)
    def test_replay_matches_golden(self, path, capsys):
        if path.name in DEFI_GOLDENS:
            assert main(["defi", str(path), "--json"]) == 0
            assert json.loads(capsys.readouterr().out) == DEFI_GOLDENS[path.name]
        elif path.name in EVAL_GOLDENS:
            space, golden = EVAL_GOLDENS[path.name]
            assert main(["eval", str(space), str(path), "--json", "--certificate"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out == golden
            sp = space_from_json(json.loads(space.read_text()))
            f = function_from_json(json.loads(path.read_text()))
            assert verify_certificate(sp, f, _certificate(out["certificate"]))
        else:
            # a space file is replayed by the function goldens over it
            spaces = {space for space, _ in EVAL_GOLDENS.values()}
            assert path in spaces, f"{path.name} has no golden"


class TestRoundTrip:
    def test_rendered_values_reparse(self, capsys, tmp_path):
        main(["demo", "distributivity"])
        out = capsys.readouterr().out
        # every parenthesized pair in the transcript reparses
        import re

        for token in re.findall(r"\([^()]*\)", out):
            HValue.parse(token)


# More decimal digits than CPython's default limit (4300) for converting
# between int and str.  BARE as a JSON value stands for LONG as a bare
# number literal, which json.dumps would not write under that limit, and
# inside a string for LONG's digits.
LONG = "1" + "0" * 5000
BARE = "@bare-literal@"


def _text(obj):
    return json.dumps(obj).replace(f'"{BARE}"', LONG).replace(BARE, LONG)


def _mass(pi2):
    return {"pieces": [{**_piece("0", "1"), "pi2": pi2}]}


def _certificate(obj):
    """The certificate that `eval --certificate --json` wrote as obj."""

    def witness(w):
        return Witness(set_from_json(w["set"]), HValue.parse(w["measure"]), HValue.parse(w["inf_bound"]))

    return T4Certificate(
        HValue.parse(obj["value"]),
        tuple(map(witness, obj["d_witnesses"])),
        tuple(map(witness, obj["m_witnesses"])),
        obj["exact_m"],
        ExtRat.parse(obj["achieved_m"]),
    )


class TestLongNumbers:
    def test_certificate_of_a_high_power(self, tmp_path, capsys):
        fn = _mass({"kind": "pow", "q": "10001/2"})
        argv = ["eval", str(UNIT_SPACE), write(tmp_path, "f.json", fn), "--certificate"]
        assert main(argv) == 0
        value, cert = capsys.readouterr().out.split("\n", 1)
        assert value == "(2, 2/10003)"
        cert = json.loads(cert)
        assert cert["value"] == value
        # one witness carries the piece's exact mass, 2/10003 over the measure 1
        (w,) = cert["m_witnesses"]
        assert w == _witness("0", "1", "(1, 1)", "(1, 2/10003)")
        sp = space_from_json(json.loads(UNIT_SPACE.read_text()))
        assert verify_certificate(sp, function_from_json(fn), _certificate(cert))

    @pytest.mark.parametrize(
        "sub, files, out",
        [
            ("eval", [SPACE, _mass({"kind": "const", "value": "1e5000"})], "(2, " + LONG + ")"),
            ("eval", [SPACE, _mass({"kind": "const", "value": BARE})], "(2, " + LONG + ")"),
            (
                "defi",
                [{"kind": "continuity", "jumps": [{"x": "0", "remainder": "(0, 1e5000)"}]}],
                "(0, " + LONG + ")",
            ),
        ],
        ids=["string-mass", "literal-mass", "defi-remainder"],
    )
    def test_value_is_printed_exactly(self, sub, files, out, tmp_path, capsys):
        paths = []
        for k, obj in enumerate(files):
            paths.append(tmp_path / f"{k}.json")
            paths[-1].write_text(_text(obj))
        assert main([sub, *map(str, paths)]) == 0
        assert capsys.readouterr().out == out + "\n"


def _requests(numbers):
    """JSON-shaped `eval` and `defi` requests whose numbers are drawn
    from `numbers`.  A `pow` exponent is small, fractional with large
    parts inside the bounds of `exprs.power`, or past them.  An integral
    exponent near `exprs.MAX_DEGREE` is left out: it is a dense
    polynomial, whose lower bound with long numbers is too slow to
    compute in a test (ROADMAP item 6)."""
    exponents = st.one_of(
        st.fractions(-1, 6, max_denominator=3).map(str),
        st.sampled_from(
            [2, "x", "10001/2", "65535/65533", "1e5000", "1e5000/3", "65", LONG + "/3"]
        ),
    )
    hvalues = st.builds(lambda d, m: f"({d}, {m})", numbers, st.one_of(numbers, st.just("inf")))
    points = st.lists(numbers, min_size=2, max_size=2)
    # a pair drawn in order is an interval more often than not
    spans = st.one_of(
        points,
        st.lists(st.fractions(0, 3, max_denominator=4), min_size=2, max_size=2, unique=True).map(
            lambda ab: [str(x) for x in sorted(ab)]
        ),
    )
    expressions = st.one_of(
        st.builds(lambda v: {"kind": "const", "value": v}, numbers),
        st.builds(lambda a, b: {"kind": "affine", "a": a, "b": b}, numbers, numbers),
        st.builds(lambda q: {"kind": "pow", "q": q}, exponents),
        st.builds(lambda cs: {"kind": "poly", "coeffs": cs}, st.lists(numbers, max_size=4)),
        st.builds(lambda k: {"kind": k}, st.sampled_from(["const", "cubic"])),
    )
    one_span = st.builds(lambda iv: {"intervals": [iv]}, spans)
    names = st.sampled_from(["a", "b", 1])
    sets = st.one_of(
        one_span,
        st.builds(
            lambda ivs, pts: {"intervals": ivs, "points": pts},
            st.lists(spans, max_size=2),
            st.lists(numbers, max_size=2),
        ),
        st.builds(lambda a: {"atoms": a}, st.lists(names, max_size=2)),
        st.builds(lambda c: {"catalog": c}, st.lists(names, max_size=2)),
    )
    spaces = st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("interval"), "bounds": spans},
            optional={"dim_offset": numbers, "density": st.lists(numbers, max_size=3)},
        ),
        st.builds(
            lambda w: {"kind": "atoms", "atoms": w},
            st.dictionaries(st.sampled_from("ab"), hvalues, max_size=2),
        ),
        st.builds(
            lambda sets: {"kind": "catalog", "sets": sets},
            st.lists(
                st.fixed_dictionaries(
                    {"name": names, "hvalue": hvalues},
                    optional={
                        "ambient": st.one_of(st.integers(0, 3), numbers),
                        "set_kind": st.sampled_from(["line", "blob"]),
                    },
                ),
                max_size=2,
            ),
        ),
    )
    functions = st.one_of(
        st.builds(
            lambda ps: {"pieces": ps},
            st.lists(
                st.fixed_dictionaries(
                    {"set": st.one_of(one_span, sets), "pi1": expressions, "pi2": expressions}
                ),
                max_size=3,
            ),
        ),
        st.fixed_dictionaries(
            {"simple": st.lists(st.fixed_dictionaries({"coeff": hvalues, "set": sets}), max_size=3)},
            optional={"i_simple": st.sampled_from([True, False, "false"])},
        ),
    )
    primitives = st.fixed_dictionaries(
        {"type": st.sampled_from(["point", "line", "segment"]), "p": points, "q": points}
    )
    jumps = st.fixed_dictionaries({"x": numbers, "remainder": hvalues})
    scenarios = st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("continuity"), "jumps": st.lists(jumps, max_size=3)},
            optional={
                "global": st.fixed_dictionaries(
                    {"name": st.sampled_from(["R", "jump:0"]), "hvalue": hvalues, "remainder": hvalues}
                )
            },
        ),
        st.fixed_dictionaries(
            {
                "kind": st.just("lineness"),
                "primitives": st.lists(primitives, max_size=3),
                "candidates": st.lists(
                    st.fixed_dictionaries({"p": points, "q": points}), min_size=1, max_size=2
                ),
            }
        ),
        st.fixed_dictionaries({"kind": st.just("convexity"), "points": st.lists(points, max_size=4)}),
        st.fixed_dictionaries(
            {"kind": st.just("convexity"), "segment": st.lists(points, min_size=2, max_size=2)}
        ),
    )
    return st.one_of(
        st.tuples(st.just("eval"), spaces, functions), st.tuples(st.just("defi"), scenarios)
    )


# Numbers as JSON carries them: exact ones, small and past the 4300-digit
# limit, as strings and as bare literals; and values that are not exact
# rationals.  Half the requests hold exact numbers only, so that they get
# past the loaders.
exact = st.one_of(
    st.integers(0, 3),
    st.fractions(0, 3, max_denominator=4).map(str),
    st.sampled_from([-1, "-1/2", "1e5000", "-1e5000", LONG, BARE, "1/" + LONG]),
)
inexact = st.sampled_from(["inf", "x", "1/0", "", 0.5, True, None, [], {}])


class TestFuzzedInput:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(_requests(exact), _requests(st.one_of(exact, inexact))))
    def test_exit_code_is_documented(self, request):
        sub, *objs = request
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for k, obj in enumerate(objs):
                paths.append(f"{tmp}/{k}.json")
                Path(paths[-1]).write_text(_text(obj))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([sub, *paths])
        assert code in (0, 2, 3, 4), err.getvalue()
