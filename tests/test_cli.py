import csv
import json
import math
from fractions import Fraction
from itertools import islice

import pytest

from meanmotion import cli
from meanmotion.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)
from meanmotion.core import ExpPolynomial
from meanmotion.errors import PolynomialLoadError
from meanmotion.io import (
    parse_polynomial,
    parse_polynomial_file,
    polynomial_to_dict,
    write_polynomial_file,
)
from meanmotion.motion import compare_estimators


# files the JSON decoder cannot read: nested beyond its recursion limit,
# and UTF-16 with a byte-order mark
UNREADABLE = pytest.mark.parametrize("raw", [
    b"[" * 200000 + b"]" * 200000,
    b'\xff\xfe{\x00"\x00d\x00"\x00}\x00',
], ids=["deep-nesting", "not-utf8"])
# every command that loads a polynomial file, with its other arguments
POLY_COMMANDS = pytest.mark.parametrize("argv", [
    ["eval", "--z", "0"],
    ["basis"],
    ["zeros", "--interval=0.5,1"],
    ["track", "--interval=0.5,1"],
    ["mm", "--torus-samples", "20"],
], ids=lambda argv: argv[0])


@pytest.fixture
def sin_file(tmp_path, sin_poly):
    path = tmp_path / "sin.json"
    write_polynomial_file(sin_poly, path)
    return str(path)


class TestIo:
    def test_round_trip_bit_equal(self, tmp_path, sin_poly):
        path = tmp_path / "p.json"
        write_polynomial_file(sin_poly, path)
        again = parse_polynomial_file(path)
        assert again == sin_poly
        path2 = tmp_path / "p2.json"
        write_polynomial_file(again, path2)
        assert path.read_text() == path2.read_text()

    def test_round_trip_awkward_exponents(self, tmp_path):
        P = ExpPolynomial.from_pairs(
            3,
            [
                (1.25 - 0.5j, ["-7/3", "0", "22/7"]),
                (2.0j, ["1/2", "-1", "0"]),
            ],
        )
        path = tmp_path / "p.json"
        write_polynomial_file(P, path)
        assert parse_polynomial_file(path) == P

    def test_duplicate_exponents_name_both_terms(self):
        obj = {
            "dimension": 1,
            "terms": [
                {"re": 1, "im": 0, "exponent": ["1"]},
                {"re": 2, "im": 0, "exponent": ["2"]},
                {"re": 3, "im": 0, "exponent": ["1"]},
            ],
        }
        with pytest.raises(PolynomialLoadError, match="terms 0 and 2"):
            parse_polynomial(obj)

    def test_malformed_rational_names_term(self):
        obj = {
            "dimension": 1,
            "terms": [{"re": 1, "im": 0, "exponent": ["1/0"]}],
        }
        with pytest.raises(PolynomialLoadError, match="term 0"):
            parse_polynomial(obj)

    def test_wrong_exponent_length(self):
        obj = {
            "dimension": 2,
            "terms": [{"re": 1, "im": 0, "exponent": ["1"]}],
        }
        with pytest.raises(PolynomialLoadError, match="length 1"):
            parse_polynomial(obj)

    def test_zero_coefficient_rejected(self):
        obj = {
            "dimension": 1,
            "terms": [{"re": 0, "im": 0, "exponent": ["1"]}],
        }
        with pytest.raises(PolynomialLoadError, match="zero coefficient"):
            parse_polynomial(obj)

    @pytest.mark.parametrize("field, value, match", [
        ("dimension", 1.9, "dimension"),
        ("dimension", True, "dimension"),
        ("dimension", "1", "dimension"),
        ("terms", 5, "terms"),
        ("terms", None, "terms"),
        ("exponent", "1", "term 0"),
        ("re", True, "term 0"),
        ("im", "2", "term 0"),
        pytest.param("re", 10**400, "term 0", id="re-int-beyond-double"),
    ])
    def test_malformed_types_rejected(self, field, value, match):
        # no silent truncation or conversion, and no TypeError from
        # iterating a non-list
        term = {"re": 1, "im": 0, "exponent": ["1"]}
        obj = {"dimension": 1, "terms": [term]}
        (obj if field in obj else term)[field] = value
        with pytest.raises(PolynomialLoadError, match=match):
            parse_polynomial(obj)

    @UNREADABLE
    def test_unreadable_json_is_load_error(self, tmp_path, raw):
        # a RecursionError or UnicodeDecodeError from the decoder is a load
        # error like any other malformed file
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(PolynomialLoadError, match="is not valid JSON"):
            parse_polynomial_file(path)

    def test_dict_form_uses_exact_strings(self, sin_poly):
        d = polynomial_to_dict(sin_poly)
        assert d["terms"][0]["exponent"] == ["1"]
        assert d["terms"][1]["exponent"] == ["-1"]


class TestEval:
    def test_value(self, sin_file, capsys):
        code = main(
            ["eval", "--poly", sin_file, "--z", str(math.pi / 2)]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["re"] == pytest.approx(1.0)
        assert out["im"] == pytest.approx(0.0, abs=1e-12)

    def test_missing_file(self, capsys):
        code = main(["eval", "--poly", "/no/such.json", "--z", "0"])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "PolynomialLoadError"

    @pytest.mark.parametrize("z", ["nan", "inf", "1+nanj", "-infj"])
    def test_non_finite_point(self, sin_file, capsys, z):
        assert main(["eval", "--poly", sin_file, f"--z={z}"]) == EXIT_INPUT_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == "ValueError"

    def test_overflowing_value_is_input_error(self, sin_file, capsys):
        # sin(800i) overflows a double: an error, not {"im": Infinity, ...}
        assert main(["eval", "--poly", sin_file, "--z", "800j"]) == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "DegenerateInputError"
        assert "not finite" in out["message"]

    @pytest.mark.parametrize("body", [
        '{"dimension": 1.9, "terms": [{"re": 1, "im": 0, "exponent": ["1"]}]}',
        '{"dimension": true, "terms": [{"re": 1, "im": 0, "exponent": ["1"]}]}',
        '{"dimension": 1, "terms": 5}',
        '{"dimension": 1, "terms": null}',
        '{"dimension": 1, "terms": [{"re": 1, "im": 0, "exponent": "1"}]}',
        '{"dimension": 1, "terms": [{"re": true, "im": "2", "exponent": ["1"]}]}',
        '[]',
        '{"dimension": 1,',
        '{"dimension": 1, "terms": [{"re": 1%s, "im": 0, "exponent": ["1"]}]}' % ("0" * 400),
    ], ids=["float-dimension", "bool-dimension", "int-terms", "null-terms",
            "string-exponent", "bool-and-string-coefficient", "list", "not-json",
            "int-beyond-double-coefficient"])
    def test_malformed_file_is_input_error(self, tmp_path, capsys, body):
        path = tmp_path / "bad.json"
        path.write_text(body)
        code = main(["eval", "--poly", str(path), "--z", "0"])
        assert code == EXIT_INPUT_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == "PolynomialLoadError"

    @UNREADABLE
    @POLY_COMMANDS
    def test_unreadable_file_is_input_error(self, tmp_path, capsys, raw, argv):
        # exit 2 with the error JSON, not a traceback with the
        # verification-failure code 1 or a UnicodeDecodeError
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main([argv[0], "--poly", str(path), *argv[1:]]) == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "PolynomialLoadError"
        assert out["message"].startswith(f"{path} is not valid JSON")

    def test_zero_denominator_named(self, tmp_path, capsys):
        # the message says what is wrong and shows the exponent as given
        path = tmp_path / "zero-denominator.json"
        path.write_text(
            '{"dimension": 1, "terms": [{"re": 1, "im": 0, "exponent": ["1/0"]}]}'
        )
        assert main(["eval", "--poly", str(path), "--z", "0"]) == EXIT_INPUT_ERROR == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "PolynomialLoadError"
        assert out["message"] == "term 0: zero denominator in ['1/0']"

    def test_non_finite_coefficient(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"dimension": 1, "terms": [{"re": NaN, "im": 0, "exponent": ["1"]},'
            ' {"re": 1, "im": 0, "exponent": ["-1"]}]}'
        )
        code = main(["mm", "--poly", str(path), "--torus-samples", "20"])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "PolynomialLoadError"
        assert "term 0" in out["message"]

    @POLY_COMMANDS
    def test_exponent_beyond_double_range(self, tmp_path, capsys, argv):
        # "1e400" is an exact rational but no double: an input error, not
        # an OverflowError traceback with the verification-failure code
        path = tmp_path / "huge.json"
        path.write_text(
            '{"dimension": 1, "terms": [{"re": 1, "im": 0, "exponent": ["1e400"]},'
            ' {"re": 1, "im": 0, "exponent": ["1"]}]}'
        )
        code = main([argv[0], "--poly", str(path), *argv[1:]])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "PolynomialLoadError"
        assert "term 0" in out["message"]

    @pytest.mark.parametrize("argv", [
        ["basis"],
        ["mm", "--torus-samples", "20", "--windows", "5", "--lines", "16"],
    ], ids=lambda argv: argv[0])
    def test_exponent_below_double_range(self, tmp_path, capsys, argv):
        # "1e-400" loads (it is 0.0 as a double), but its lattice coordinate
        # against "1" is 10**400: an input error, not an OverflowError
        path = tmp_path / "tiny.json"
        path.write_text(
            '{"dimension": 1, "terms": [{"re": 1, "im": 0, "exponent": ["1e-400"]},'
            ' {"re": 1, "im": 0, "exponent": ["1"]}]}'
        )
        code = main([argv[0], "--poly", str(path), *argv[1:]])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "DegenerateInputError"
        assert "double range" in out["message"]


class TestBasis:
    def test_sin_basis(self, sin_file, capsys):
        assert main(["basis", "--poly", sin_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == 1
        assert out["basis"] == [["1"]]
        assert out["coords"] == [[1], [-1]]


@pytest.fixture
def diff_file(tmp_path):
    # e^{iz_1} - e^{iz_2}: the line x_2 = c has its zeros at s = c mod 2 pi
    path = tmp_path / "diff.json"
    write_polynomial_file(
        ExpPolynomial.from_pairs(2, [(1, ["1", "0"]), (-1, ["0", "1"])]), path
    )
    return str(path)


class TestZerosAndTrack:
    def test_zeros(self, sin_file, capsys):
        code = main(
            ["zeros", "--poly", sin_file, "--interval=-1,1"]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert len(out["zeros"]) == 1
        assert out["zeros"][0]["location"] == pytest.approx(0.0, abs=1e-8)
        assert out["zeros"][0]["multiplicity"] == 1

    @pytest.mark.parametrize(
        "branch, total",
        [("plus", -math.pi), ("minus", math.pi)],
        ids=["plus", "minus"],
    )
    def test_track_with_csv(self, sin_file, capsys, tmp_path, branch, total):
        # one run reports both branches; each case reads its own from the
        # JSON and from its CSV column
        trace_path = tmp_path / "trace.csv"
        argv = ["track", "--poly", sin_file, "--interval=-0.5,0.5"]
        code = main([*argv, "--trace-csv", str(trace_path)])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"interval", "zeros", "smooth_increment", "jump_increment",
                            "plus", "minus"}
        assert out[branch] == pytest.approx(total, abs=1e-9)
        assert out["jump_increment"] == pytest.approx(math.pi, abs=1e-9)
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "plus", "minus"]
        assert len(rows) > 10
        column = rows[0].index(branch)
        turned = float(rows[-1][column]) - float(rows[1][column])
        assert turned == pytest.approx(out[branch], abs=1e-9)
        # the filter flag is gone
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--convention", branch])
        assert exit_.value.code == EXIT_INPUT_ERROR
        assert "--convention" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["zeros", "--interval=-1,1"],
        ["track", "--interval=-0.5,0.5"],
    ], ids=["zeros", "track"])
    def test_out_file(self, sin_file, capsys, tmp_path, command):
        # --out holds what stdout would, and stdout stays empty
        argv = [command[0], "--poly", sin_file, command[1]]
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    def test_endpoint_zero_is_input_error(self, sin_file, capsys):
        code = main(["zeros", "--poly", sin_file, "--interval", "0,1"])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "EndpointZeroError"

    def test_transverse_coordinates(self, diff_file, capsys):
        argv = ["--poly", diff_file, "--xperp=0.7", "--interval=0,3"]
        assert main(["zeros", *argv]) == EXIT_OK
        zeros = json.loads(capsys.readouterr().out)["zeros"]
        assert len(zeros) == 1 and zeros[0]["multiplicity"] == 1
        assert zeros[0]["location"] == pytest.approx(0.7, abs=1e-9)
        assert main(["track", *argv]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["smooth_increment"] == pytest.approx(1.5, abs=1e-9)
        assert out["plus"] == pytest.approx(1.5 - math.pi, abs=1e-9)

    @pytest.mark.parametrize("command", ["zeros", "track"])
    def test_transverse_count_is_input_error(self, diff_file, capsys, command):
        code = main([command, "--poly", diff_file, "--xperp=1,2", "--interval=0,3"])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "DimensionError"
        assert out["message"] == "xperp has 2 values, not 1"

    @pytest.mark.parametrize("command", ["zeros", "track"])
    def test_overflowing_transverse_phase_is_input_error(self, tmp_path, capsys, command):
        # <l', x'> = 2e308 and 3e308 overflow: an input error naming the
        # point, with no overflow warning and no TrackingError on NaN rows
        path = tmp_path / "p2.json"
        write_polynomial_file(ExpPolynomial.from_pairs(
            2, [(1, ["1", "2"]), (-0.5, ["0", "0"]), (0.3 + 0.1j, ["-1", "3"])]), path)
        code = main([command, "--poly", str(path), "--xperp=1e308", "--interval=0,3"])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "DegenerateInputError"
        assert "x' = [1e+308]" in out["message"]

    @pytest.mark.parametrize("interval", ["1,2,3", "1"])
    def test_interval_needs_two_numbers(self, sin_file, capsys, interval):
        code = main(["zeros", "--poly", sin_file, f"--interval={interval}"])
        assert code == EXIT_INPUT_ERROR
        assert repr(interval) in json.loads(capsys.readouterr().out)["message"]

    @pytest.mark.parametrize("command", ["zeros", "track"])
    def test_too_long_interval_is_input_error(self, sin_file, capsys, command):
        # 2.5e8 first-sampling steps would need 1.9 GiB
        code = main([command, "--poly", sin_file, "--interval=0.5,1e8"])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "DegenerateInputError"
        assert "steps" in out["message"]


class TestMm:
    def test_sin_report(self, sin_file, capsys):
        code = main(
            [
                "mm",
                "--poly",
                sin_file,
                "--windows",
                "25,50",
                "--lines",
                "32",
                "--torus-samples",
                "400",
            ]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["pass"]
        assert "timestamp" in out
        assert set(out["box"]) == {"plus", "minus"}

    def test_failing_report_exits_1(self, sin_file, tmp_path):
        # one torus sample, on a window with a zero, reads -+pi with
        # standard error 0, and the box route 5 of 16 lines on a zero,
        # -+5 pi / 16 with spread 0 up to rounding: the difference 11 pi / 16
        # is over the floor 0.05 of the tolerance
        out = tmp_path / "report.json"
        code = main(["mm", "--poly", sin_file, "--y", "0", "--windows", "25,50",
                     "--lines", "16", "--torus-samples", "1", "--seed", "0",
                     "--out", str(out)])
        assert code == EXIT_VERIFY_FAILED
        report = json.loads(out.read_text())
        assert report["pass"] is False
        for conv, sign in (("plus", -1), ("minus", 1)):
            assert report["torus"][conv]["stderr"] == 0.0
            assert report["torus"][conv]["value"] == pytest.approx(sign * math.pi, abs=1e-12)
            assert report["box"][conv]["value"] == pytest.approx(sign * 5 * math.pi / 16,
                                                                abs=1e-12)
            assert report["tolerance"][conv] == 0.05
            assert report["diff"][conv] == pytest.approx(11 * math.pi / 16, abs=1e-12)

    def test_single_convention_filter(self, sin_file, capsys):
        # mm always reports both conventions; the filter flag is gone
        argv = ["mm", "--poly", sin_file, "--windows", "25,50", "--lines", "32",
                "--torus-samples", "200"]
        assert main(argv) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        for key in ("box", "torus", "diff", "tolerance"):
            assert set(out[key]) == {"plus", "minus"}
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--convention", "plus"])
        assert exit_.value.code == EXIT_INPUT_ERROR
        assert "--convention" in capsys.readouterr().err

    def test_deterministic_apart_from_timestamp(self, sin_file, capsys):
        argv = [
            "mm",
            "--poly",
            sin_file,
            "--windows",
            "25,50",
            "--lines",
            "32",
            "--torus-samples",
            "200",
            "--seed",
            "5",
        ]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        first.pop("timestamp")
        second.pop("timestamp")
        assert first == second

    def test_bad_y_length(self, sin_file, capsys):
        code = main(["mm", "--poly", sin_file, "--y", "0,0"])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "DimensionError"
        assert out["message"] == "y has 2 components, not 1"

    @pytest.mark.parametrize(
        "flag, value",
        [("--y", "nan"), ("--y", "inf"), ("--y", "-inf"),
         ("--windows", "25,nan"), ("--windows", "25,inf")],
    )
    def test_non_finite_input(self, sin_file, capsys, flag, value):
        code = main(
            ["mm", "--poly", sin_file, f"{flag}={value}", "--torus-samples", "20"]
        )
        assert code == EXIT_INPUT_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == "ValueError"

    @pytest.mark.parametrize("command", ["mm", "verify"])
    def test_negative_seed_is_input_error(self, sin_file, capsys, command):
        argv = [command, "--seed", "-1"] + (["--poly", sin_file] if command == "mm" else [])
        assert main(argv) == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": "ValueError", "message": "seed must be >= 0"}

    def test_no_torus_samples(self, sin_file, capsys):
        code = main(["mm", "--poly", sin_file, "--windows", "25", "--lines", "16",
                     "--torus-samples", "0"])
        assert code == EXIT_INPUT_ERROR
        assert "samples" in json.loads(capsys.readouterr().out)["message"]


class TestParser:
    def test_built_once_and_reused(self, sin_file, capsys):
        # the parser is built on the first main call and kept: commands run
        # in turn, an input error among them, print what each prints when it
        # runs first on a fresh parser
        mm = ["mm", "--poly", sin_file, "--windows", "25", "--lines", "16",
              "--torus-samples", "64"]
        runs = [[*mm, "--seed", "1"],
                ["zeros", "--poly", sin_file, "--interval=1,2,3"],
                [*mm, "--seed", "2"]]

        def run(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            report = json.loads(out)
            report.pop("timestamp", None)
            return code, report, err

        in_turn = [run(argv) for argv in runs]
        fresh = []
        for argv in runs:
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert in_turn == fresh
        assert [code for code, _, _ in in_turn] == [EXIT_OK, EXIT_INPUT_ERROR, EXIT_OK]
        assert in_turn[0][1] != in_turn[2][1]  # the second seed is read
        assert build_parser() is build_parser()


class TestVerify:
    def test_every_case_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == [
            "case", "convention", "box", "torus", "diff", "tolerance", "pass"
        ]
        assert len(rows) == 17  # 8 cases, both conventions, and the header
        assert all(row[-1] == "pass" for row in rows[1:])

    def test_unreliable_box_route_fails(self, capsys, monkeypatch):
        # a case whose box route is unreliable fails, as its report's pass
        # flag does, even when its values meet the targets
        cases = cli._verify_cases
        monkeypatch.setattr(cli, "_verify_cases", lambda: islice(cases(), 2))

        def report(P, *args, **kwargs):
            got = compare_estimators(P, *args, **kwargs)
            if P.exponents == ((Fraction(5, 2),),):
                got["box"]["minus"]["reliable"] = False
            return got

        monkeypatch.setattr(cli, "compare_estimators", report)
        assert main(["verify"]) == EXIT_VERIFY_FAILED
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [(row[0], row[1], row[-1]) for row in rows[1:]] == [
            ("pure-exp-1", "plus", "pass"), ("pure-exp-1", "minus", "pass"),
            ("pure-exp-5/2", "plus", "pass"), ("pure-exp-5/2", "minus", "FAIL"),
        ]
